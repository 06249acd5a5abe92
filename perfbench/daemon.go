package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one `lgvsim -serve` child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{} // closed once cmd.Wait returns
}

// startDaemon execs `lgvsim -serve` on a free loopback port with the
// default scheduler knobs and returns once /healthz first answers 200.
func startDaemon(bin, storePath, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-serve", "-http", addr, "-store", storePath)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the generator itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()

	// A throwaway client: the probe's connections are closed before the
	// load generator opens its own.
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(t0) < 30*time.Second {
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("daemon exited during start-up (log %s)", logPath)
		default:
		}
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("daemon never answered /healthz (log %s)", logPath)
}

// stop sends SIGTERM (a draining shutdown), waits for the process to
// exit and kills it if it has not after a minute. Safe to call twice.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		d.log.Close()
		return nil
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		<-d.exited
		err = fmt.Errorf("daemon ignored SIGTERM for a minute")
	}
	d.log.Close()
	return err
}

// peakRSSMiB is the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds is the CPU time the daemon has used so far, all threads,
// user and system, in seconds. It reads the process's CPU-time clock
// (clock_getcpuclockid), which counts nanoseconds the daemon actually
// ran: time spent waiting for a CPU, on this VM or for the hypervisor
// (steal), is not in it, so it measures the program's work where wall
// time also measures the host's other load.
func (d *daemon) cpuSeconds() (float64, error) {
	clock := int64(^d.cmd.Process.Pid)<<3 | 2 // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("daemon CPU clock: %w", e)
	}
	return float64(ts.Nano()) / 1e9, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// client is the generator's request path: one keep-alive connection
// to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: t, Timeout: time.Minute}}
}

// do issues one request and reads the whole body. It returns the status
// code, body and wall duration; a transport error is returned as err.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// routeOf folds mission IDs out of a path so span names group by route.
func routeOf(path string) string {
	if rest, ok := strings.CutPrefix(path, "/missions/"); ok && rest != "" {
		return "/missions/{id}"
	}
	return path
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// frame is one server-sent event from /live.
type frame struct {
	event string
	data  []byte
	at    time.Time
}

// liveStream is the generator's second connection: the /live SSE
// stream that delivers mission_start/mission_end frames.
type liveStream struct {
	frames chan frame
	body   io.Closer
	done   chan struct{}
}

// The frame buffer is sized far above any run's frame count so the
// reader never stalls on the generator: a stalled reader would make the
// daemon's per-subscriber queue drop frames, and those drops must be
// the daemon's, not an artefact of the generator.
const liveBuffer = 1 << 16

func openLive(addr string) (*liveStream, error) {
	t := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://"+addr+"/live", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: t}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("open /live: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("open /live: status %d", resp.StatusCode)
	}
	ls := &liveStream{frames: make(chan frame, liveBuffer), body: resp.Body, done: make(chan struct{})}
	hello := make(chan struct{})
	go ls.read(bufio.NewReader(resp.Body), hello)
	select {
	case <-hello:
	case <-ls.done:
		return nil, fmt.Errorf("/live closed before its hello frame")
	case <-time.After(10 * time.Second):
		ls.close()
		return nil, fmt.Errorf("/live sent no hello frame")
	}
	return ls, nil
}

// read parses SSE frames until the body closes; the first frame
// (hello) only signals that the subscription is live.
func (ls *liveStream) read(r *bufio.Reader, hello chan struct{}) {
	defer close(ls.done)
	defer close(ls.frames)
	var ev string
	var data []byte
	first := true
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if ev == "" {
				continue
			}
			if first {
				first = false
				close(hello)
			} else {
				ls.frames <- frame{event: ev, data: data, at: time.Now()}
			}
			ev, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			ev = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// close ends the stream and waits for its reader to exit.
func (ls *liveStream) close() {
	ls.body.Close()
	<-ls.done
}

// span is one traced interval; spans of one mission share Trace (the
// mission id, or "replay/<spec>" for in-process replays).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, for parents recorded after their children.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(name, trace string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.addID(t.id(), name, trace, parent, start, end)
}

func (t *tracer) addID(id int, name, trace string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
