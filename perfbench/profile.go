package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// flatProfile is a CPU profile's flat time per leaf function (the
// innermost inlined frame), as `go tool pprof -top` reports it.
type flatProfile struct {
	byFunc map[string]int64 // ns
	total  int64
}

// readProfile runs the toolchain's `go tool pprof -top` over the raw
// profile at path, every node kept, and reads its flat column.
func readProfile(path string) (*flatProfile, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ns", path).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		return nil, fmt.Errorf("go tool pprof: %v: %.500s", err, stderr)
	}
	return parseTop(out)
}

// parseTop reads `go tool pprof -top -unit=ns` text: after the
// "flat  flat%  sum%  cum  cum%" header, one row per function.
func parseTop(text []byte) (*flatProfile, error) {
	p := &flatProfile{byFunc: map[string]int64{}}
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: bad row %q", sc.Text())
		}
		v, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat value in %q", sc.Text())
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		p.byFunc[name] += v
		p.total += v
	}
	if !rows {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return p, sc.Err()
}

// Runtime frames that allocate memory (and clear it for reuse) versus
// frames of the garbage collector (marking, sweeping, write barriers).
var (
	allocPrefixes = []string{
		"runtime.mallocgc", "runtime.memclrNoHeapPointers", "runtime.newobject",
		"runtime.newarray", "runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.nextFreeFast", "runtime.heapSetType", "runtime.heapBitsSetType",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*pageAlloc)",
		"runtime.(*fixalloc)", "runtime.(*mspan).init", "runtime.(*mspan).nextFreeIndex",
		"runtime.rawstring", "runtime.rawbyteslice", "runtime.rawruneslice",
		"runtime.concatstring", "runtime.slicebytetostring", "runtime.stringtoslicebyte",
		"runtime.publicationBarrier", "runtime.deductAssistCredit", "runtime.sysAlloc",
		"runtime.sysUsed", "runtime.(*spanSet)", "runtime.memclrNoHeapPointersChunked",
	}
	gcPrefixes = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcMark", "runtime.gcAssist",
		"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
		"runtime.greyobject", "runtime.findObject", "runtime.markBits", "runtime.markroot",
		"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*gcControllerState)",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.gcWriteBarrier", "runtime.wbMove",
		"runtime.sweepone", "runtime.bgsweep", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.(*mspan).typePointersOf", "runtime.typePointers", "runtime.(*mspan).heapBits",
		"runtime.spanOf", "runtime.gcStart", "runtime.gcFlushBgCredit", "runtime.tryDeferToSpanScan",
		"runtime.scanConservative", "runtime.shade", "runtime.(*mheap).nextSpanForSweep",
	}
)

// bucketOf maps a function to its attribution bucket: the package name
// for lgvoffload/internal/<pkg> code, runtime.alloc / runtime.gc for the
// allocator and collector, json, http, strconv and reflect for those
// standard packages, syscall for system calls, runtime.other for the
// rest of the runtime, main for the daemon's own command package and
// other for everything else.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "lgvoffload/internal/"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net/http/"):
		return "http"
	case strings.HasPrefix(fn, "main."):
		return "main"
	case strings.HasPrefix(fn, "strconv."):
		return "strconv"
	case strings.HasPrefix(fn, "reflect."):
		return "reflect"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "internal/poll."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."):
		// GC first: its prefixes are the more specific ones.
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
		for _, p := range allocPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.alloc"
			}
		}
		return "runtime.other"
	}
	return "other"
}

// shares is each bucket's fraction of the profile's flat CPU time; the
// fractions sum to 1 for any profile with samples.
func (p *flatProfile) shares() map[string]float64 {
	out := map[string]float64{}
	if p.total == 0 {
		return out
	}
	for fn, v := range p.byFunc {
		out[bucketOf(fn)] += float64(v) / float64(p.total)
	}
	return out
}
