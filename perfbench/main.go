// Command perfbench is the end-to-end benchmark of the `lgvsim -serve`
// mission control plane. It starts the daemon as a child process,
// drives its HTTP API from this one load-generator process (one
// keep-alive request connection plus the /live SSE stream), checks
// every mission's summary against a solo in-process replay of its
// spec, and prints one JSON result line. See README.md for the
// workloads and metrics; run.sh builds both binaries.
//
//	perfbench -lgvsim bin/lgvsim -workload nav-open -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lgvoffload/internal/store"
)

// metricDef is a declared metric: every run prints exactly the
// end-to-end set (untraced) or the per-layer set (traced).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_rtf", "ratio"},
	{"read_cpu_ms", "ms"},
	{"rss_peak_mib", "MiB"},
	{"sim_energy_j", "J"},
	{"sim_mct_s", "s"},
	{"sim_vdp_p99_ms", "ms"},
}

// cpuBuckets are the profile attribution buckets reported as
// <bucket>.cpu_share (internal packages, standard packages, syscalls) or
// runtime.<kind>_share; rest.cpu_share takes everything else, so the
// reported shares sum to 1.
var cpuBuckets = []string{
	"costmap", "grid", "slam", "sensor", "amcl", "planner", "tracker", "geom",
	"json", "http", "store", "serve", "obs", "netsim", "mw", "wire", "core",
	"strconv", "reflect", "syscall", "runtime.alloc", "runtime.gc", "runtime.other",
}

// hostsimNodes are the Table II nodes reported as hostsim.<node>_gcycles.
var hostsimNodes = []string{"slam", "localization", "costmap_gen", "path_planning", "path_tracking", "exploration"}

func shareName(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_share"
	}
	return bucket + ".cpu_share"
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"serve.admit_p50_ms", "ms"},
		{"serve.admit_tail_ms", "ms"},
		{"serve.api_p50_ms", "ms"},
		{"serve.api_tail_ms", "ms"},
		{"serve.turnaround_p50_s", "s"},
		{"serve.turnaround_tail_s", "s"},
		{"serve.missions_per_s", "1/s"},
		{"serve.wall_rtf", "ratio"},
		{"serve.cpu_ms_per_mission", "ms"},
		{"serve.queue_wait_p50_s", "s"},
		{"serve.queue_wait_tail_s", "s"},
		{"serve.slices", "count"},
		{"serve.max_slice_gap", "count"},
		{"serve.rejected", "count"},
		{"serve.evicted", "count"},
		{"simtest.build_ms", "ms"},
		{"core.new_mission_ms", "ms"},
		{"core.step_p50_us", "us"},
		{"core.step_tail_us", "us"},
		{"core.steps", "count"},
		{"sim.success_frac", "ratio"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{shareName(b), "ratio"})
	}
	defs = append(defs, metricDef{"rest.cpu_share", "ratio"})
	defs = append(defs,
		metricDef{"store.read_p50_ms", "ms"},
		metricDef{"store.read_tail_ms", "ms"},
		metricDef{"store.fleet_p50_ms", "ms"},
		metricDef{"store.fleet_tail_ms", "ms"},
		metricDef{"store.list_p50_ms", "ms"},
		metricDef{"store.list_tail_ms", "ms"},
		metricDef{"store.mission_p50_ms", "ms"},
		metricDef{"store.bytes_per_mission", "B"},
		metricDef{"store.records_dropped", "count"},
		metricDef{"obs.prom_ms", "ms"},
		metricDef{"obs.live_dropped", "count"},
	)
	for _, n := range hostsimNodes {
		defs = append(defs, metricDef{"hostsim." + n + "_gcycles", "Gcycles"})
	}
	defs = append(defs,
		metricDef{"mw.msgs_sent", "count"},
		metricDef{"mw.msgs_dropped", "count"},
		metricDef{"muxer.msgs_overwritten", "count"},
		metricDef{"netsim.bytes_uplinked", "B"},
		metricDef{"core.switches", "count"},
		metricDef{"core.failovers", "count"},
		metricDef{"core.watchdog_stops", "count"},
		metricDef{"bench.gen_lag_tail_ms", "ms"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"bench.error_frac", "ratio"},
		metricDef{"bench.turnaround_samples", "count"},
		metricDef{"bench.api_samples", "count"},
		metricDef{"bench.read_samples", "count"},
		metricDef{"bench.spans", "count"},
	)
	return defs
}

var workloads = []string{"nav-open", "explore-batch", "fleet-reads"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	lgvsim   string
	work     string
	z        sizes
	nproc    int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same mission specs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.lgvsim, "lgvsim", "", "path to the built lgvsim binary (required)")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for stores, daemon logs and trace output")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.z = full
	cfg.nproc = runtime.NumCPU()
	res, err := bench(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// specsFor generates the workload's specs. nav-drain, not a declared
// workload, admits the nav-open catalog at once: its traced run's
// serve.missions_per_s is the drain capacity nav-open's rate was set
// from (README.md).
func specsFor(cfg config) ([][]byte, error) {
	switch cfg.workload {
	case "nav-open", "nav-drain":
		return navSpecs(cfg.seed, cfg.seconds, cfg.z), nil
	case "explore-batch":
		return exploreSpecs(cfg.seed, cfg.seconds, cfg.z), nil
	case "fleet-reads":
		return fleetSpecs(cfg.seed, cfg.z), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, ", "))
}

// bench runs one benchmark invocation. Untraced, it measures the
// workload once. Traced, it measures it twice — untraced, then with
// spans and a daemon CPU profile — so the difference is the tracing
// overhead, and reports per-layer metrics from the traced pass.
func bench(cfg config) (*result, error) {
	if cfg.lgvsim == "" {
		return nil, fmt.Errorf("-lgvsim is required (run.sh builds it)")
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	specs, err := specsFor(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	base, err := measure(cfg, specs, dir, nil)
	if err != nil {
		return nil, err
	}
	runs := []*runOut{base}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		traced, err := measure(cfg, specs, dir, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}

	// The output check, outside all timing: every distinct spec solo.
	// Traced replays run one at a time so step spans are uncontended.
	workers := cfg.nproc
	if cfg.trace {
		workers = 1
	}
	solos, err := replayAll(specs, dir, workers, tr)
	if err != nil {
		return nil, fmt.Errorf("solo replay: %w", err)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		checkRun(r, solos, res)
	}

	if !cfg.trace {
		for name, v := range endToEndValues(base) {
			res.Metrics[name] = v
		}
		return res, nil
	}
	traced := runs[1]
	stem, err := writeTrace(cfg, traced, tr)
	if err != nil {
		return nil, err
	}
	for name, v := range perLayerValues(cfg, base, traced, solos, tr, res, stem+".cpu.pprof") {
		res.Metrics[name] = v
	}
	return res, nil
}

// checkRun applies the output check to one measured run: every request
// answered 2xx, every mission done, and every summary equal to its
// solo replay.
func checkRun(r *runOut, solos []solo, res *result) {
	p := r.p
	res.Attempted += p.requests + len(p.ends)
	res.Failed += p.badRequests
	if p.badRequests > 0 {
		res.Correct = false
	}
	for _, e := range p.ends {
		var bad []string
		switch {
		case e.state != "done":
			bad = []string{"state " + e.state}
		case e.sum == nil || e.stored == nil:
			bad = []string{"summary missing"}
		default:
			want := solos[e.spec].sum
			bad = compareSummary(*e.stored, want)
			for _, b := range compareSummary(*e.sum, want.WithoutBookkeeping()) {
				bad = append(bad, "scheduler "+b)
			}
		}
		if len(bad) > 0 {
			res.Failed++
			res.Correct = false
			logf("output check: mission %s (spec %d): %s", e.id, e.spec, strings.Join(bad, "; "))
		}
	}
}

// runOut is one daemon lifecycle: set-up, measured phase, snapshots.
type runOut struct {
	setup       []float64 // s per timed daemon start
	p           *phase
	rssMiB      float64
	health      map[string]float64
	prom        []byte
	profile     []byte
	storeGrowth int64 // store file bytes added by the measured phase
}

// measure starts the daemon (timing set-up), runs the workload's
// measured phase against it, snapshots its counters and stops it.
func measure(cfg config, specs [][]byte, dir string, tr *tracer) (*runOut, error) {
	out := &runOut{}
	storePath := filepath.Join(dir, "fleet.lgvstore")
	if err := removeFile(storePath); err != nil {
		return nil, err
	}
	seeded := cfg.z.historySeeded
	if cfg.workload == "fleet-reads" {
		seeded = cfg.z.fleetSeeded
	}
	if err := seedStore(storePath, seeded, cfg.seed); err != nil {
		return nil, fmt.Errorf("seed store: %w", err)
	}
	size0 := fileSize(storePath)

	var d *daemon
	for i := 0; i < cfg.z.setupStarts; i++ {
		dd, err := startDaemon(cfg.lgvsim, storePath, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", i)))
		if err != nil {
			return nil, err
		}
		// Set-up is the daemon's CPU time from exec to its first 200 on
		// /healthz. Its wall time also counts the host's other load:
		// under 16–36% steal its median over ten runs rose by 65%.
		took, err := dd.cpuSeconds()
		if err != nil {
			dd.stop()
			return nil, err
		}
		out.setup = append(out.setup, took)
		if i == cfg.z.setupStarts-1 {
			d = dd
		} else if err := dd.stop(); err != nil {
			return nil, err
		}
	}
	defer d.stop()
	cpu := func() float64 {
		c, _ := d.cpuSeconds() // the clock answered at start-up; it cannot fail while d runs
		return c
	}

	live, err := openLive(d.addr)
	if err != nil {
		return nil, err
	}
	defer live.close()
	c := newClient(d.addr)
	defer c.close()
	s := &session{c: c, live: live.frames, tr: tr, specs: specs, jobs: map[string]*job{}, p: &phase{}, cpu: cpu, seeded: seeded}
	if cfg.workload != "fleet-reads" {
		// The dashboard's view of the fleet history, on the idle daemon
		// before the measured phase. While the phase runs, the daemon's
		// CPU time is mostly the executors'; after it, the store also
		// holds the run's own missions, whose number of ticks moves with
		// the seed.
		for i := 0; i < cfg.z.idleReadRounds; i++ {
			s.reads(s.storedID(i))
		}
	}

	var prof chan []byte
	if tr != nil {
		prof = startProfile(d.addr, int(math.Ceil(cfg.seconds)))
	}
	z := cfg.z
	switch cfg.workload {
	case "nav-open":
		err = s.navOpen(len(specs), z.navRate)
	case "nav-drain":
		err = s.batch(len(specs))
	case "explore-batch":
		err = s.batch(len(specs))
	case "fleet-reads":
		err = s.fleetReads(fleetMissions(cfg.seconds, z), z.fleetReadEvery)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	s.fetchStored()

	// /healthz mixes counters with the accepting flag; keep the numbers.
	_, body, _ := s.request(http.MethodGet, "/healthz", nil, "", 0)
	var raw map[string]any
	json.Unmarshal(body, &raw)
	out.health = map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out.health[k] = f
		}
	}
	if tr != nil {
		_, out.prom, _ = s.request(http.MethodGet, "/metrics.prom", nil, "", 0)
		out.profile = <-prof
	}
	if out.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	live.close()
	c.close()
	if err := d.stop(); err != nil {
		return nil, err
	}
	out.storeGrowth = fileSize(storePath) - size0
	out.p = s.p
	return out, nil
}

// startProfile pulls a CPU profile covering the next seconds from the
// daemon's /debug/pprof/profile on its own connection (traced runs
// only); the channel yields the raw profile, or nil on failure.
func startProfile(addr string, seconds int) chan []byte {
	ch := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, seconds))
		if err != nil {
			logf("cpu profile: %v", err)
			ch <- nil
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			logf("cpu profile: status %d err %v", resp.StatusCode, err)
			b = nil
		}
		ch <- b
	}()
	return ch
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func removeFile(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// doneSummaries returns the stored summaries of missions that ended
// done.
func doneSummaries(p *phase) []*store.MissionEnd {
	var out []*store.MissionEnd
	for _, e := range p.ends {
		if e.state == "done" && e.stored != nil {
			out = append(out, e.stored)
		}
	}
	return out
}

// virtualSeconds is the summed virtual time of the missions that ended
// done.
func virtualSeconds(p *phase) float64 {
	t := 0.0
	for _, e := range doneSummaries(p) {
		t += e.TotalTime
	}
	return t
}

func endToEndValues(r *runOut) map[string]metricValue {
	p := r.p
	done := doneSummaries(p)
	var virt, energy, vdp99 []float64 // per done mission
	for _, e := range done {
		virt = append(virt, e.TotalTime)
		energy = append(energy, e.TotalEnergy)
		vdp99 = append(vdp99, e.VDPP99*1e3)
	}
	v := map[string]float64{
		"setup_s":        median(r.setup),
		"cpu_rtf":        virtualSeconds(p) / p.missionCPU,
		"read_cpu_ms":    mean(p.readCPU),
		"rss_peak_mib":   r.rssMiB,
		"sim_energy_j":   mean(energy),
		"sim_mct_s":      mean(virt),
		"sim_vdp_p99_ms": iqMean(vdp99),
	}
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		out[d.name] = metricValue{v[d.name], d.unit}
	}
	return out
}

// missionsPerSecond is the missions that ended done per wall second of
// the measured window.
func missionsPerSecond(p *phase) float64 {
	return float64(len(doneSummaries(p))) / p.wall()
}

func perLayerValues(cfg config, base, t *runOut, solos []solo, tr *tracer, res *result, profPath string) map[string]metricValue {
	p := t.p
	v := map[string]float64{
		"serve.admit_p50_ms":       median(p.admit),
		"serve.admit_tail_ms":      tail(p.admit),
		"serve.api_p50_ms":         median(p.api),
		"serve.api_tail_ms":        tail(p.api),
		"serve.turnaround_p50_s":   median(p.turnaround),
		"serve.turnaround_tail_s":  tail(p.turnaround),
		"serve.missions_per_s":     missionsPerSecond(p),
		"serve.wall_rtf":           virtualSeconds(p) / p.wall(),
		"serve.cpu_ms_per_mission": p.missionCPU * 1e3 / float64(len(doneSummaries(p))),
		"serve.queue_wait_p50_s":   median(p.queueWait),
		"serve.queue_wait_tail_s":  tail(p.queueWait),
		"serve.slices":             t.health["slices"],
		"serve.max_slice_gap":      t.health["max_slice_gap"],
		"serve.rejected":           t.health["rejected"],
		"serve.evicted":            t.health["evicted"],
		"store.read_p50_ms":        median(p.reads),
		"store.read_tail_ms":       tail(p.reads),
		"store.fleet_p50_ms":       median(p.fleet),
		"store.fleet_tail_ms":      tail(p.fleet),
		"store.list_p50_ms":        median(p.list),
		"store.list_tail_ms":       tail(p.list),
		"store.mission_p50_ms":     median(p.storeGet),
		"obs.prom_ms":              median(p.prom),
		"obs.live_dropped":         float64(p.liveDropped),
		"bench.gen_lag_tail_ms":    tail(p.genLag),
		"bench.turnaround_samples": float64(len(p.turnaround)),
		"bench.api_samples":        float64(len(p.api)),
		"bench.read_samples":       float64(len(p.reads)),
		"bench.spans":              float64(tr.count()),
	}
	if res.Attempted > 0 {
		v["bench.error_frac"] = float64(res.Failed) / float64(res.Attempted)
	}
	if n := len(p.ends); n > 0 {
		v["store.bytes_per_mission"] = float64(t.storeGrowth) / float64(n)
	}

	// Tracing overhead on the workload's headline wall-clock metric.
	if cfg.workload == "nav-open" {
		v["bench.trace_overhead_frac"] = median(p.turnaround)/median(base.p.turnaround) - 1
	} else {
		v["bench.trace_overhead_frac"] = 1 - missionsPerSecond(p)/missionsPerSecond(base.p)
	}

	// In-process replay spans.
	var build, newm, steps []float64
	gc := map[string]float64{}
	for _, s := range solos {
		build = append(build, s.buildMs)
		newm = append(newm, s.newMs)
		steps = append(steps, s.stepsUs...)
		for n, g := range s.gcycles {
			gc[n] += g / float64(len(solos))
		}
	}
	v["simtest.build_ms"] = median(build)
	v["core.new_mission_ms"] = median(newm)
	v["core.step_p50_us"] = median(steps)
	v["core.step_tail_us"] = tail(steps)
	v["core.steps"] = float64(len(steps))
	for _, n := range hostsimNodes {
		v["hostsim."+n+"_gcycles"] = gc[n]
	}

	// Per-mission counters from the daemon's summaries.
	var sent, dropped, over, bytesUp, sw, fo, wd, recDropped, succ float64
	done := doneSummaries(p)
	for _, e := range done {
		if e.Success {
			succ++
		}
		sent += float64(e.MsgsSent)
		dropped += float64(e.MsgsDropped)
		over += float64(e.MsgsOverwritten)
		bytesUp += e.BytesUplinked
		sw += float64(e.Switches)
		fo += float64(e.Failovers)
		wd += float64(e.WatchdogStops)
		recDropped += float64(e.Dropped)
	}
	if n := float64(len(done)); n > 0 {
		v["mw.msgs_sent"] = sent / n
		v["mw.msgs_dropped"] = dropped / n
		v["muxer.msgs_overwritten"] = over / n
		v["netsim.bytes_uplinked"] = bytesUp / n
		v["core.switches"] = sw / n
		v["core.failovers"] = fo / n
		v["core.watchdog_stops"] = wd / n
		v["sim.success_frac"] = succ / n
	}
	v["store.records_dropped"] = recDropped

	// Daemon CPU profile, flat, by package.
	if t.profile != nil {
		fp, err := readProfile(profPath)
		if err != nil {
			logf("cpu profile: %v", err)
		} else {
			sh := fp.shares()
			rest := 1.0
			for _, b := range cpuBuckets {
				v[shareName(b)] = sh[b]
				rest -= sh[b]
			}
			v["rest.cpu_share"] = rest
		}
	}

	out := map[string]metricValue{}
	for _, d := range perLayerDefs() {
		out[d.name] = metricValue{v[d.name], d.unit}
	}
	return out
}

// writeTrace writes the traced run's spans, CPU profile and end-of-run
// /healthz and /metrics.prom snapshots under <work>/trace/, and returns
// the files' common path stem.
func writeTrace(cfg config, t *runOut, tr *tracer) (string, error) {
	dir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(stem + ".spans.jsonl"); err != nil {
		return "", err
	}
	health, _ := json.MarshalIndent(t.health, "", "  ")
	for ext, b := range map[string][]byte{".cpu.pprof": t.profile, ".metrics.prom": t.prom, ".healthz.json": health} {
		if err := os.WriteFile(stem+ext, b, 0o644); err != nil {
			return "", err
		}
	}
	logf("trace written to %s.{spans.jsonl,cpu.pprof,metrics.prom,healthz.json}", stem)
	return stem, nil
}
