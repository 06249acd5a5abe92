package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"lgvoffload/internal/grid.(*LogOdds).IntegrateBeamTo": "grid",
		"lgvoffload/internal/costmap.FootprintCost":           "costmap",
		"encoding/json.(*decodeState).object":                 "json",
		"net/http.(*conn).serve":                              "http",
		"runtime.mallocgc":                                    "runtime.alloc",
		"runtime.memclrNoHeapPointers":                        "runtime.alloc",
		"runtime.scanobject":                                  "runtime.gc",
		"runtime.gcBgMarkWorker":                              "runtime.gc",
		"runtime.futex":                                       "runtime.other",
		"main.runServe":                                       "main",
		"math.Sincos":                                         "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The fixture is a 2 s CPU profile of `lgvsim -serve` under nav-open,
// taken from /debug/pprof/profile: fixtureTotalNs of CPU time, led by
// fixtureTopFunc.
const (
	fixtureTotalNs = 2810000000
	fixtureTopFunc = "lgvoffload/internal/costmap.(*Costmap).rebuild"
)

func TestProfileFixture(t *testing.T) {
	p, err := readProfile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	if p.total != fixtureTotalNs {
		t.Errorf("total = %d ns, want %d", p.total, fixtureTotalNs)
	}
	top, topV := "", int64(-1)
	for fn, v := range p.byFunc {
		if v > topV || (v == topV && fn < top) {
			top, topV = fn, v
		}
	}
	if top != fixtureTopFunc {
		t.Errorf("top flat function = %q, want %q", top, fixtureTopFunc)
	}
	sh := p.shares()
	sum := 0.0
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// geom.Clamp and friends are inlined into costmap; pprof reports
	// inlined frames as their own functions, so geom gets its own share.
	if sh["costmap"] < 0.5 || sh["geom"] <= 0 {
		t.Errorf("navigation profile not led by costmap with geom beside it: %v", sh)
	}
}

func TestParseTopRejectsGarbage(t *testing.T) {
	for _, text := range []string{"", "no table here\n", "      flat  flat%   sum%        cum   cum%\nxx 1% 1% 1 1%  f\n"} {
		if _, err := parseTop([]byte(text)); err == nil {
			t.Errorf("parseTop(%q) succeeded", text)
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	// Ten samples lie beyond the tail of 100: it is the 90th value.
	if got := tail(v); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90", got)
	}
	if got := tail(v[:5]); got != 5 {
		t.Errorf("tail of 5 samples = %v, want their max", got)
	}
	if got := median(v); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	// The middle half of 1..100 is 26..75.
	if got := iqMean(v); got != 50.5 {
		t.Errorf("interquartile mean of 1..100 = %v, want 50.5", got)
	}
	if got := iqMean([]float64{1, 1000}); got != 500.5 {
		t.Errorf("interquartile mean of 2 samples = %v, want their mean", got)
	}
}

// TestOutputCheckRejectsTampering replays one spec twice — the second
// run standing in for the daemon — then tampers with the copy field by
// field: the check must accept the honest copy and reject every
// tampered one.
func TestOutputCheckRejectsTampering(t *testing.T) {
	spec := fleetSpecs(7, short)[0]
	a, err := replay(spec, 0, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(spec, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := compareSummary(b.sum, a.sum); len(bad) > 0 {
		t.Fatalf("identical replays rejected: %v", bad)
	}
	if a.sum.Ticks == 0 || a.sum.VDPP99 == 0 {
		t.Fatalf("replay summary lacks Recorder bookkeeping: %+v", a.sum)
	}
	tamper := map[string]func(){
		"total_energy": func() { b.sum.TotalEnergy += 1e-9 },
		"energy":       func() { b.sum.Energy[firstKey(b.sum.Energy)] *= 1.01 },
		"time":         func() { b.sum.TotalTime += 0.05 },
		"vdp_p99":      func() { b.sum.VDPP99 *= 1.5 },
		"msgs_sent":    func() { b.sum.MsgsSent++ },
		"switches":     func() { b.sum.Switches++ },
		"dropped":      func() { b.sum.Dropped = 1 },
	}
	for name, mutate := range tamper {
		orig := b.sum
		orig.Energy = copyMap(b.sum.Energy)
		mutate()
		if bad := compareSummary(b.sum, a.sum); len(bad) == 0 {
			t.Errorf("tampered %s accepted", name)
		}
		b.sum = orig
	}
}

func firstKey(m map[string]float64) string {
	for k := range m {
		return k
	}
	return ""
}

func copyMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// benchmarkJSON is the subset of ../BENCHMARK.json the declared-metric
// checks need.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i,
					got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayerDefs(), b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
}

// TestShortRuns is the benchmark's self-test: every workload, untraced
// and traced, at the short scale against a freshly built daemon. Each
// run must pass its output check and print every declared metric with
// its unit; a traced run's CPU shares must come from a real profile and
// sum to 1.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lgvsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lgvsim")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build lgvsim: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 2, trace: traced, lgvsim: bin,
				work: filepath.Join(dir, "work"), z: short, nproc: 2}
			res, err := bench(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayerDefs()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if v := res.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, v)
					}
				}
				continue
			}
			// Layers every workload passes through must have been measured.
			for _, name := range []string{"serve.admit_p50_ms", "serve.api_tail_ms", "serve.turnaround_tail_s", "serve.slices",
				"simtest.build_ms", "core.new_mission_ms", "core.steps", "store.fleet_p50_ms",
				"store.list_p50_ms", "obs.prom_ms", "mw.msgs_sent", "bench.spans"} {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s: per-layer %s = %v, want > 0", w, name, v)
				}
			}
			sum, named := 0.0, 0.0
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, "cpu_share") || strings.HasSuffix(name, "_share") {
					sum += m.Value
					if name != "rest.cpu_share" {
						named += m.Value
					}
				}
			}
			if math.Abs(sum-1) > 1e-9 || named < 0.5 {
				t.Errorf("%s: CPU shares sum to %v (named buckets %v), want 1 with most attributed", w, sum, named)
			}
		}
	}
}
