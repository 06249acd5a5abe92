package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/simtest"
	"lgvoffload/internal/store"
)

// solo is one spec replayed in-process, alone, through the same public
// surface the daemon uses: BuildScenarioMission → NewMission → Step* →
// Result, recording into a private store so the summary carries the
// same Recorder bookkeeping (tick VDP quantiles) as the daemon's.
type solo struct {
	sum     store.MissionEnd
	gcycles map[string]float64 // hostsim node → Gcycles (Result.Cycles)
	buildMs float64
	newMs   float64
	stepsUs []float64
}

// replay runs spec i solo. With a tracer it records a span around every
// call into the program.
func replay(spec []byte, i int, dir string, tr *tracer) (solo, error) {
	var out solo
	path := filepath.Join(dir, fmt.Sprintf("replay-%d.lgvstore", i))
	st, err := store.Open(path)
	if err != nil {
		return out, err
	}
	defer os.Remove(path)
	defer st.Close()

	trace := fmt.Sprintf("replay/%d", i)
	root := tr.id()
	t0 := time.Now()
	cfg, meta, err := simtest.BuildScenarioMission(spec)
	t1 := time.Now()
	tr.add("simtest.BuildScenarioMission", trace, root, t0, t1)
	if err != nil {
		return out, err
	}
	rec, err := st.Begin(meta)
	if err != nil {
		return out, err
	}
	cfg.Store = rec
	t2 := time.Now()
	m, err := core.NewMission(cfg)
	t3 := time.Now()
	tr.add("core.NewMission", trace, root, t2, t3)
	if err != nil {
		rec.Abandon()
		return out, err
	}
	out.buildMs, out.newMs = ms(t1.Sub(t0)), ms(t3.Sub(t2))
	for {
		s := time.Now()
		done := m.Step()
		e := time.Now()
		out.stepsUs = append(out.stepsUs, float64(e.Sub(s))/1e3)
		tr.add("core.Mission.Step", trace, root, s, e)
		if done {
			break
		}
	}
	t4 := time.Now()
	res := m.Result()
	tr.add("core.Mission.Result", trace, root, t4, time.Now())
	tr.addID(root, "replay", trace, 0, t0, time.Now())
	if err := rec.Finish(core.StoreSummary(res)); err != nil {
		return out, err
	}
	info, ok := st.Mission(rec.ID())
	if !ok || info.End == nil {
		return out, fmt.Errorf("replay %d: summary missing from its store", i)
	}
	out.sum = *info.End
	out.gcycles = make(map[string]float64)
	for _, row := range res.Cycles.Breakdown() {
		out.gcycles[row.Node] = row.Work.Total() / 1e9
	}
	return out, nil
}

// replayAll replays every distinct spec on workers goroutines.
func replayAll(specs [][]byte, dir string, workers int, tr *tracer) ([]solo, error) {
	out := make([]solo, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = replay(specs[i], i, dir, tr)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareSummary lists every way the daemon's summary of a mission
// departs from its solo replay: any deterministic field that differs
// (energy per component, times, distance, message counts, switches,
// VDP quantiles, record counts), an Eq. 1a component sum that misses
// total_energy, or records the Recorder dropped. Empty means the
// mission checks out.
func compareSummary(daemon, solo store.MissionEnd) []string {
	var bad []string
	if daemon.Dropped != 0 {
		bad = append(bad, fmt.Sprintf("records_dropped=%d", daemon.Dropped))
	}
	sum := 0.0
	keys := make([]string, 0, len(daemon.Energy))
	for k := range daemon.Energy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum += daemon.Energy[k]
	}
	if math.Abs(sum-daemon.TotalEnergy) > 1e-9*math.Max(1, math.Abs(daemon.TotalEnergy)) {
		bad = append(bad, fmt.Sprintf("Eq. 1a components sum to %v, total_energy %v", sum, daemon.TotalEnergy))
	}
	// ID and StartOff are store positions, not mission results.
	daemon.ID, solo.ID = "", ""
	daemon.StartOff, solo.StartOff = 0, 0
	if reflect.DeepEqual(daemon, solo) {
		return bad
	}
	var a, b map[string]any
	ja, _ := json.Marshal(daemon)
	jb, _ := json.Marshal(solo)
	json.Unmarshal(ja, &a)
	json.Unmarshal(jb, &b)
	for k := range b {
		if _, ok := a[k]; !ok {
			a[k] = nil
		}
	}
	fields := make([]string, 0, len(a))
	for k := range a {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	for _, k := range fields {
		if !reflect.DeepEqual(a[k], b[k]) {
			bad = append(bad, fmt.Sprintf("%s: daemon %v, solo %v", k, a[k], b[k]))
		}
	}
	return bad
}
