package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/simtest"
	"lgvoffload/internal/store"
)

// sizes is the benchmark's scale. Every workload runs a fixed amount
// of work derived from --seconds and a rate, so every commit runs
// exactly the same missions; the rates were chosen on the commit that
// added the benchmark (see README.md). full is what the benchmark runs; the self-test runs
// the same code at short.
type sizes struct {
	navRate        float64 // nav-open arrivals per second
	exploreRate    float64 // explore-batch missions per second of window
	fleetRate      float64 // fleet-reads missions per second of window
	fleetSpecs     int     // fleet-reads distinct tiny-hop specs, cycled
	fleetSeeded    int     // fleet-reads: finished missions in the seeded store
	fleetReadEvery int     // fleet-reads: completions between dashboard read rounds
	historySeeded  int     // nav-open/explore-batch: finished missions in the seeded store
	idleReadRounds int     // nav-open/explore-batch: read rounds before the measured phase
	setupStarts    int     // daemon starts timed for setup_s
}

var full = sizes{
	navRate:        1.15,
	exploreRate:    1.67,
	fleetRate:      5.33,
	fleetSpecs:     32,
	fleetSeeded:    2000,
	fleetReadEvery: 2,
	historySeeded:  500,
	idleReadRounds: 50,
	setupStarts:    9,
}

var short = sizes{
	navRate:        1.15,
	exploreRate:    2.5,
	fleetRate:      10,
	fleetSpecs:     8,
	fleetSeeded:    100,
	fleetReadEvery: 4,
	historySeeded:  20,
	idleReadRounds: 3,
	setupStarts:    2,
}

// fleetMissions is how many missions fleet-reads runs in a window of
// seconds, rounded to whole passes over its specs so the mix is the
// same for every seed.
func fleetMissions(seconds float64, z sizes) int {
	return z.fleetSpecs * int(math.Max(1, math.Round(z.fleetRate*seconds/float64(z.fleetSpecs))))
}

// catalog returns the first n specs of one simtest workload kind that
// simtest.Generate yields from generator seed 1 upward. The catalog and
// its order are fixed, so every benchmark seed runs the same amount of
// work with the same overlap between missions; the seed changes every
// mission's random streams (see reseed).
func catalog(kind string, n int) []simtest.Scenario {
	var out []simtest.Scenario
	for s := int64(1); len(out) < n; s++ {
		if sc := simtest.Generate(s); sc.Workload == kind {
			out = append(out, sc)
		}
	}
	return out
}

// reseed gives every mission fresh random streams (sensor noise,
// particle filters, fault draws) from the workload seed, then
// serializes them: the daemon only ever sees these bytes.
func reseed(scs []simtest.Scenario, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, len(scs))
	for i, sc := range scs {
		sc.Seed = rng.Int63n(1 << 40)
		b, err := json.Marshal(sc)
		if err != nil {
			panic(err) // Scenario is plain data; Marshal cannot fail
		}
		out[i] = b
	}
	return out
}

// Mission time caps (virtual seconds). A mission that has not reached
// its goal by the cap stops there, so its cost, which would otherwise
// swing a run's work by seconds from seed to seed, is bounded.
//
// navCap is the generator's own shortest limit for a navigation mission
// (it draws 60–105 s): it trims only missions still driving after 60 s,
// a fifth of them. The generator opens every navigation fault window
// before 3 + 0.5·105 = 55.5 s, so all of them fire inside the cap.
//
// exploreCap: nine in ten generated exploration missions finish their
// map inside 30 s (most in 5–15 s); the rest, which wander for up to a
// minute, set how long a whole batch drains.
const (
	navCap     = 60
	exploreCap = 30
)

// capTime applies a mission time cap.
func capTime(scs []simtest.Scenario, limit float64) {
	for i := range scs {
		scs[i].MaxSimTime = math.Min(scs[i].MaxSimTime, limit)
	}
}

// navSpecs is one spec per nav-open arrival in the window.
func navSpecs(seed int64, seconds float64, z sizes) [][]byte {
	scs := catalog("navigation", int(math.Max(1, math.Round(z.navRate*seconds))))
	capTime(scs, navCap)
	return reseed(scs, seed)
}

// exploreSpecs are the distinct explore-batch specs for the window,
// with 30 SLAM particles.
func exploreSpecs(seed int64, seconds float64, z sizes) [][]byte {
	scs := catalog("exploration", int(math.Max(1, math.Round(z.exploreRate*seconds))))
	capTime(scs, exploreCap)
	for i := range scs {
		scs[i].SlamParticles = 30
	}
	return reseed(scs, seed)
}

// hopSpec is the control plane's tiny mission: the 0.4 m hop across a
// 3×3 m room the internal/serve tests use, deployed to the edge so its
// VDP is modelled.
func hopSpec(missionSeed int64) simtest.Scenario {
	return simtest.Scenario{
		Seed: missionSeed, Workload: "navigation",
		World:  simtest.WorldSpec{Kind: "empty", W: 3, H: 3, Res: 0.1},
		StartX: 1, StartY: 1, GoalX: 1.4, GoalY: 1.2,
		Deploy:         simtest.DeploySpec{Mode: "edge", Threads: 1},
		Fleet:          1,
		Link:           simtest.LinkSpec{Profile: "good", WAPX: 1, WAPY: 1},
		MaxSimTime:     5,
		TrackerSamples: 100,
	}
}

// fleetSpecs are tiny hops: the seed moves each goal a few centimetres
// around the serve tests' hop (0.36–0.44 m at 20–35°), which changes
// every trajectory but hardly the work.
func fleetSpecs(seed int64, z sizes) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	scs := make([]simtest.Scenario, z.fleetSpecs)
	for i := range scs {
		scs[i] = hopSpec(0)
		l, a := 0.36+0.08*rng.Float64(), (20+15*rng.Float64())*math.Pi/180
		scs[i].GoalX, scs[i].GoalY = roundCm(1+l*math.Cos(a)), roundCm(1+l*math.Sin(a))
	}
	return reseed(scs, rng.Int63())
}

func roundCm(v float64) float64 { return math.Round(v*100) / 100 }

// seedStore writes n finished missions into a fresh store at path,
// untimed, before the daemon starts. A handful of real missions (hops
// of growing length, run in-process with a Recorder) are the
// templates; the rest are copies of their records under new IDs, so the
// store holds realistic tick series at a fraction of the cost of
// running thousands of missions.
func seedStore(path string, n int, seed int64) error {
	tmplPath := path + ".templates"
	tmpl, err := store.Open(tmplPath)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var data []*store.MissionData
	for i := 0; i < 8; i++ {
		sc := hopSpec(rng.Int63n(1 << 40))
		sc.World = simtest.WorldSpec{Kind: "empty", W: 5, H: 4, Res: 0.1}
		sc.GoalX, sc.GoalY = 1.4+0.1*float64(i), 1.2+0.1*float64(i%3)
		sc.MaxSimTime = 30
		spec, _ := json.Marshal(sc)
		cfg, meta, err := simtest.BuildScenarioMission(spec)
		if err != nil {
			tmpl.Close()
			return err
		}
		rec, err := tmpl.Begin(meta)
		if err != nil {
			tmpl.Close()
			return err
		}
		cfg.Store = rec
		res, err := core.Run(cfg)
		if err != nil {
			tmpl.Close()
			return err
		}
		if err := rec.Finish(core.StoreSummary(res)); err != nil {
			tmpl.Close()
			return err
		}
		md, err := tmpl.ReadMission(rec.ID())
		if err != nil {
			tmpl.Close()
			return err
		}
		data = append(data, md)
	}
	if err := tmpl.Close(); err != nil {
		return err
	}

	st, err := store.Open(path)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		md := data[i%len(data)]
		start := md.Start
		start.ID = ""
		rec, err := st.Begin(start)
		if err != nil {
			st.Close()
			return err
		}
		for _, t := range md.Ticks {
			rec.Tick(t)
		}
		for _, d := range md.Decisions {
			rec.Decision(d)
		}
		for _, f := range md.Faults {
			rec.Fault(f)
		}
		for _, s := range md.Spans {
			rec.SpanRow(s)
		}
		if err := rec.Finish(*md.End); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	return removeFile(filepath.Clean(tmplPath))
}

// job is one admitted mission as the generator tracks it.
type job struct {
	id    string
	spec  int
	due   time.Time // scheduled send (open loop) or batch start
	sent  time.Time // POST /missions sent
	root  int       // span id of the mission's root span
	ended bool
}

// finished is one mission's terminal status as the daemon reported it:
// sum from the scheduler (GET /missions/{id}), stored from the mission
// store's index, which adds the Recorder's bookkeeping (tick VDP
// quantiles, record counts, drops).
type finished struct {
	id     string
	spec   int
	state  string
	sum    *store.MissionEnd
	stored *store.MissionEnd
}

// phase holds one measured phase's raw samples.
type phase struct {
	turnaround []float64 // s, scheduled send → mission_end frame
	queueWait  []float64 // s, POST /missions sent → mission_start frame
	genLag     []float64 // ms, how late the open-loop generator sent
	admit      []float64 // ms, POST /missions
	api        []float64 // ms, POST /missions and GET /missions/{id}
	reads      []float64 // ms, one dashboard refresh: GET /fleet then GET /missions
	fleet      []float64 // ms, GET /fleet
	list       []float64 // ms, GET /missions
	storeGet   []float64 // ms, GET /missions/{store id}
	prom       []float64 // ms, GET /metrics.prom
	readCPU    []float64 // ms of daemon CPU per dashboard refresh (GET /fleet + GET /missions)

	cpu0       float64 // daemon CPU seconds when the measured window opened
	roundCPU   float64 // daemon CPU seconds spent in read rounds inside the window
	missionCPU float64 // daemon CPU seconds in the window, read rounds excluded

	start, end  time.Time // measured window
	lastEnd     time.Time // latest mission_end seen
	ends        []finished
	requests    int // HTTP requests issued
	badRequests int // transport errors and non-2xx answers
	liveDropped int // mission_end frames never seen, recovered by polling
}

func (p *phase) wall() float64 { return p.end.Sub(p.start).Seconds() }

// settle waits, up to two seconds, until the daemon is idle: until its
// CPU clock advances by less than a tenth of a core over a few
// milliseconds. Work the last requests left running (a garbage
// collection they set off, background sweeping) is then done, and its
// CPU time is counted with them rather than with whatever comes next.
func (s *session) settle() {
	const idle, probe = 0.1, 5 * time.Millisecond
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c0, t0 := s.cpu(), time.Now()
		time.Sleep(probe)
		if s.cpu()-c0 < idle*time.Since(t0).Seconds() {
			return
		}
	}
}

// startWindow opens the measured window on the settled daemon.
func (s *session) startWindow() {
	s.settle()
	s.p.start = time.Now()
	s.p.cpu0 = s.cpu()
	s.p.roundCPU = 0
}

// endWindow closes the measured window at end (wall) and, once the
// daemon has settled, CPU.
func (s *session) endWindow(end time.Time) {
	s.settle()
	s.p.end = end
	s.p.missionCPU = s.cpu() - s.p.cpu0 - s.p.roundCPU
	logf("measured window: %.3f s wall, daemon CPU %.3f s on missions + %.3f s in read rounds",
		s.p.wall(), s.p.missionCPU, s.p.roundCPU)
}

// session drives one daemon through its request connection and /live.
type session struct {
	c         *client
	live      chan frame
	tr        *tracer
	specs     [][]byte
	jobs      map[string]*job
	pending   int
	done      int
	lastHeard time.Time // last frame, admission or poll
	p         *phase
	cpu       func() float64 // daemon CPU seconds so far

	seeded int // missions in the seeded store
}

// stallPoll is how long the generator waits without hearing from the
// daemon, while missions are outstanding, before it polls them.
const stallPoll = 2 * time.Second

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (s *session) request(method, path string, body []byte, trace string, parent int) (int, []byte, time.Duration) {
	t0 := time.Now()
	code, data, dur, err := s.c.do(method, path, body)
	s.tr.add(method+" "+routeOf(path), trace, parent, t0, t0.Add(dur))
	s.p.requests++
	if err != nil || code/100 != 2 {
		s.p.badRequests++
		if err != nil {
			logf("%s %s: %v", method, path, err)
		} else {
			logf("%s %s: status %d: %.200s", method, path, code, data)
		}
		return 0, nil, dur
	}
	return code, data, dur
}

// submit POSTs spec i, scheduled at due. A refused or failed POST is
// counted and returned as an error: no workload expects one.
func (s *session) submit(i int, due time.Time) error {
	t0 := time.Now()
	code, data, dur, err := s.c.do(http.MethodPost, "/missions", s.specs[i])
	s.p.requests++
	s.p.admit = append(s.p.admit, ms(dur))
	s.p.api = append(s.p.api, ms(dur))
	var st struct {
		ID string `json:"id"`
	}
	if err != nil || code != http.StatusCreated || json.Unmarshal(data, &st) != nil || st.ID == "" {
		s.p.badRequests++
		return fmt.Errorf("POST /missions: status %d err %v: %.200s", code, err, data)
	}
	j := &job{id: st.ID, spec: i, due: due, sent: t0, root: s.tr.id()}
	s.tr.add("POST /missions", j.id, j.root, t0, t0.Add(dur))
	s.jobs[j.id] = j
	s.pending++
	s.lastHeard = t0.Add(dur)
	return nil
}

// handle applies one /live frame.
func (s *session) handle(f frame) {
	s.lastHeard = f.at
	var ev struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(f.data, &ev) != nil {
		return
	}
	j := s.jobs[ev.ID]
	if j == nil || j.ended {
		return
	}
	switch f.event {
	case "mission_start":
		// Timed from the send: the frame can beat the POST's answer.
		s.p.queueWait = append(s.p.queueWait, f.at.Sub(j.sent).Seconds())
		s.tr.add("sse mission_start", j.id, j.root, f.at, time.Now())
	case "mission_end":
		id := s.tr.id()
		s.finish(j, f.at, id)
		s.tr.addID(id, "sse mission_end", j.id, j.root, f.at, time.Now())
	}
}

// finish records a mission's end (seen at at) and fetches its summary.
func (s *session) finish(j *job, at time.Time, parent int) {
	j.ended = true
	s.pending--
	s.done++
	if at.After(s.p.lastEnd) {
		s.p.lastEnd = at
	}
	s.p.turnaround = append(s.p.turnaround, at.Sub(j.due).Seconds())
	s.tr.addID(j.root, "mission", j.id, 0, j.due, at)
	code, data, dur := s.request(http.MethodGet, "/missions/"+j.id, nil, j.id, parent)
	s.p.api = append(s.p.api, ms(dur))
	fin := finished{id: j.id, spec: j.spec}
	var st struct {
		State   string            `json:"state"`
		Summary *store.MissionEnd `json:"summary"`
	}
	if code != 0 && json.Unmarshal(data, &st) == nil {
		fin.state, fin.sum = st.State, st.Summary
	}
	s.p.ends = append(s.p.ends, fin)
}

// pump handles frames until the deadline (or, with one set, a single
// frame). While it waits it polls every outstanding mission when the
// daemon goes quiet. It never returns before until unless one is set.
func (s *session) pump(until time.Time, one bool) {
	for {
		now := time.Now()
		if !now.Before(until) {
			return
		}
		if s.pending > 0 && now.Sub(s.lastHeard) >= stallPoll {
			s.poll()
			if one {
				return
			}
			continue
		}
		wait := until.Sub(now)
		if s.pending > 0 {
			wait = min(wait, stallPoll-now.Sub(s.lastHeard))
		}
		timer := time.NewTimer(wait)
		select {
		case f, ok := <-s.live:
			timer.Stop()
			if !ok {
				s.live = nil // stream gone: rely on polling
				continue
			}
			s.handle(f)
			if one {
				return
			}
		case <-timer.C:
		}
	}
}

// poll asks the daemon for every outstanding mission; one found
// terminal lost its mission_end frame on /live.
func (s *session) poll() {
	s.lastHeard = time.Now()
	for _, j := range s.jobs {
		if j.ended {
			continue
		}
		code, data, _ := s.request(http.MethodGet, "/missions/"+j.id, nil, j.id, j.root)
		var st struct {
			State string `json:"state"`
		}
		if code == 0 || json.Unmarshal(data, &st) != nil {
			continue
		}
		switch st.State {
		case "done", "failed", "canceled", "evicted":
			s.p.liveDropped++
			s.finish(j, time.Now(), 0)
		}
	}
}

// drain waits until every admitted mission has ended.
func (s *session) drain(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for s.pending > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d missions still outstanding after %s", s.pending, limit)
		}
		s.pump(deadline, true)
	}
	return nil
}

// fetchStored attaches the store's summary to every finished mission,
// from one listing of the most recent missions.
func (s *session) fetchStored() {
	_, data, _ := s.request(http.MethodGet, fmt.Sprintf("/missions?limit=%d", len(s.jobs)), nil, "", 0)
	var rows []store.MissionInfo
	if err := json.Unmarshal(data, &rows); err != nil {
		logf("store listing: %v", err)
		return
	}
	byID := make(map[string]*store.MissionEnd, len(rows))
	for _, r := range rows {
		byID[r.Start.ID] = r.End
	}
	for i := range s.p.ends {
		s.p.ends[i].stored = byID[s.p.ends[i].id]
	}
}

// storedID is the seeded-store mission a read round fetches.
func (s *session) storedID(round int) string {
	return fmt.Sprintf("m%d", 1+(round*7919)%s.seeded)
}

// reads issues one dashboard read round: /fleet, /missions, one stored
// mission and /metrics.prom. The daemon's CPU time is taken from a
// settled daemon to a settled daemon, so a refresh counts the garbage
// collection it sets off.
func (s *session) reads(storeID string) {
	s.settle()
	c0 := s.cpu()
	_, _, fd := s.request(http.MethodGet, "/fleet", nil, "", 0)
	_, _, ld := s.request(http.MethodGet, "/missions", nil, "", 0)
	s.settle()
	s.p.readCPU = append(s.p.readCPU, (s.cpu()-c0)*1e3)
	s.p.fleet = append(s.p.fleet, ms(fd))
	s.p.list = append(s.p.list, ms(ld))
	s.p.reads = append(s.p.reads, ms(fd+ld))
	var d time.Duration
	if storeID != "" {
		_, _, d = s.request(http.MethodGet, "/missions/"+storeID, nil, "", 0)
		s.p.storeGet = append(s.p.storeGet, ms(d))
	}
	_, _, d = s.request(http.MethodGet, "/metrics.prom", nil, "", 0)
	s.p.prom = append(s.p.prom, ms(d))
	s.settle()
	s.p.roundCPU += s.cpu() - c0
}

// navOpen sends the catalog open loop at a fixed rate for the measured
// window, then drains.
func (s *session) navOpen(n int, rate float64) error {
	s.startWindow()
	for i := 0; i < n; i++ {
		due := s.p.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		s.pump(due, false)
		s.p.genLag = append(s.p.genLag, ms(time.Since(due)))
		if err := s.submit(i%len(s.specs), due); err != nil {
			return err
		}
	}
	err := s.drain(3 * time.Minute)
	s.endWindow(s.p.lastEnd)
	return err
}

// batch admits n missions at once, cycling through the specs, and
// drains them: a closed-loop backlog.
func (s *session) batch(n int) error {
	s.startWindow()
	for i := 0; i < n; i++ {
		if err := s.submit(i%len(s.specs), s.p.start); err != nil {
			return err
		}
	}
	err := s.drain(3 * time.Minute)
	s.endWindow(time.Now())
	return err
}

// fleetReads runs n tiny missions closed loop, one at a time. Each time
// the completed count crosses a multiple of readEvery it reads the
// dashboard, so reads happen at the same store sizes on every commit (a
// faster write path cannot make reads look slower). With a second
// mission in flight, a mission's turnaround depended on whether the
// other's summary fetch or a garbage collection overlapped it, and the
// tail moved by a quarter between runs.
func (s *session) fleetReads(n, readEvery int) error {
	s.startWindow()
	deadline := s.p.start.Add(3 * time.Minute)
	rounds := 0
	for i := 0; i < n || s.pending > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d missions still outstanding", s.pending)
		}
		readDue := s.done >= (rounds+1)*readEvery
		switch {
		case readDue && s.pending == 0:
			rounds++
			s.reads(s.storedID(rounds))
		case !readDue && s.pending == 0 && i < n:
			if err := s.submit(i%len(s.specs), time.Now()); err != nil {
				return err
			}
			i++
		default:
			s.pump(deadline, true)
		}
	}
	s.endWindow(time.Now())
	return nil
}
