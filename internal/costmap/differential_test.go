package costmap

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
)

// randomStatic builds a w×h map with random walls, speckle obstacles and
// unknown patches; the border is left free so sensed worlds can add
// obstacle-only cells on the map edges.
func randomStatic(rng *rand.Rand, w, h int, res float64, origin geom.Vec2) *grid.Map {
	m := grid.NewMap(w, h, res, origin, grid.Free)
	fill := func(v int8, n, maxSide int) {
		for k := 0; k < n; k++ {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			x1, y1 := min(x0+1+rng.Intn(maxSide), w), min(y0+1+rng.Intn(maxSide), h)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					m.Set(geom.Cell{X: x, Y: y}, v)
				}
			}
		}
	}
	fill(grid.Unknown, 4, w/3)
	fill(grid.Occupied, 6, 6)
	for k := 0; k < w*h/150; k++ {
		m.Set(geom.Cell{X: rng.Intn(w), Y: rng.Intn(h)}, grid.Occupied)
	}
	return m
}

// sensedWorld is the static map with obstacles the static layer does not
// know (random cells and the whole border) and some known ones removed.
func sensedWorld(rng *rand.Rand, static *grid.Map) *grid.Map {
	s := static.Clone()
	w, h := s.Width, s.Height
	for x := 0; x < w; x++ {
		s.Set(geom.Cell{X: x, Y: 0}, grid.Occupied)
		s.Set(geom.Cell{X: x, Y: h - 1}, grid.Occupied)
	}
	for y := 0; y < h; y++ {
		s.Set(geom.Cell{X: 0, Y: y}, grid.Occupied)
		s.Set(geom.Cell{X: w - 1, Y: y}, grid.Occupied)
	}
	for k := 0; k < w*h/100; k++ {
		c := geom.Cell{X: rng.Intn(w), Y: rng.Intn(h)}
		if rng.Intn(3) == 0 {
			s.Set(c, grid.Free)
		} else {
			s.Set(c, grid.Occupied)
		}
	}
	return s
}

// randomPose draws a pose anywhere on the map, a third of them within a
// few cells of an edge or corner.
func randomPose(rng *rand.Rand, m *grid.Map) geom.Pose {
	W, H := float64(m.Width)*m.Resolution, float64(m.Height)*m.Resolution
	x, y := rng.Float64()*W, rng.Float64()*H
	if rng.Intn(3) == 0 {
		x = rng.Float64() * 4 * m.Resolution
		if rng.Intn(2) == 0 {
			x = W - x
		}
		y = rng.Float64() * 4 * m.Resolution
		if rng.Intn(2) == 0 {
			y = H - y
		}
	}
	return geom.P(m.Origin.X+x, m.Origin.Y+y, rng.Float64()*6.283)
}

// checkSame compares master bytes, stats and footprint costs at random
// points (on and off the map) between the costmap and the reference.
func checkSame(t *testing.T, rng *rand.Rand, step string, c *Costmap, ref *refCostmap, got, want UpdateStats) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: stats %+v, full rebuild %+v", step, got, want)
	}
	if !bytes.Equal(c.master, ref.master) {
		for i := range c.master {
			if c.master[i] != ref.master[i] {
				t.Fatalf("%s: master cell (%d,%d) = %d, full rebuild %d",
					step, i%c.cfg.Width, i/c.cfg.Width, c.master[i], ref.master[i])
			}
		}
	}
	// After a compose the obstacle list holds each marked cell exactly once.
	lethal := 0
	for _, v := range c.obstacle {
		if v == LethalCost {
			lethal++
		}
	}
	if len(c.obsCells) != lethal {
		t.Fatalf("%s: %d listed obstacle cells, %d marked", step, len(c.obsCells), lethal)
	}
	W, H := float64(c.cfg.Width)*c.cfg.Resolution, float64(c.cfg.Height)*c.cfg.Resolution
	for k := 0; k < 300; k++ {
		p := geom.V(c.cfg.Origin.X-0.3+rng.Float64()*(W+0.6), c.cfg.Origin.Y-0.3+rng.Float64()*(H+0.6))
		if g, w := c.FootprintCost(p), ref.FootprintCost(p); g != w {
			t.Fatalf("%s: FootprintCost(%v) = %d, reference %d", step, p, g, w)
		}
	}
}

// edgeObstacleOnly counts obstacle-only lethal cells on the map border.
func edgeObstacleOnly(c *Costmap) int {
	w, h := c.cfg.Width, c.cfg.Height
	n := 0
	for i, v := range c.obstacle {
		x, y := i%w, i/w
		if v == LethalCost && c.static[i] != LethalCost && (x == 0 || y == 0 || x == w-1 || y == h-1) {
			n++
		}
	}
	return n
}

// diffConfigs covers both resolutions the worlds use, a non-default robot
// radius, conservative unknown handling, map sizes that are not tile
// multiples and an offset origin.
func diffConfigs() []Config {
	var out []Config
	for _, tc := range []struct {
		w, h        int
		res, radius float64
		unknown     bool
	}{
		{53, 37, 0.05, 0.105, false},
		{40, 29, 0.1, 0.105, false},
		{61, 45, 0.05, 0.2, false},
		{48, 33, 0.05, 0.105, true},
		{16, 16, 0.05, 0.105, false},
	} {
		cfg := DefaultConfig(tc.w, tc.h, tc.res, geom.V(-0.7, 1.3))
		cfg.RobotRadius = tc.radius
		cfg.UnknownIsLethal = tc.unknown
		out = append(out, cfg)
	}
	return out
}

// TestIncrementalMatchesFullRebuild: navigation's sequence (SetStatic
// once, then a stream of scans that mark, move and clear obstacles) gives
// the same master bytes, UpdateStats and footprint costs as a full
// rebuild on every call.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			static := randomStatic(rng, cfg.Width, cfg.Height, cfg.Resolution, cfg.Origin)
			c, ref := New(cfg), newRef(cfg)
			checkSame(t, rng, "SetStatic", c, ref, c.SetStatic(static), ref.SetStatic(static))
			laser := sensor.NewLaser(180, 3.5, 0.01, rand.New(rand.NewSource(int64(ci))))
			world := sensedWorld(rng, static)
			edges := 0
			for k := 0; k < 60; k++ {
				if k%15 == 14 { // obstacles move: old marks must clear
					world = sensedWorld(rng, static)
				}
				pose := randomPose(rng, static)
				scan := laser.Sense(world, pose, float64(k))
				checkSame(t, rng, fmt.Sprintf("Update %d", k), c, ref, c.Update(pose, scan), ref.Update(pose, scan))
				edges += edgeObstacleOnly(c)
			}
			if edges == 0 {
				t.Error("no obstacle-only cell on a map edge was exercised")
			}
		})
	}
}

// TestExplorationSequenceMatchesFullRebuild: exploration's tick (the SLAM
// map replaces the static layer, then the scan updates the obstacle
// layer), as SetStatic then Update or as SetStaticAndUpdate, matches a
// full rebuild, with static cells flipping between unknown, free and
// occupied under standing obstacle marks.
func TestExplorationSequenceMatchesFullRebuild(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + ci)))
			truth := randomStatic(rng, cfg.Width, cfg.Height, cfg.Resolution, cfg.Origin)
			world := sensedWorld(rng, truth)
			slamMap := grid.NewMap(cfg.Width, cfg.Height, cfg.Resolution, cfg.Origin, grid.Unknown)
			c, ref := New(cfg), newRef(cfg)
			laser := sensor.NewLaser(120, 3.5, 0.01, rand.New(rand.NewSource(int64(ci))))
			states := []int8{grid.Unknown, grid.Free, grid.Occupied}
			for k := 0; k < 40; k++ {
				for n := 0; n < cfg.Width*cfg.Height/20; n++ {
					i := rng.Intn(len(slamMap.Cells))
					if rng.Intn(2) == 0 {
						slamMap.Cells[i] = world.Cells[i]
					} else {
						slamMap.Cells[i] = states[rng.Intn(3)]
					}
				}
				pose := randomPose(rng, truth)
				scan := laser.Sense(world, pose, float64(k))
				if k%2 == 0 { // the engine's combined call: one compose
					ref.SetStatic(slamMap)
					checkSame(t, rng, fmt.Sprintf("tick %d SetStaticAndUpdate", k), c, ref,
						c.SetStaticAndUpdate(slamMap, pose, scan), ref.Update(pose, scan))
					continue
				}
				checkSame(t, rng, fmt.Sprintf("tick %d SetStatic", k), c, ref, c.SetStatic(slamMap), ref.SetStatic(slamMap))
				checkSame(t, rng, fmt.Sprintf("tick %d Update", k), c, ref, c.Update(pose, scan), ref.Update(pose, scan))
			}
		})
	}
}

// TestFootprintCostMatchesReference: the separable footprint test equals
// the per-cell float geometry at random points on a dense random map,
// including points off the map and on cell boundaries.
func TestFootprintCostMatchesReference(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		rng := rand.New(rand.NewSource(int64(300 + ci)))
		static := randomStatic(rng, cfg.Width, cfg.Height, cfg.Resolution, cfg.Origin)
		c, ref := New(cfg), newRef(cfg)
		c.SetStatic(static)
		ref.SetStatic(static)
		W, H := float64(cfg.Width)*cfg.Resolution, float64(cfg.Height)*cfg.Resolution
		for k := 0; k < 20000; k++ {
			p := geom.V(cfg.Origin.X-0.4+rng.Float64()*(W+0.8), cfg.Origin.Y-0.4+rng.Float64()*(H+0.8))
			if k%4 == 0 { // exactly on a cell boundary
				p.X = cfg.Origin.X + float64(rng.Intn(cfg.Width))*cfg.Resolution
			}
			if got, want := c.FootprintCost(p), ref.FootprintCost(p); got != want {
				t.Fatalf("cfg%d: FootprintCost(%v) = %d, reference %d", ci, p, got, want)
			}
		}
	}
}
