// Package costmap implements the layered costmap of the CostmapGen node
// (ROS costmap_2d): a static layer seeded from a known or SLAM-built map,
// an obstacle layer that marks laser endpoints and clears along beams,
// and an inflation layer that expands lethal obstacles by the robot
// radius with an exponential cost decay.
//
// CostmapGen is one of the paper's Energy-Critical Nodes and sits on the
// Velocity-Dependent Path, so every update reports how many cells it
// touched; the mission engine converts those counts into cycles for the
// platform model.
//
// As in costmap_2d's layered design, one update costs a bounded window of
// work, not a pass over the map: the static layer is inflated once per
// SetStatic, and each update re-inflates only the cells within the
// inflation radius of obstacle-only lethal cells, tile by tile. The
// reported counts are still those of a full rebuild that stamps every
// lethal cell of the map (see Update), so the modelled cycles do not
// depend on how the work is done.
package costmap

import (
	"math"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
)

// Cost values, matching costmap_2d conventions.
const (
	FreeCost      uint8 = 0
	InscribedCost uint8 = 253
	LethalCost    uint8 = 254
	UnknownCost   uint8 = 255
)

// Config parameterizes the costmap.
type Config struct {
	Width, Height int
	Resolution    float64
	Origin        geom.Vec2

	RobotRadius     float64 // inscribed radius for inflation, m
	InflationRadius float64 // total inflation distance, m
	CostScale       float64 // exponential decay rate of inflated cost
	MaxObstacleDist float64 // beams longer than this do not mark, m
	UnknownIsLethal bool    // treat unknown static cells as obstacles
}

// DefaultConfig returns a configuration suitable for the Turtlebot3 in
// the lab environments.
func DefaultConfig(w, h int, res float64, origin geom.Vec2) Config {
	return Config{
		Width: w, Height: h, Resolution: res, Origin: origin,
		RobotRadius:     0.105,
		InflationRadius: 0.45,
		CostScale:       8.0,
		MaxObstacleDist: 3.0,
		UnknownIsLethal: false,
	}
}

// UpdateStats reports the work done by one costmap update; the engine
// converts it into platform cycles.
type UpdateStats struct {
	CellsCleared  int // obstacle-layer raytrace clearing
	CellsMarked   int // obstacle-layer endpoint marking
	CellsInflated int // inflation-layer writes
}

// Total returns the total number of cell operations.
func (s UpdateStats) Total() int { return s.CellsCleared + s.CellsMarked + s.CellsInflated }

// obsCleared marks an obstacle-layer cell that was lethal and has been
// cleared by a beam since the last compose; it is still listed in
// obsCells, so a cell re-marked before then is listed once.
const obsCleared uint8 = 1

// Obstacle inflation is redone in windows bounded to tiles of
// tileDim × tileDim cells.
const (
	tileShift = 4
	tileDim   = 1 << tileShift
)

// footMax is the widest footprint window FootprintCost keeps its
// per-column and per-row scratch for on the stack.
const footMax = 16

// kernelRun is one row of the inflation kernel: the costs of offsets
// (dx0, dy) through (dx0+len(cost)-1, dy), so that one stamp row is one
// slice loop with its clipping done once.
type kernelRun struct {
	dy, dx0 int
	cost    []uint8
}

// window is the half-open cell rectangle [x0, x1) × [y0, y1); it is
// empty when x0 >= x1.
type window struct{ x0, y0, x1, y1 int }

func (b window) empty() bool { return b.x0 >= b.x1 }

// union returns the bounding window of b and o.
func (b window) union(o window) window {
	if b.empty() {
		return o
	}
	return window{min(b.x0, o.x0), min(b.y0, o.y0), max(b.x1, o.x1), max(b.y1, o.y1)}
}

// Costmap is the layered cost grid.
//
// The inflated static layer is kept apart from the master grid: the
// master is that copy plus re-inflated windows around obstacle-only
// lethal cells (see Update), the way costmap_2d bounds each update to the
// window its layers changed.
type Costmap struct {
	cfg Config

	static   []uint8 // static layer (lethal/free/unknown)
	obstacle []uint8 // obstacle layer (LethalCost where marked, else FreeCost or obsCleared)
	master   []uint8 // combined + inflated result

	// The static layer inflated alone, once per SetStatic: the grid, the
	// inflation writes that landed on each cell, and their total. A write
	// raises a known cell's cost and an unknown cell takes at most two, so
	// a cell's count fits in a byte.
	staticMaster []uint8
	staticCnt    []uint8
	staticTotal  int

	obsCells   []int32  // cells the obstacle layer holds at LethalCost or obsCleared
	dirty      []window // per tile: the part to re-inflate (queued in dirtyTiles when not empty)
	dirtyTiles []int32
	tilesW     int

	cellRadius int         // inflation radius in cells
	kernel     []kernelRun // inflation costs by cell offset, rows in raster order
	rowStart   []int       // kernel[rowStart[dy+cellRadius]:rowStart[dy+cellRadius+1]] has row dy
	footCells  int         // FootprintCost window half-width in cells
}

// New allocates a costmap; all layers start free.
func New(cfg Config) *Costmap {
	n := cfg.Width * cfg.Height
	tilesW := (cfg.Width + tileDim - 1) >> tileShift
	tilesH := (cfg.Height + tileDim - 1) >> tileShift
	c := &Costmap{
		cfg:          cfg,
		static:       make([]uint8, n),
		obstacle:     make([]uint8, n),
		master:       make([]uint8, n),
		staticMaster: make([]uint8, n),
		staticCnt:    make([]uint8, n),
		dirty:        make([]window, tilesW*tilesH),
		tilesW:       tilesW,
		footCells:    int(math.Ceil(cfg.RobotRadius/cfg.Resolution)) + 1,
	}
	c.buildKernel()
	return c
}

// buildKernel precomputes the inflation cost for every cell offset within
// the inflation radius: 253 inside the robot radius, exponentially
// decaying outside (cost = 252·exp(-scale·(d - r_robot))).
func (c *Costmap) buildKernel() {
	c.cellRadius = int(math.Ceil(c.cfg.InflationRadius / c.cfg.Resolution))
	side := 2*c.cellRadius + 1
	costs := make([]uint8, 0, side*side) // the runs are consecutive slices of it
	for dy := -c.cellRadius; dy <= c.cellRadius; dy++ {
		for dx := -c.cellRadius; dx <= c.cellRadius; dx++ {
			d := math.Hypot(float64(dx), float64(dy)) * c.cfg.Resolution
			if d > c.cfg.InflationRadius {
				continue
			}
			var cost uint8
			switch {
			case dx == 0 && dy == 0:
				cost = LethalCost
			case d <= c.cfg.RobotRadius:
				cost = InscribedCost
			default:
				v := 252 * math.Exp(-c.cfg.CostScale*(d-c.cfg.RobotRadius))
				if v < 1 {
					continue
				}
				cost = uint8(v)
			}
			costs = append(costs, cost)
			if n := len(c.kernel); n > 0 && c.kernel[n-1].dy == dy &&
				c.kernel[n-1].dx0+len(c.kernel[n-1].cost) == dx {
				c.kernel[n-1].cost = c.kernel[n-1].cost[:len(c.kernel[n-1].cost)+1]
			} else {
				c.kernel = append(c.kernel, kernelRun{dy: dy, dx0: dx, cost: costs[len(costs)-1:]})
			}
		}
	}
	c.rowStart = make([]int, 2*c.cellRadius+2)
	for dy := -c.cellRadius; dy <= c.cellRadius; dy++ {
		k := c.rowStart[dy+c.cellRadius]
		for k < len(c.kernel) && c.kernel[k].dy == dy {
			k++
		}
		c.rowStart[dy+c.cellRadius+1] = k
	}
}

// Config returns the costmap configuration.
func (c *Costmap) Config() Config { return c.cfg }

func (c *Costmap) idx(cell geom.Cell) int { return cell.Y*c.cfg.Width + cell.X }

// InBounds reports whether the cell lies inside the costmap.
func (c *Costmap) InBounds(cell geom.Cell) bool {
	return cell.X >= 0 && cell.X < c.cfg.Width && cell.Y >= 0 && cell.Y < c.cfg.Height
}

// WorldToCell converts world coordinates to a cell.
func (c *Costmap) WorldToCell(p geom.Vec2) geom.Cell {
	return geom.Cell{
		X: int(math.Floor((p.X - c.cfg.Origin.X) / c.cfg.Resolution)),
		Y: int(math.Floor((p.Y - c.cfg.Origin.Y) / c.cfg.Resolution)),
	}
}

// CellToWorld returns the world coordinates of the cell center.
func (c *Costmap) CellToWorld(cell geom.Cell) geom.Vec2 {
	return geom.Vec2{
		X: c.cfg.Origin.X + (float64(cell.X)+0.5)*c.cfg.Resolution,
		Y: c.cfg.Origin.Y + (float64(cell.Y)+0.5)*c.cfg.Resolution,
	}
}

// SetStatic loads the static layer from an occupancy map (known map for
// navigation, or the SLAM map during exploration), inflates it once on
// its own, and composes the master grid from that and the obstacle layer
// as Update does. The map must share the costmap's geometry. The stats
// count the inflation writes of a full rebuild of the master grid.
func (c *Costmap) SetStatic(m *grid.Map) UpdateStats {
	c.loadStatic(m)
	return UpdateStats{CellsInflated: c.compose()}
}

// SetStaticAndUpdate is SetStatic followed by Update, the exploration
// tick (the SLAM map refreshes the static layer before the scan), with
// the master grid composed once. It returns Update's stats.
func (c *Costmap) SetStaticAndUpdate(m *grid.Map, pose geom.Pose, scan *sensor.Scan) UpdateStats {
	c.loadStatic(m)
	return c.Update(pose, scan)
}

// loadStatic converts the map into the static layer and inflates it.
func (c *Costmap) loadStatic(m *grid.Map) {
	for i, v := range m.Cells {
		switch v {
		case grid.Occupied:
			c.static[i] = LethalCost
		case grid.Unknown:
			if c.cfg.UnknownIsLethal {
				c.static[i] = LethalCost
			} else {
				c.static[i] = UnknownCost
			}
		default:
			c.static[i] = FreeCost
		}
	}
	c.inflateStatic()
}

// Update applies one laser scan taken from the given pose: clears the
// obstacle layer along each beam and marks endpoints, then recombines
// and re-inflates the master grid. It returns the work done.
//
// The master grid starts as a copy of the inflated static layer; only the
// cells within the inflation radius of an obstacle-only lethal cell (one
// the obstacle layer marks and the static layer does not) are reset and
// re-inflated from every lethal cell near them, in one window per
// 16×16 tile. The billing invariant: the stats, CellsInflated included,
// equal those of a full rebuild that stamps the kernel around every
// lethal cell of the map in raster order. The write count depends on
// stamp order, and a window sees its sources in that same raster order,
// so CellsInflated is the static total, minus the static writes in the
// windows, plus the windows' own writes.
func (c *Costmap) Update(pose geom.Pose, scan *sensor.Scan) UpdateStats {
	var st UpdateStats
	origin := c.WorldToCell(pose.Pos)
	for i := 0; i < scan.NumBeams(); i++ {
		r := scan.Ranges[i]
		end := scan.Endpoint(pose, i)
		endCell := c.WorldToCell(end)
		// Clear along the beam (excluding the endpoint when it marks).
		geom.Bresenham(origin, endCell, func(cell geom.Cell) bool {
			if !c.InBounds(cell) {
				return false
			}
			if cell == endCell {
				return false
			}
			if c.obstacle[c.idx(cell)] == LethalCost {
				c.obstacle[c.idx(cell)] = obsCleared
			}
			st.CellsCleared++
			return true
		})
		if scan.IsHit(i) && r <= c.cfg.MaxObstacleDist && c.InBounds(endCell) {
			j := c.idx(endCell)
			if c.obstacle[j] == FreeCost {
				c.obsCells = append(c.obsCells, int32(j))
			}
			c.obstacle[j] = LethalCost
			st.CellsMarked++
		}
	}
	st.CellsInflated = c.compose()
	return st
}

// inflateStatic stamps the kernel around every static-lethal cell, in
// raster order, into staticMaster, recording the writes per cell.
func (c *Costmap) inflateStatic() {
	copy(c.staticMaster, c.static)
	clear(c.staticCnt)
	w, h := c.cfg.Width, c.cfg.Height
	total := 0
	for i, v := range c.static {
		if v == LethalCost {
			total += c.stamp(c.staticMaster, c.staticCnt, i%w, i/w, window{0, 0, w, h})
		}
	}
	c.staticTotal = total
}

// compose builds the master grid from the inflated static layer and the
// obstacle layer, re-inflating only the windows around obstacle-only
// lethal cells, and returns the inflation writes of a full rebuild (see
// Update).
func (c *Costmap) compose() int {
	copy(c.master, c.staticMaster)
	w, h, r := c.cfg.Width, c.cfg.Height, c.cellRadius
	listed := c.obsCells[:0]
	for _, i := range c.obsCells {
		if c.obstacle[i] != LethalCost { // cleared since it was listed
			c.obstacle[i] = FreeCost
			continue
		}
		listed = append(listed, i)
		if c.static[i] == LethalCost {
			continue
		}
		// Every cell the kernel reaches from here, split by tile.
		x, y := int(i)%w, int(i)/w
		reach := window{max(x-r, 0), max(y-r, 0), min(x+r+1, w), min(y+r+1, h)}
		for ty := reach.y0 >> tileShift; ty <= (reach.y1-1)>>tileShift; ty++ {
			for tx := reach.x0 >> tileShift; tx <= (reach.x1-1)>>tileShift; tx++ {
				ti := ty*c.tilesW + tx
				if c.dirty[ti].empty() {
					c.dirtyTiles = append(c.dirtyTiles, int32(ti))
				}
				c.dirty[ti] = c.dirty[ti].union(window{
					max(reach.x0, tx<<tileShift), max(reach.y0, ty<<tileShift),
					min(reach.x1, (tx+1)<<tileShift), min(reach.y1, (ty+1)<<tileShift),
				})
			}
		}
	}
	c.obsCells = listed
	inflated := c.staticTotal
	for _, ti := range c.dirtyTiles {
		inflated += c.inflateWindow(c.dirty[ti])
		c.dirty[ti] = window{}
	}
	c.dirtyTiles = c.dirtyTiles[:0]
	return inflated
}

// inflateWindow resets win in the master grid to its base costs (the
// static layer, lethal where the obstacle layer marks), stamps every
// lethal cell within the inflation radius of win in raster order,
// clipped to win, and returns its writes minus the static-only writes
// it replaced.
func (c *Costmap) inflateWindow(win window) int {
	w, h, r := c.cfg.Width, c.cfg.Height, c.cellRadius
	n := 0
	for y := win.y0; y < win.y1; y++ {
		for i := y*w + win.x0; i < y*w+win.x1; i++ {
			n -= int(c.staticCnt[i])
			v := c.static[i]
			if c.obstacle[i] == LethalCost {
				v = LethalCost
			}
			c.master[i] = v
		}
	}
	for sy := max(win.y0-r, 0); sy < min(win.y1+r, h); sy++ {
		for sx := max(win.x0-r, 0); sx < min(win.x1+r, w); sx++ {
			if i := sy*w + sx; c.static[i] == LethalCost || c.obstacle[i] == LethalCost {
				n += c.stamp(c.master, nil, sx, sy, win)
			}
		}
	}
	return n
}

// stamp applies the kernel around the lethal cell (x, y) to dst, clipped
// to win: a cell takes the kernel cost when that raises it, and an
// unknown cell only when the cost is at least inscribed. It returns the
// number of writes and, when cnt is non-nil, adds them up per cell there.
func (c *Costmap) stamp(dst, cnt []uint8, x, y int, win window) int {
	w, r := c.cfg.Width, c.cellRadius
	dy0, dy1 := max(-r, win.y0-y), min(r, win.y1-1-y)
	if dy0 > dy1 {
		return 0
	}
	n := 0
	for _, run := range c.kernel[c.rowStart[dy0+r]:c.rowStart[dy1+r+1]] {
		a := x + run.dx0
		lo, hi := max(a, win.x0), min(a+len(run.cost), win.x1)
		if lo >= hi {
			continue
		}
		base := (y+run.dy)*w + lo
		row := dst[base : base+hi-lo]
		costs := run.cost[lo-a : hi-a]
		for k, m := range row {
			if cost := costs[k]; cost > m || (m == UnknownCost && cost >= InscribedCost) {
				row[k] = cost
				n++
				if cnt != nil {
					cnt[base+k]++
				}
			}
		}
	}
	return n
}

// Cost returns the master cost of a cell (UnknownCost out of bounds).
func (c *Costmap) Cost(cell geom.Cell) uint8 {
	if !c.InBounds(cell) {
		return UnknownCost
	}
	return c.master[c.idx(cell)]
}

// WorldCost returns the master cost at a world point.
func (c *Costmap) WorldCost(p geom.Vec2) uint8 { return c.Cost(c.WorldToCell(p)) }

// IsTraversable reports whether a cell is strictly below the inscribed
// threshold (safe for the robot center).
func (c *Costmap) IsTraversable(cell geom.Cell) bool {
	cost := c.Cost(cell)
	return cost < InscribedCost
}

// FootprintCost returns the worst master cost within the robot footprint
// centered at the world point, for trajectory feasibility checks. Cells
// count as inside the footprint when any part of their square intersects
// the disc, so coarse grids cannot hide obstacles between cell centers.
// Unknown and off-map cells inside it count as InscribedCost.
//
// The test is separable: the squared distance from the point to a cell
// square is the sum of a per-column and a per-row term, each computed
// once with the same float operations as a per-cell clamp would use.
// Along a row or column the term falls and then rises, so each row's
// footprint cells are one run of columns, found by trimming from both
// ends; the run itself is a plain byte scan of the master grid. It is
// safe for concurrent use: its scratch lives on the stack.
func (c *Costmap) FootprintCost(p geom.Vec2) uint8 {
	n := 2*c.footCells + 1
	var ddxBuf, ddyBuf [footMax]float64
	ddx, ddy := ddxBuf[:0], ddyBuf[:0]
	if n > footMax {
		ddx, ddy = make([]float64, 0, n), make([]float64, 0, n)
	}
	center := c.WorldToCell(p)
	x0, y0 := center.X-c.footCells, center.Y-c.footCells
	res, half := c.cfg.Resolution, c.cfg.Resolution/2
	for k := 0; k < n; k++ {
		cx := c.cfg.Origin.X + (float64(x0+k)+0.5)*res
		dx := geom.Clamp(p.X, cx-half, cx+half) - p.X
		ddx = append(ddx, dx*dx)
		cy := c.cfg.Origin.Y + (float64(y0+k)+0.5)*res
		dy := geom.Clamp(p.Y, cy-half, cy+half) - p.Y
		ddy = append(ddy, dy*dy)
	}
	r2 := c.cfg.RobotRadius * c.cfg.RobotRadius
	w, h := c.cfg.Width, c.cfg.Height
	lo, hi := 0, n // columns whose own term is within r²
	for lo < hi && ddx[lo] > r2 {
		lo++
	}
	for hi > lo && ddx[hi-1] > r2 {
		hi--
	}
	worst := FreeCost
	for j, dy2 := range ddy {
		if dy2 > r2 {
			continue
		}
		a, b := lo, hi
		for a < b && ddx[a]+dy2 > r2 {
			a++
		}
		for b > a && ddx[b-1]+dy2 > r2 {
			b--
		}
		if a == b {
			continue
		}
		y, xa, xb := y0+j, x0+a, x0+b
		if y < 0 || y >= h || xa < 0 || xb > w {
			// Off-map cells count as inscribed; clip the run to the map.
			worst = max(worst, InscribedCost)
			if xa, xb = max(xa, 0), min(xb, w); y < 0 || y >= h || xa >= xb {
				continue
			}
		}
		for _, m := range c.master[y*w+xa : y*w+xb] {
			if m == UnknownCost {
				m = InscribedCost
			}
			worst = max(worst, m)
		}
		if worst == LethalCost {
			return worst // nothing in the footprint can cost more
		}
	}
	return worst
}

// Dims returns the costmap dimensions.
func (c *Costmap) Dims() (w, h int) { return c.cfg.Width, c.cfg.Height }

// Snapshot copies the master grid (for shipping to another host or for
// inspection in tests).
func (c *Costmap) Snapshot() []uint8 {
	out := make([]uint8, len(c.master))
	copy(out, c.master)
	return out
}

// LoadSnapshot replaces the master grid, used when a remote host streams
// a precomputed costmap to the robot. The layers are not modified.
func (c *Costmap) LoadSnapshot(master []uint8) {
	if len(master) == len(c.master) {
		copy(c.master, master)
	}
}
