package costmap

import (
	"math"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
)

// refCostmap is the costmap as it was before static-once / dirty-tile
// inflation: every SetStatic and Update recombines the layers and stamps
// the kernel around every lethal cell of the whole map, and FootprintCost
// does the float clamp geometry for every cell of its window. It is kept
// as the specification the incremental Costmap must match bit for bit:
// master bytes, UpdateStats and footprint costs.
type refCostmap struct {
	cfg Config

	static, obstacle, master []uint8

	kernel        []uint8
	kernelOffsets []geom.Cell
}

func newRef(cfg Config) *refCostmap {
	n := cfg.Width * cfg.Height
	r := &refCostmap{cfg: cfg, static: make([]uint8, n), obstacle: make([]uint8, n), master: make([]uint8, n)}
	cellRadius := int(math.Ceil(cfg.InflationRadius / cfg.Resolution))
	for dy := -cellRadius; dy <= cellRadius; dy++ {
		for dx := -cellRadius; dx <= cellRadius; dx++ {
			d := math.Hypot(float64(dx), float64(dy)) * cfg.Resolution
			if d > cfg.InflationRadius {
				continue
			}
			var cost uint8
			switch {
			case dx == 0 && dy == 0:
				cost = LethalCost
			case d <= cfg.RobotRadius:
				cost = InscribedCost
			default:
				v := 252 * math.Exp(-cfg.CostScale*(d-cfg.RobotRadius))
				if v < 1 {
					continue
				}
				cost = uint8(v)
			}
			r.kernelOffsets = append(r.kernelOffsets, geom.Cell{X: dx, Y: dy})
			r.kernel = append(r.kernel, cost)
		}
	}
	return r
}

func (r *refCostmap) inBounds(c geom.Cell) bool {
	return c.X >= 0 && c.X < r.cfg.Width && c.Y >= 0 && c.Y < r.cfg.Height
}

func (r *refCostmap) worldToCell(p geom.Vec2) geom.Cell {
	return geom.Cell{
		X: int(math.Floor((p.X - r.cfg.Origin.X) / r.cfg.Resolution)),
		Y: int(math.Floor((p.Y - r.cfg.Origin.Y) / r.cfg.Resolution)),
	}
}

func (r *refCostmap) cellToWorld(c geom.Cell) geom.Vec2 {
	return geom.Vec2{
		X: r.cfg.Origin.X + (float64(c.X)+0.5)*r.cfg.Resolution,
		Y: r.cfg.Origin.Y + (float64(c.Y)+0.5)*r.cfg.Resolution,
	}
}

func (r *refCostmap) SetStatic(m *grid.Map) UpdateStats {
	for i, v := range m.Cells {
		switch v {
		case grid.Occupied:
			r.static[i] = LethalCost
		case grid.Unknown:
			if r.cfg.UnknownIsLethal {
				r.static[i] = LethalCost
			} else {
				r.static[i] = UnknownCost
			}
		default:
			r.static[i] = FreeCost
		}
	}
	return r.rebuild()
}

func (r *refCostmap) Update(pose geom.Pose, scan *sensor.Scan) UpdateStats {
	var st UpdateStats
	w := r.cfg.Width
	origin := r.worldToCell(pose.Pos)
	for i := 0; i < scan.NumBeams(); i++ {
		rng := scan.Ranges[i]
		endCell := r.worldToCell(scan.Endpoint(pose, i))
		geom.Bresenham(origin, endCell, func(cell geom.Cell) bool {
			if !r.inBounds(cell) || cell == endCell {
				return false
			}
			if r.obstacle[cell.Y*w+cell.X] == LethalCost {
				r.obstacle[cell.Y*w+cell.X] = FreeCost
			}
			st.CellsCleared++
			return true
		})
		if scan.IsHit(i) && rng <= r.cfg.MaxObstacleDist && r.inBounds(endCell) {
			r.obstacle[endCell.Y*w+endCell.X] = LethalCost
			st.CellsMarked++
		}
	}
	st.CellsInflated = r.rebuild().CellsInflated
	return st
}

func (r *refCostmap) rebuild() UpdateStats {
	var st UpdateStats
	for i := range r.master {
		v := r.static[i]
		if r.obstacle[i] == LethalCost {
			v = LethalCost
		}
		r.master[i] = v
	}
	w, h := r.cfg.Width, r.cfg.Height
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if r.static[i] != LethalCost && r.obstacle[i] != LethalCost {
				continue
			}
			for k, off := range r.kernelOffsets {
				nx, ny := x+off.X, y+off.Y
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				j := ny*w + nx
				if cost := r.kernel[k]; r.master[j] != UnknownCost && cost > r.master[j] {
					r.master[j] = cost
					st.CellsInflated++
				} else if r.master[j] == UnknownCost && cost >= InscribedCost {
					r.master[j] = cost
					st.CellsInflated++
				}
			}
		}
	}
	return st
}

func (r *refCostmap) cost(c geom.Cell) uint8 {
	if !r.inBounds(c) {
		return UnknownCost
	}
	return r.master[c.Y*r.cfg.Width+c.X]
}

func (r *refCostmap) FootprintCost(p geom.Vec2) uint8 {
	rCells := int(math.Ceil(r.cfg.RobotRadius/r.cfg.Resolution)) + 1
	center := r.worldToCell(p)
	r2 := r.cfg.RobotRadius * r.cfg.RobotRadius
	half := r.cfg.Resolution / 2
	worst := FreeCost
	for dy := -rCells; dy <= rCells; dy++ {
		for dx := -rCells; dx <= rCells; dx++ {
			cell := geom.Cell{X: center.X + dx, Y: center.Y + dy}
			cw := r.cellToWorld(cell)
			closest := geom.V(
				geom.Clamp(p.X, cw.X-half, cw.X+half),
				geom.Clamp(p.Y, cw.Y-half, cw.Y+half),
			)
			if closest.DistSq(p) > r2 {
				continue
			}
			cost := r.cost(cell)
			if cost == UnknownCost {
				cost = InscribedCost
			}
			if cost > worst {
				worst = cost
			}
		}
	}
	return worst
}
