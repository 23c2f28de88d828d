package main

import (
	"fmt"
	"math"

	"sdpfloor"
)

// Tolerances of the independent check: shape bounds are relative (the
// legalizer meets area and aspect to rounding), containment and overlap
// absolute, as in the repository's own layout tests, and the HPWL
// recomputation relative.
const (
	shapeTol  = 1e-6
	layoutTol = 1e-6
	hpwlTol   = 1e-9
)

// checkFloorplan verifies one returned floorplan against its netlist and
// outline without trusting any flag the floorplanner reports: one rectangle
// per module, every area at least MinArea and aspect at most MaxAspect,
// fixed modules at FixedPos, all rectangles inside the outline without
// overlap, and an HPWL recomputed here from the rectangles that matches the
// reported one. It returns "" when the floorplan passes, or the first
// reason it does not.
func checkFloorplan(nl *sdpfloor.Netlist, outline sdpfloor.Rect, rects []sdpfloor.Rect, hpwl float64, feasible bool) string {
	if !feasible {
		return "floorplanner reported an infeasible result"
	}
	if len(rects) != nl.N() {
		return fmt.Sprintf("%d rectangles for %d modules", len(rects), nl.N())
	}
	centers := make([]sdpfloor.Point, len(rects))
	for i, r := range rects {
		m := nl.Modules[i]
		w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
		if !(w > 0 && h > 0) {
			return fmt.Sprintf("module %s has a degenerate rectangle %+v", m.Name, r)
		}
		if w*h < m.MinArea*(1-shapeTol) {
			return fmt.Sprintf("module %s area %.9g below its minimum %.9g", m.Name, w*h, m.MinArea)
		}
		if ar := math.Max(w/h, h/w); ar > m.MaxAspect*(1+shapeTol) {
			return fmt.Sprintf("module %s aspect %.6g above its bound %.6g", m.Name, ar, m.MaxAspect)
		}
		centers[i] = sdpfloor.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
		if m.Fixed && math.Hypot(centers[i].X-m.FixedPos.X, centers[i].Y-m.FixedPos.Y) > layoutTol*(1+math.Hypot(m.FixedPos.X, m.FixedPos.Y)) {
			return fmt.Sprintf("fixed module %s at %+v, not at %+v", m.Name, centers[i], m.FixedPos)
		}
	}
	if err := sdpfloor.CheckLayout(rects, outline, layoutTol); err != nil {
		return err.Error()
	}
	if got := netHPWL(nl, centers); math.Abs(got-hpwl) > hpwlTol*math.Max(1, math.Abs(got)) {
		return fmt.Sprintf("reported HPWL %.12g, recomputed from the rectangles %.12g", hpwl, got)
	}
	return ""
}

// netHPWL is the weighted half-perimeter wirelength of every net over the
// given module centers and its pads, computed here rather than by the
// library so the check does not share code with what it checks.
func netHPWL(nl *sdpfloor.Netlist, centers []sdpfloor.Point) float64 {
	total := 0.0
	for _, e := range nl.Nets {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		grow := func(p sdpfloor.Point) {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		for _, i := range e.Modules {
			grow(centers[i])
		}
		for _, p := range e.Pads {
			grow(nl.Pads[p].Pos)
		}
		if len(e.Modules)+len(e.Pads) > 0 {
			total += e.Weight * ((maxX - minX) + (maxY - minY))
		}
	}
	return total
}
