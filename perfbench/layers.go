package main

import (
	"context"
	"fmt"
	"time"

	"sdpfloor"
	"sdpfloor/internal/legalize"
)

// op is the outcome of one operation: one Place, one Resolve, or one
// service job from Submit to Wait.
type op struct {
	wall time.Duration
	// solve is the part of wall spent solving: all of it for Place and
	// Resolve, start to finish for a service job, zero for a cache hit.
	solve  time.Duration
	cached bool // served from the service's result cache
	hpwl   float64
	fail   string                 // why the operation failed; empty when it passed
	global *sdpfloor.GlobalResult // convex-iteration diagnostics, when the op ran the SDP stage
	fp     *sdpfloor.Floorplan    // the returned floorplan (Place and Resolve only)
}

// placeOp runs one public-API Place with default settings and checks its
// output.
func placeOp(ctx context.Context, d design) op {
	t0 := time.Now()
	fp, err := sdpfloor.PlaceContext(ctx, d.nl, sdpfloor.Config{Outline: d.outline})
	return finishOp(time.Since(t0), d, fp, err)
}

// finishOp turns the result of a Place or Resolve that took wall into an
// op, running the independent check on it.
func finishOp(wall time.Duration, d design, fp *sdpfloor.Floorplan, err error) op {
	o := op{wall: wall, solve: wall, fp: fp}
	if err != nil {
		o.fail = err.Error()
		return o
	}
	o.hpwl, o.global = fp.HPWL, fp.GlobalResult
	o.fail = checkFloorplan(d.nl, d.outline, fp.Rects, fp.HPWL, fp.Feasible)
	return o
}

// placeLayers runs what sdpfloor.PlaceContext runs for MethodSDP, one layer
// call at a time: core.Solve, through sdpfloor.GlobalFloorplan, with the
// options Place derives from a Config whose only settings are the outline,
// the prior and the worker count; then legalize.Legalize on its centers.
// Each call is timed by rec and traced into rec. The result must match the
// public API's bit for bit, or the per-layer numbers describe another
// program.
func placeLayers(ctx context.Context, d design, prior *sdpfloor.Prior, workers int, rec *recorder) op {
	t0 := time.Now()
	opt := sdpfloor.GlobalOptions{Workers: workers, Prior: prior}.WithAllEnhancements()
	outline := d.outline
	opt.Outline = &outline
	opt.LazyConstraints = true
	opt.Context = ctx
	opt.Trace = rec

	var o op
	var res *sdpfloor.GlobalResult
	var err error
	rec.call("core.solve", func() { res, err = sdpfloor.GlobalFloorplan(d.nl, opt) })
	if err != nil {
		o.fail, o.wall = fmt.Sprintf("core.Solve: %v", err), time.Since(t0)
		return o
	}
	var leg *sdpfloor.LegalFloorplan
	rec.call("legalize", func() {
		leg, err = legalize.Legalize(d.nl, res.Centers, legalize.Options{Outline: d.outline, Context: ctx, Trace: rec})
	})
	o.wall = time.Since(t0)
	if err != nil {
		o.fail = fmt.Sprintf("legalize.Legalize: %v", err)
		return o
	}
	rec.legalized(leg.Feasible)
	o.hpwl, o.global = leg.HPWL, res
	o.fp = &sdpfloor.Floorplan{Global: res.Centers, Rects: leg.Rects, Centers: leg.Centers,
		HPWL: leg.HPWL, Feasible: leg.Feasible, GlobalResult: res}
	return o
}
