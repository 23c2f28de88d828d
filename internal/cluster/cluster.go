// Package cluster implements the hierarchical extension the paper's
// conclusion names as future work ("design a hierarchical framework to
// enhance the scalability"): modules are agglomerated by heavy-edge
// clustering, the SDP convex iteration floorplans the (small) cluster-level
// netlist, and each cluster's members are then placed by a second-level SDP
// inside the cluster's region, with external connectivity projected in as
// fixed pseudo-pads. The result is a flat set of centers that the regular
// legalizer consumes, at a fraction of the flat formulation's cost: the
// per-solve Schur complement is built over O(k²) + Σ O(nᵢ²) constraints
// instead of O(n²).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sdpfloor/internal/core"
	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/trace"
)

// Clustering assigns each module to one of K clusters.
type Clustering struct {
	Assign []int // module index → cluster id in [0, K)
	K      int
}

// Members returns the module indices of each cluster.
func (c *Clustering) Members() [][]int {
	out := make([][]int, c.K)
	for m, cl := range c.Assign {
		out[cl] = append(out[cl], m)
	}
	return out
}

// Cluster greedily merges the heaviest-connected cluster pair (heavy-edge
// agglomeration) until k clusters remain, subject to an area-balance cap of
// 2·(total area)/k per cluster. Scores are normalized by the geometric mean
// of the cluster areas, which avoids one megacluster swallowing everything.
func Cluster(nl *netlist.Netlist, k int) (*Clustering, error) {
	n := nl.N()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cluster: k = %d out of range (n = %d)", k, n)
	}
	assign := make([]int, n)
	area := make([]float64, n)
	alive := make([]bool, n)
	for i := range assign {
		assign[i] = i
		area[i] = nl.Modules[i].MinArea
		alive[i] = true
	}
	w := nl.Adjacency()
	cap2 := 2 * nl.TotalArea() / float64(k)

	remaining := n
	for remaining > k {
		// Find the best merge.
		bi, bj, best := -1, -1, -1.0
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] || w.At(i, j) <= 0 {
					continue
				}
				if area[i]+area[j] > cap2 {
					continue
				}
				score := w.At(i, j) / math.Sqrt(area[i]*area[j])
				if score > best {
					best, bi, bj = score, i, j
				}
			}
		}
		if bi < 0 {
			// No connected merge available: merge the two smallest clusters.
			type ac struct {
				id int
				a  float64
			}
			var list []ac
			for i := 0; i < n; i++ {
				if alive[i] {
					list = append(list, ac{i, area[i]})
				}
			}
			sort.Slice(list, func(a, b int) bool { return list[a].a < list[b].a })
			bi, bj = list[0].id, list[1].id
		}
		// Merge bj into bi.
		for m := range assign {
			if assign[m] == bj {
				assign[m] = bi
			}
		}
		area[bi] += area[bj]
		alive[bj] = false
		for t := 0; t < n; t++ {
			if t == bi {
				continue
			}
			w.Set(bi, t, w.At(bi, t)+w.At(bj, t))
			w.Set(t, bi, w.At(bi, t))
			w.Set(bj, t, 0)
			w.Set(t, bj, 0)
		}
		remaining--
	}

	// Compact cluster ids to [0, k).
	idMap := map[int]int{}
	for _, a := range assign {
		if _, ok := idMap[a]; !ok {
			idMap[a] = len(idMap)
		}
	}
	out := &Clustering{Assign: make([]int, n), K: len(idMap)}
	for m, a := range assign {
		out.Assign[m] = idMap[a]
	}
	return out, nil
}

// Coarsen builds the cluster-level netlist: one module per cluster whose
// area is the sum of member areas (inflated by packFactor to leave
// intra-cluster routing room), the original pads, and one net per original
// net spanning two or more clusters/pads.
func Coarsen(nl *netlist.Netlist, cl *Clustering, packFactor float64) *netlist.Netlist {
	if packFactor <= 0 {
		packFactor = 1.1
	}
	coarse := &netlist.Netlist{Pads: nl.Pads}
	areas := make([]float64, cl.K)
	for m, c := range cl.Assign {
		areas[c] += nl.Modules[m].MinArea
	}
	for c := 0; c < cl.K; c++ {
		coarse.Modules = append(coarse.Modules, netlist.Module{
			Name:      fmt.Sprintf("cluster%d", c),
			MinArea:   areas[c] * packFactor,
			MaxAspect: 2, // clusters are soft regions
		})
	}
	for _, e := range nl.Nets {
		seen := map[int]bool{}
		var mods []int
		for _, m := range e.Modules {
			c := cl.Assign[m]
			if !seen[c] {
				seen[c] = true
				mods = append(mods, c)
			}
		}
		if len(mods)+len(e.Pads) < 2 {
			continue // intra-cluster net: handled at the refinement level
		}
		coarse.Nets = append(coarse.Nets, netlist.Net{
			Name: e.Name, Weight: e.Weight, Modules: mods, Pads: e.Pads,
		})
	}
	return coarse
}

// Options configure the hierarchical solve.
type Options struct {
	// TargetClusterSize sets k ≈ n/TargetClusterSize (default 8).
	TargetClusterSize int
	// MaxClusters caps k (default 25, keeping the top-level SDP cheap).
	MaxClusters int
	// Top configures the cluster-level SDP solve (zero value: enhanced
	// defaults with lazy constraints).
	Top core.Options
	// Refine configures the per-cluster SDP solves.
	Refine core.Options
	// Outline is the chip outline (required).
	Outline geom.Rect
	// Logf receives progress lines.
	Logf func(format string, args ...any)
	// Context, when non-nil, cancels the hierarchical solve: it is threaded
	// into every level's SDP solve and checked between cluster refinements.
	Context context.Context
	// Trace, when non-nil and enabled, receives one top-level "hier" stream
	// (start, one iter per refined cluster, exactly one final on every exit
	// path) plus the nested "core"/"ipm"/"admm" streams of every level's
	// SDP solves. Recursion levels do not open nested "hier" runs — the
	// solves of one hierarchical job are strictly sequential, so the
	// per-solver streams pair up without run ids.
	Trace trace.Recorder
}

func (o *Options) setDefaults() {
	if o.TargetClusterSize == 0 {
		o.TargetClusterSize = 8
	}
	if o.MaxClusters == 0 {
		o.MaxClusters = 25
	}
}

// Result is the hierarchical global floorplan.
type Result struct {
	Centers        []geom.Point
	Clustering     *Clustering
	ClusterCenters []geom.Point
	TopIterations  int
	RefineSolves   int
}

// Solve runs the two-level flow: cluster → top-level SDP → per-cluster SDP
// refinement with external connections projected as pseudo-pads.
func Solve(nl *netlist.Netlist, opt Options) (result *Result, err error) {
	// The "hier" engine stream brackets the whole hierarchy (recursive
	// levels run inside this span; see solve).
	tr := trace.Start(opt.Trace, "hier", func() []trace.Field {
		return []trace.Field{{Key: "n", Val: float64(nl.N())}}
	})
	// Deferred so the top-level solve failing, a refinement failing, and
	// cancellation all close the run with one final.
	defer func() {
		status := "ok"
		refines := 0
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			status = "cancelled"
		case err != nil:
			status = "failed"
		default:
			refines = result.RefineSolves
		}
		tr.End(refines, status, func() []trace.Field {
			return []trace.Field{{Key: "refines", Val: float64(refines)}}
		})
	}()
	return solve(nl, opt, tr)
}

// solve is the recursion body. Only the top level owns the "hier" trace
// run: recursion levels pass a nil tr and stay silent on the hier stream
// (their SDP solves still trace).
func solve(nl *netlist.Netlist, opt Options, tr *trace.Run) (*Result, error) {
	n := nl.N()
	if n == 0 {
		return nil, errors.New("cluster: empty netlist")
	}
	if opt.Outline.W() <= 0 || opt.Outline.H() <= 0 {
		return nil, errors.New("cluster: outline required")
	}
	opt.setDefaults()

	k := n / opt.TargetClusterSize
	if k < 2 {
		k = 2
	}
	if k > opt.MaxClusters {
		k = opt.MaxClusters
	}
	if k > n {
		k = n
	}
	cl, err := Cluster(nl, k)
	if err != nil {
		return nil, err
	}
	coarse := Coarsen(nl, cl, 1.1)

	topOpt := opt.Top
	if !topOpt.NonSquare && !topOpt.Manhattan && !topOpt.HyperEdge {
		topOpt = topOpt.WithAllEnhancements()
	}
	topOpt.LazyConstraints = true
	o := opt.Outline
	topOpt.Outline = &o
	topOpt.Logf = opt.Logf
	topOpt.Context = opt.Context
	topOpt.Trace = opt.Trace
	top, err := core.Solve(coarse, topOpt)
	if err != nil {
		return nil, fmt.Errorf("cluster: top-level solve: %w", err)
	}

	res := &Result{
		Centers:        make([]geom.Point, n),
		Clustering:     cl,
		ClusterCenters: top.Centers,
		TopIterations:  top.Iterations,
	}

	members := cl.Members()
	for c, ms := range members {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("cluster: cancelled before refining cluster %d: %w", c, err)
			}
		}
		if len(ms) == 0 {
			continue
		}
		if len(ms) == 1 {
			res.Centers[ms[0]] = top.Centers[c]
			continue
		}
		sub, region := buildSubproblem(nl, cl, c, ms, top.Centers, opt.Outline)
		// Multilevel: clusters far above the target size are themselves
		// solved hierarchically (a deeper recursion level), which keeps
		// every SDP at O(TargetClusterSize) modules regardless of n.
		if len(ms) > 3*opt.TargetClusterSize {
			subOpt := opt
			subOpt.Outline = region
			subRes, err := solve(sub, subOpt, nil)
			if err != nil {
				return nil, fmt.Errorf("cluster: recursive refine of cluster %d: %w", c, err)
			}
			res.RefineSolves += 1 + subRes.RefineSolves
			for li, m := range ms {
				res.Centers[m] = subRes.Centers[li]
			}
			recordRefine(tr, c, len(ms), res.RefineSolves)
			continue
		}
		refOpt := opt.Refine
		if !refOpt.NonSquare && !refOpt.Manhattan {
			refOpt.NonSquare = true
			refOpt.Manhattan = true
		}
		if refOpt.MaxIter == 0 {
			refOpt.MaxIter = 10
		}
		if refOpt.AlphaMaxDoublings == 0 {
			refOpt.AlphaMaxDoublings = 6
		}
		refOpt.Outline = &region
		refOpt.Context = opt.Context
		refOpt.Trace = opt.Trace
		subRes, err := core.Solve(sub, refOpt)
		if err != nil {
			return nil, fmt.Errorf("cluster: refining cluster %d: %w", c, err)
		}
		res.RefineSolves++
		for li, m := range ms {
			res.Centers[m] = subRes.Centers[li]
		}
		recordRefine(tr, c, len(ms), res.RefineSolves)
	}
	return res, nil
}

// recordRefine emits the per-cluster "hier" iter event on tr.
func recordRefine(tr *trace.Run, cluster, members, refines int) {
	tr.Iter(cluster, func() []trace.Field {
		return []trace.Field{
			{Key: "members", Val: float64(members)},
			{Key: "refines", Val: float64(refines)},
		}
	})
}

// buildSubproblem extracts cluster c's members as a standalone netlist whose
// external pins (modules of other clusters, original pads) become fixed
// pseudo-pads at their current global locations, and computes the cluster's
// square region around its top-level center.
func buildSubproblem(nl *netlist.Netlist, cl *Clustering, c int, ms []int,
	clusterCenters []geom.Point, outline geom.Rect) (*netlist.Netlist, geom.Rect) {

	local := map[int]int{} // global module index → local index
	sub := &netlist.Netlist{}
	area := 0.0
	for li, m := range ms {
		local[m] = li
		sub.Modules = append(sub.Modules, nl.Modules[m])
		area += nl.Modules[m].MinArea
	}
	// Region: square of the cluster's area (plus slack) centered on the
	// top-level position, clamped inside the chip outline.
	side := math.Sqrt(area * 1.25)
	cc := clusterCenters[c]
	region := geom.Rect{
		MinX: cc.X - side/2, MinY: cc.Y - side/2,
		MaxX: cc.X + side/2, MaxY: cc.Y + side/2,
	}
	region = clampRect(region, outline)

	padIdx := map[string]int{}
	addPad := func(name string, pos geom.Point) int {
		if i, ok := padIdx[name]; ok {
			return i
		}
		i := len(sub.Pads)
		padIdx[name] = i
		sub.Pads = append(sub.Pads, netlist.Pad{Name: name, Pos: pos})
		return i
	}
	for _, e := range nl.Nets {
		var mods []int
		var pads []int
		touches := false
		for _, m := range e.Modules {
			if li, ok := local[m]; ok {
				mods = append(mods, li)
				touches = true
			}
		}
		if !touches {
			continue
		}
		for _, m := range e.Modules {
			if _, ok := local[m]; ok {
				continue
			}
			// External module: pseudo-pad at its cluster's center.
			oc := cl.Assign[m]
			pads = append(pads, addPad(fmt.Sprintf("x-m%d", m), clusterCenters[oc]))
		}
		for _, p := range e.Pads {
			pads = append(pads, addPad(fmt.Sprintf("x-p%d", p), nl.Pads[p].Pos))
		}
		if len(mods)+len(pads) < 2 {
			continue
		}
		sub.Nets = append(sub.Nets, netlist.Net{
			Name: e.Name, Weight: e.Weight, Modules: mods, Pads: dedupInts(pads),
		})
	}
	// A member with no nets still needs anchoring: tie it to the region
	// center so the SDP stays bounded.
	used := make([]bool, len(ms))
	for _, e := range sub.Nets {
		for _, m := range e.Modules {
			used[m] = true
		}
	}
	for li, u := range used {
		if !u {
			p := addPad("anchor", region.Center())
			sub.Nets = append(sub.Nets, netlist.Net{
				Name: fmt.Sprintf("anchor%d", li), Weight: 0.1, Modules: []int{li}, Pads: []int{p},
			})
		}
	}
	return sub, region
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func clampRect(r, bound geom.Rect) geom.Rect {
	w, h := r.W(), r.H()
	if w > bound.W() {
		w = bound.W()
	}
	if h > bound.H() {
		h = bound.H()
	}
	cx := math.Min(math.Max(r.Center().X, bound.MinX+w/2), bound.MaxX-w/2)
	cy := math.Min(math.Max(r.Center().Y, bound.MinY+h/2), bound.MaxY-h/2)
	return geom.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2}
}
