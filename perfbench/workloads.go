package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sdpfloor"
	"sdpfloor/internal/jobstore"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/service"
)

// bench is one set-up workload.
type bench interface {
	// pass runs the workload's input list once through the public API and
	// returns one checked op per operation, in list order.
	pass(ctx context.Context) ([]op, error)
	// layers runs the input list of the latest pass again, through the
	// layers' own functions with rec, returning ops aligned with that pass.
	layers(ctx context.Context, rec *recorder) ([]op, error)
	// layerValues adds the workload's own per-layer values to v.
	layerValues(v map[string]float64)
	close() error
}

// workload describes how to set one up.
type workload struct {
	// setupReps is how many set-ups a timed run samples before the first
	// pass and after each pass.
	setupReps int
	// passSeconds is the nominal length of one pass on a 2-vCPU host; a
	// timed run makes -seconds/passSeconds passes.
	passSeconds float64
	// repeatable marks workloads whose every pass runs the same inputs, so
	// each pass must reproduce the first one's HPWL bit for bit.
	repeatable bool
	setup      func(e env) (bench, error)
}

// Input-list sizes. n10Members n10-class instances at two aspects make one
// place-n10 pass of about seven seconds on a 2-vCPU host; ecoChains chains
// of ecoLinks resolves make one eco-n10 pass of about six; a service round
// of svcClients × svcJobsPerClient jobs, each of the 12 designs solved
// twice plus one cache hit per three solves, takes about seven.
const (
	n10Members       = 6
	ecoChains        = 6
	ecoLinks         = 4
	ecoOpsPerDelta   = 4
	svcClients       = 2
	svcJobsPerClient = 16
	svcRepeatEvery   = 4 // every fourth job of a client repeats its previous spec
)

var workloads = map[string]workload{
	"place-n10":   {setupReps: 10, passSeconds: 7, repeatable: true, setup: setupPlaceN10},
	"place-n30":   {setupReps: 10, passSeconds: 20, repeatable: true, setup: setupPlaceN30},
	"eco-n10":     {setupReps: 2, passSeconds: 6, repeatable: true, setup: setupECO},
	"service-n10": {setupReps: 10, passSeconds: 7, repeatable: false, setup: setupService},
}

// placeBench places a fixed list of designs serially, one Place each.
type placeBench struct {
	designs []design
	gen     time.Duration
}

func setupPlaceN10(e env) (bench, error) {
	b := &placeBench{}
	family, err := n10Family(&b.gen)
	if err != nil {
		return nil, err
	}
	for _, i := range order(len(family), e.seed) {
		b.designs = append(b.designs, family[i])
	}
	return b, nil
}

func setupPlaceN30(e env) (bench, error) {
	b := &placeBench{}
	d, err := generate("n30", 0, 1, &b.gen)
	if err != nil {
		return nil, err
	}
	b.designs = []design{d}
	return b, nil
}

func (b *placeBench) pass(ctx context.Context) ([]op, error) {
	ops := make([]op, 0, len(b.designs))
	for _, d := range b.designs {
		ops = append(ops, placeOp(ctx, d))
	}
	return ops, nil
}

func (b *placeBench) layers(ctx context.Context, rec *recorder) ([]op, error) {
	ops := make([]op, 0, len(b.designs))
	for _, d := range b.designs {
		ops = append(ops, placeLayers(ctx, d, nil, 0, rec))
	}
	return ops, nil
}

func (b *placeBench) layerValues(v map[string]float64) { v["gsrc.generate_s"] = b.gen.Seconds() }

func (b *placeBench) close() error { return nil }

// ecoBench re-solves chains of ECO deltas, each link warm from the
// previous link's floorplan and every chain starting from the same
// cold-placed parent. The chains are fixed; the workload seed orders them.
type ecoBench struct {
	parent   design
	parentFP *sdpfloor.Floorplan
	chains   [][]sdpfloor.Delta
	gen      time.Duration
}

func setupECO(e env) (bench, error) {
	b := &ecoBench{}
	var err error
	if b.parent, err = generate("n10", 0, 1, &b.gen); err != nil {
		return nil, err
	}
	parent := placeOp(e.ctx, b.parent)
	if parent.fail != "" {
		return nil, fmt.Errorf("cold parent place: %s", parent.fail)
	}
	b.parentFP = parent.fp
	chains := make([][]sdpfloor.Delta, ecoChains)
	for c := range chains {
		if chains[c], err = ecoChain(b.parent, int64(101+100*c)); err != nil {
			return nil, fmt.Errorf("chain %d: %w", c, err)
		}
	}
	for _, c := range order(ecoChains, e.seed) {
		b.chains = append(b.chains, chains[c])
	}
	return b, nil
}

// ecoChain draws ecoLinks deltas from consecutive GenerateDelta seeds
// starting at first, each against the netlist the previous one produced.
// An edit that would leave less whitespace in the fixed outline than the
// parent design has is not a valid ECO for it (it can overfill the outline
// outright), so the chain skips that seed.
func ecoChain(parent design, first int64) ([]sdpfloor.Delta, error) {
	capacity := parent.outline.W() * parent.outline.H() / (1 + whitespace)
	var chain []sdpfloor.Delta
	nl := parent.nl
	for s := first; len(chain) < ecoLinks; s++ {
		if s == first+100 {
			return nil, fmt.Errorf("no valid delta among seeds %d..%d", first, s-1)
		}
		d := sdpfloor.GenerateDelta(nl, s, ecoOpsPerDelta)
		mutated, err := d.Apply(nl)
		if err != nil {
			return nil, fmt.Errorf("delta seed %d: %w", s, err)
		}
		if mutated.TotalArea() > capacity {
			continue
		}
		chain = append(chain, d)
		nl = mutated
	}
	return chain, nil
}

func (b *ecoBench) pass(ctx context.Context) ([]op, error) {
	cfg := sdpfloor.Config{Outline: b.parent.outline}
	var ops []op
	for _, chain := range b.chains {
		nl, prev := b.parent.nl, b.parentFP
		for _, d := range chain {
			t0 := time.Now()
			fp, mutated, err := sdpfloor.ResolveContext(ctx, nl, prev, d, cfg)
			o := finishOp(time.Since(t0), design{mutated, b.parent.outline}, fp, err)
			ops = append(ops, o)
			if o.fail != "" {
				break // the rest of the chain has no parent
			}
			nl, prev = mutated, fp
		}
	}
	return ops, nil
}

// layers follows sdpfloor.ResolveContext: apply the delta, seed the prior
// from the previous link's global centers, and place warm.
func (b *ecoBench) layers(ctx context.Context, rec *recorder) ([]op, error) {
	var ops []op
	for _, chain := range b.chains {
		nl, prev := b.parent.nl, b.parentFP
		for _, d := range chain {
			t0 := time.Now()
			var mutated *sdpfloor.Netlist
			var err error
			rec.call("netlist.delta_apply", func() { mutated, err = d.Apply(nl) })
			if err != nil {
				return nil, fmt.Errorf("apply delta: %w", err)
			}
			pts := prev.Global
			if len(pts) != nl.N() {
				pts = prev.Centers
			}
			named := make([]sdpfloor.NamedPoint, nl.N())
			for i, m := range nl.Modules {
				named[i] = sdpfloor.NamedPoint{Name: m.Name, X: pts[i].X, Y: pts[i].Y}
			}
			seeds, _, _ := netlist.SeedFromPrior(mutated, named, b.parent.outline.Center())
			o := placeLayers(ctx, design{mutated, b.parent.outline}, &sdpfloor.Prior{Centers: seeds}, 0, rec)
			o.wall = time.Since(t0)
			ops = append(ops, o)
			if o.fail != "" {
				break
			}
			nl, prev = mutated, o.fp
		}
	}
	return ops, nil
}

func (b *ecoBench) layerValues(v map[string]float64) { v["gsrc.generate_s"] = b.gen.Seconds() }

func (b *ecoBench) close() error { return nil }

// svcBench drives an in-process service.Server with a durable journal
// through a closed loop of svcClients clients: each submits its next job
// only after the previous one finished. Every pass is one round of fresh
// job specs, since a repeated spec is served from the cache.
type svcBench struct {
	seed    int64
	dir     string
	journal *jobstore.Journal
	srv     *service.Server
	family  []design
	gen     time.Duration

	round int
	jobs  []svcJob  // the round the latest pass ran
	stats []svcStat // every job of every pass
}

// svcJob is one job of a round: its design, its request seed, and whether
// it repeats the previous spec of the same client.
type svcJob struct {
	d      design
	seed   int64
	repeat bool
}

// svcStat is what the client saw of one job.
type svcStat struct {
	submit, queue, solve time.Duration
	fromCache, refused   bool
}

func setupService(e env) (bench, error) {
	b := &svcBench{seed: e.seed}
	var err error
	if b.family, err = n10Family(&b.gen); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(e.scratch, "perfbench-journal-"); err != nil {
		return nil, err
	}
	// floorpland's default durability: fsync at most every 100ms.
	j, replay, err := jobstore.Open(jobstore.Options{Dir: b.dir, Fsync: jobstore.FsyncInterval})
	if err != nil {
		os.RemoveAll(b.dir)
		return nil, fmt.Errorf("open journal: %w", err)
	}
	b.journal = j
	b.srv = service.New(service.Config{Workers: svcClients, Journal: j, Replay: replay})
	return b, nil
}

// nextRound lays out the job list of a pass. Distinct jobs cycle
// through the n10 family in an order drawn from the seed and the round,
// each with its own request seed: the SDP method does not use the seed,
// so the solve is the same, but the seed is part of the cache key, so
// every distinct job is a cache miss. A repeat resubmits the client's
// previous request and is a cache hit.
func (b *svcBench) nextRound() {
	b.jobs = b.jobs[:0]
	perm := order(len(b.family), b.seed*7919+int64(b.round))
	distinct := 0
	for c := 0; c < svcClients; c++ {
		for k := 0; k < svcJobsPerClient; k++ {
			if k%svcRepeatEvery == svcRepeatEvery-1 {
				prev := b.jobs[len(b.jobs)-1]
				prev.repeat = true
				b.jobs = append(b.jobs, prev)
				continue
			}
			b.jobs = append(b.jobs, svcJob{
				d:    b.family[perm[distinct%len(perm)]],
				seed: b.seed<<20 | int64(b.round)<<8 | int64(distinct),
			})
			distinct++
		}
	}
	b.round++
}

func (b *svcBench) pass(ctx context.Context) ([]op, error) {
	b.nextRound()
	ops := make([]op, len(b.jobs))
	stats := make([]svcStat, len(b.jobs))
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * svcJobsPerClient; i < (c+1)*svcJobsPerClient; i++ {
				ops[i], stats[i] = b.job(ctx, b.jobs[i])
			}
		}(c)
	}
	wg.Wait()
	b.stats = append(b.stats, stats...)
	return ops, nil
}

// job submits one design, waits for it, and checks the result.
func (b *svcBench) job(ctx context.Context, j svcJob) (op, svcStat) {
	var st svcStat
	d := j.d
	t0 := time.Now()
	status, err := b.srv.Submit(&service.Request{Netlist: d.nl, Outline: d.outline, Seed: j.seed})
	st.submit = time.Since(t0)
	if err != nil {
		st.refused = errors.Is(err, service.ErrQueueFull)
		return op{wall: time.Since(t0), fail: "submit refused: " + err.Error()}, st
	}
	if status, err = b.srv.Wait(ctx, status.ID); err != nil {
		return op{wall: time.Since(t0), fail: "wait: " + err.Error()}, st
	}
	o := op{wall: time.Since(t0)}
	res, status, err := b.srv.Result(status.ID)
	st.fromCache = status.FromCache
	o.cached = status.FromCache
	if status.Started != nil && status.Finished != nil {
		st.queue = status.Started.Sub(status.Submitted)
		st.solve = status.Finished.Sub(*status.Started)
		o.solve = st.solve
	}
	switch {
	case err != nil:
		o.fail = "result: " + err.Error()
	case status.State != service.StateDone || res == nil:
		o.fail = fmt.Sprintf("job %s ended %s: %s", status.ID, status.State, status.Error)
	default:
		o.hpwl = res.HPWL
		o.fail = checkServiceResult(d, res)
	}
	return o, st
}

// checkServiceResult maps the by-name rectangles of a service result back
// to module order and runs the independent check on them.
func checkServiceResult(d design, res *service.Result) string {
	index := make(map[string]int, d.nl.N())
	for i, m := range d.nl.Modules {
		index[m.Name] = i
	}
	rects := make([]sdpfloor.Rect, d.nl.N())
	seen := make([]bool, d.nl.N())
	for _, r := range res.Rects {
		i, ok := index[r.Name]
		if !ok || seen[i] {
			return fmt.Sprintf("result rectangle for unknown or repeated module %q", r.Name)
		}
		seen[i] = true
		rects[i] = sdpfloor.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	if len(res.Rects) != d.nl.N() {
		return fmt.Sprintf("%d rectangles for %d modules", len(res.Rects), d.nl.N())
	}
	return checkFloorplan(d.nl, d.outline, rects, res.HPWL, res.Feasible)
}

// layers solves the distinct jobs of the latest round through the layers,
// with the per-solve worker count the server hands its solves; a repeated
// job takes the HPWL of the solve it repeats.
func (b *svcBench) layers(ctx context.Context, rec *recorder) ([]op, error) {
	workers := max(1, runtime.GOMAXPROCS(0)/svcClients)
	ops := make([]op, len(b.jobs))
	for i, j := range b.jobs {
		if j.repeat {
			ops[i] = op{hpwl: ops[i-1].hpwl, fail: ops[i-1].fail}
			continue
		}
		ops[i] = placeLayers(ctx, j.d, nil, workers, rec)
	}
	return ops, nil
}

func (b *svcBench) layerValues(v map[string]float64) {
	v["gsrc.generate_s"] = b.gen.Seconds()
	var submit, queue, solve []float64
	hits, refused := 0, 0
	for _, s := range b.stats {
		submit = append(submit, s.submit.Seconds())
		switch {
		case s.refused:
			refused++
		case s.fromCache:
			hits++
		default:
			queue = append(queue, s.queue.Seconds())
			solve = append(solve, s.solve.Seconds())
		}
	}
	v["service.jobs"] = float64(len(b.stats))
	v["service.submit_s_p50"] = median(submit)
	v["service.queue_wait_s_p50"] = median(queue)
	v["service.solve_s_p50"] = median(solve)
	v["service.cache_hit_ratio"] = ratio(float64(hits), float64(len(b.stats)))
	v["service.rejected"] = float64(refused)
	js := b.journal.Stats()
	v["jobstore.records"] = float64(js.Records)
	v["jobstore.active_bytes"] = float64(js.ActiveBytes)
	v["jobstore.compactions"] = float64(js.Compactions)
}

// close drains the server, closes the journal and removes its directory.
func (b *svcBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Drain(ctx)
	if cerr := b.journal.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}
