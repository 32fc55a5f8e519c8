package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"statsize"
	"statsize/internal/circuitgen"
	"statsize/internal/ssta"
)

// sizingPlan is how much work one size-* run does. Iteration cost
// varies a lot from circuit to circuit (the pruning collapse comes at a
// different iteration on each), so a run sizes a suite of seeded
// circuits, one optimizer run each, and its metrics pool the suite. The
// suite's size follows from --seconds, never from how fast this host
// is, so every run of a seed sees the same inputs.
type sizingPlan struct {
	circuits   int // c1908-shaped circuits in the suite
	accelCap   int // size-accel: iteration cap (convergence may stop it earlier)
	bruteIters int // size-brute: fixed iteration count
	setupReps  int // set-ups timed; setup_s is their median
	warmup     time.Duration
}

// circuitsPerSecond sizes the suite: one circuit costs about 0.2 s with
// either optimizer under its plan on a 2-vCPU x86 host.
const circuitsPerSecond = 5

func (c config) sizingPlan() sizingPlan {
	if c.short {
		return sizingPlan{circuits: 1, accelCap: 3, bruteIters: 1, setupReps: 1}
	}
	n := max(2, int(c.seconds*circuitsPerSecond+0.5))
	return sizingPlan{circuits: n, accelCap: 6, bruteIters: 1, setupReps: 5, warmup: 3 * time.Second}
}

// suiteSpecs derives the suite's circuits from the workload seed:
// circuitgen's ISCAS85 c1908 spec with Seed replaced.
func suiteSpecs(seed int64, n int) ([]circuitgen.Spec, error) {
	base, ok := circuitgen.ByName("c1908")
	if !ok {
		return nil, fmt.Errorf("circuitgen has no c1908 spec")
	}
	out := make([]circuitgen.Spec, n)
	for i := range out {
		out[i] = base
		out[i].Seed = seed*1000 + int64(i)
	}
	return out, nil
}

// sizedCircuit is one circuit's optimizer run, kept for the checks.
type sizedCircuit struct {
	spec   circuitgen.Spec
	design *statsize.Design // the unsized input
	dt     float64          // the session's analysis grid
	res    *statsize.Result
	stats  statsize.SessionStats
}

func runSizeAccel(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	return runSizing(ctx, c, tr, "accelerated")
}

func runSizeBrute(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	return runSizing(ctx, c, tr, "brute-force")
}

func runSizing(ctx context.Context, c config, tr *tracer, optimizer string) (*outcome, error) {
	plan := c.sizingPlan()
	iters := plan.accelCap
	if optimizer == "brute-force" {
		iters = plan.bruteIters
	}
	eng, err := statsize.New()
	if err != nil {
		return nil, err
	}
	specs, err := suiteSpecs(c.seed, plan.circuits)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.inputs = map[string]any{
		"circuit": "c1908", "circuits": plan.circuits, "gates": specs[0].Gates(),
		"edges": specs[0].Edges, "depth": specs[0].Depth, "bins": eng.Bins(),
		"optimizer": optimizer, "max_iterations": iters, "parallelism": eng.Parallelism(),
		"seeds": fmt.Sprintf("%d..%d", specs[0].Seed, specs[len(specs)-1].Seed),
	}

	// Set-up: generate and open the whole suite, several times. The last
	// set-up's sessions stay open through the timed phase, as a user's
	// would, so the heap holds the whole suite while it is sized.
	var (
		setups   []float64
		designs  []*statsize.Design
		sessions []*statsize.Session
	)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	for rep := 0; rep < plan.setupReps; rep++ {
		for _, s := range sessions {
			s.Close()
		}
		op := tr.newOp()
		root := tr.begin("bench.setup", 0, op)
		t0 := time.Now()
		var err error
		designs, sessions, err = openSuite(ctx, eng, specs, tr, root, op)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_mib"] = liveHeapMiB()

	if err := warmUp(ctx, eng, specs[0], optimizer, iters, plan.warmup); err != nil {
		return nil, err
	}

	// Timed phase: one optimizer run per circuit of the suite, each on a
	// session fresh from set-up.
	var (
		iterMS                      []float64
		walls                       []float64
		considered, pruned, visited int
		recorded, unrecorded        time.Duration
		allocBytes                  uint64
		cacheHits, cacheMisses      uint64
		sized                       = make([]sizedCircuit, len(specs))
		gc0                         = readMem(tr != nil)
	)
	for i, s := range sessions {
		sp, d := specs[i], designs[i]
		dt, err := s.DT()
		if err != nil {
			return nil, err
		}
		op := tr.newOp()
		var stamps []time.Time
		onIter := statsize.OnIteration(func(statsize.IterRecord) { stamps = append(stamps, time.Now()) })
		h0, m0, _, _ := d.DelayCacheStats()
		mem0 := readMem(tr != nil)
		root := tr.begin("core.OptimizeSession", 0, op)
		t0 := time.Now()
		res, err := eng.OptimizeSession(ctx, s, optimizer, statsize.MaxIterations(iters), onIter)
		wall := time.Since(t0)
		tr.end(root)
		out.attempted++
		if err != nil {
			return nil, fmt.Errorf("%s on %s seed %d: %w", optimizer, sp.Name, sp.Seed, err)
		}
		mem1 := readMem(tr != nil)
		h1, m1, _, _ := d.DelayCacheStats()
		cacheHits += h1 - h0
		cacheMisses += m1 - m0
		allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		walls = append(walls, wall.Seconds())
		var sumElapsed time.Duration
		for j, rec := range res.Records {
			tr.record("core.iteration", root, op, stamps[j].Add(-rec.Elapsed), stamps[j])
			iterMS = append(iterMS, ms(rec.Elapsed))
			considered += rec.CandidatesConsidered
			pruned += rec.CandidatesPruned
			visited += rec.NodesVisited
			sumElapsed += rec.Elapsed
		}
		recorded += sumElapsed
		unrecorded += wall - sumElapsed
		st, err := s.Stats()
		if err != nil {
			return nil, err
		}
		sized[i] = sizedCircuit{spec: sp, design: d, dt: dt, res: res, stats: st}
	}
	gc1 := readMem(tr != nil)

	runs := float64(len(walls))
	out.e2e["op_ms_p50"] = median(iterMS)
	out.e2e["items_per_s"] = float64(considered) / sum(walls)

	var impr []float64
	for _, f := range sized {
		impr = append(impr, f.res.Improvement())
	}
	out.named("optimize_s", "s", sum(walls)/runs)
	out.named("iter_ms_p50", "ms", median(iterMS))
	out.named("iter_ms_p90", "ms", quantile(iterMS, 0.9))
	out.named("p99_improvement_pct", "%", sum(impr)/float64(len(impr)))
	out.named("iterations", "count", float64(len(iterMS))/runs)
	out.named("visits_per_iter", "count", float64(visited)/float64(len(iterMS)))
	out.named("prune_rate", "ratio", ratio(float64(pruned), float64(considered)))

	// Checks run after the timed phase and are not timed.
	if optimizer == "accelerated" {
		for _, f := range sized {
			out.check(fmt.Sprintf("seed %d: objectives never increase", f.spec.Seed), checkMonotone(f.res.InitialObjective, f.res.Records))
			op := tr.newOp()
			id := tr.begin("ssta.Analyze", 0, op)
			a, err := ssta.Analyze(ctx, f.res.Design, f.dt)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			out.check(fmt.Sprintf("seed %d: final objective equals a fresh SSTA pass", f.spec.Seed), checkSameFloat(f.res.FinalObjective, eng.Objective().Eval(a.SinkDist())))
		}
	} else {
		for _, f := range sized {
			op := tr.newOp()
			id := tr.begin("core.Optimize", 0, op)
			acc, err := eng.Optimize(ctx, f.design, "accelerated", statsize.MaxIterations(iters))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			out.check(fmt.Sprintf("seed %d: accelerated picks the brute-force gates", f.spec.Seed), checkSamePicks(f.res.Records, acc.Records))
		}
	}

	if tr != nil {
		var firstMS, resizeFrac []float64
		for _, f := range sized {
			if len(f.res.Records) > 0 {
				firstMS = append(firstMS, ms(f.res.Records[0].Elapsed))
			}
			resizeFrac = append(resizeFrac, ratio(float64(f.stats.NodesRecomputed), float64(f.stats.Resizes*f.stats.TotalNodes)))
		}
		resizeMS, err := replayResizes(ctx, eng, sized, tr)
		if err != nil {
			return nil, err
		}
		n := float64(len(iterMS))
		out.layer["core.iters"] = n / runs
		out.layer["core.visits_per_iter"] = float64(visited) / n
		out.layer["core.prune_rate"] = ratio(float64(pruned), float64(considered))
		out.layer["core.us_per_visit"] = ratio(float64(recorded.Microseconds()), float64(visited))
		out.layer["core.first_iter_ms"] = median(firstMS)
		out.layer["core.unrecorded_ms"] = ms(unrecorded) / runs
		out.layer["core.alloc_mib_per_iter"] = float64(allocBytes) / (1 << 20) / n
		out.layer["design.delay_cache_hit_ratio"] = ratio(float64(cacheHits), float64(cacheHits+cacheMisses))
		out.layer["design.delay_cache_entries"] = float64(cacheMisses) / runs
		out.layer["session.resize_nodes_frac"] = median(resizeFrac)
		out.layer["session.resize_ms_p50"] = median(resizeMS)
		out.layer["circuitgen.generate_ms"] = median(durations(tr.spans, "circuitgen.Generate"))
		out.layer["session.open_ms"] = median(durations(tr.spans, "session.Open"))
		out.gcDelta(gc0, gc1)
	}
	return out, nil
}

// warmUp sizes a circuit outside the suite, untimed, until d has passed,
// so the timed phase starts with the heap grown and the process past its
// first-seconds slowness.
func warmUp(ctx context.Context, eng *statsize.Engine, sp circuitgen.Spec, optimizer string, iters int, d time.Duration) error {
	sp.Seed = -sp.Seed - 1
	dsn, err := eng.GenerateCircuit(sp)
	if err != nil {
		return fmt.Errorf("circuitgen %s seed %d: %w", sp.Name, sp.Seed, err)
	}
	for start := time.Now(); time.Since(start) < d; {
		if _, err := eng.Optimize(ctx, dsn, optimizer, statsize.MaxIterations(iters)); err != nil {
			return err
		}
	}
	return nil
}

// openSuite generates every circuit of the suite and opens a session on
// each, the set-up a sizing user pays before the first iteration. On
// error it returns the sessions opened so far, for the caller to close.
func openSuite(ctx context.Context, eng *statsize.Engine, specs []circuitgen.Spec, tr *tracer, parent, op int64) ([]*statsize.Design, []*statsize.Session, error) {
	var designs []*statsize.Design
	var sessions []*statsize.Session
	for _, sp := range specs {
		id := tr.begin("circuitgen.Generate", parent, op)
		d, err := eng.GenerateCircuit(sp)
		tr.end(id)
		if err != nil {
			return nil, sessions, fmt.Errorf("circuitgen %s seed %d: %w", sp.Name, sp.Seed, err)
		}
		id = tr.begin("session.Open", parent, op)
		s, err := eng.Open(ctx, d)
		tr.end(id)
		if err != nil {
			return nil, sessions, err
		}
		designs = append(designs, d)
		sessions = append(sessions, s)
	}
	return designs, sessions, nil
}

// replayResizes commits, on a fresh session per circuit, each gate the
// optimizer sized at its final width, timing every Session.Resize.
func replayResizes(ctx context.Context, eng *statsize.Engine, sized []sizedCircuit, tr *tracer) ([]float64, error) {
	var out []float64
	for _, f := range sized {
		s, err := eng.Open(ctx, f.design)
		if err != nil {
			return nil, err
		}
		op := tr.newOp()
		for _, rec := range f.res.Records {
			for _, g := range rec.Gates {
				id := tr.begin("session.Resize", 0, op)
				t0 := time.Now()
				_, err := s.Resize(ctx, g, f.res.Design.Width(g))
				out = append(out, ms(time.Since(t0)))
				tr.end(id)
				if err != nil {
					s.Close()
					return nil, err
				}
			}
		}
		s.Close()
	}
	return out, nil
}

// readMem reads the runtime's memory statistics when on is set; the
// read stops the world, so untimed callers pass false.
func readMem(on bool) runtime.MemStats {
	var m runtime.MemStats
	if on {
		runtime.ReadMemStats(&m)
	}
	return m
}

// liveHeapMiB collects garbage and reports the live heap. The second
// collection empties the sync.Pool victim caches the first one fills.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
