package core

import (
	"context"
	"fmt"
	"time"

	"statsize/internal/dist"
	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// BruteForce runs exact statistical sizing as described in Section 3.1:
// every iteration evaluates every candidate gate's sensitivity with a
// complete SSTA propagation of its perturbation to the sink — the
// O(N·E)-per-iteration reference the accelerated algorithm is measured
// against in Table 2, and the ground truth its results must match
// exactly.
func BruteForce(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return statisticalDescent(ctx, s, cfg, "brute-force", bruteForceIteration)
}

// statisticalDescent is the outer coordinate-descent loop shared by the
// brute-force and accelerated sizers, driving a session: per iteration
// it finds the most sensitive gates via `inner` over the session's live
// analysis, then sizes them up through the session's incremental
// commit. The previous iteration's winner is passed down as a
// warm-start hint — the paper notes that identifying a high-sensitivity
// gate early lets it prune many inferior candidates, and the just-sized
// gate is usually still near the top. The hint only reorders evaluation;
// results are unchanged.
//
// The session is acquired exclusively for the whole run, so concurrent
// session calls block until it finishes. The run uses the analysis grid
// the session was opened at; cfg.Bins and cfg.DT are construction-time
// parameters (see OpenSession) and are ignored here.
//
// The context is checked between iterations and between candidate
// evaluations inside `inner`. On cancellation the Result built so far —
// every committed iteration, a consistent session state, the partial
// trace — is returned alongside an error wrapping context.Canceled (or
// DeadlineExceeded), so a canceled run is still a usable, smaller run.
func statisticalDescent(
	ctx context.Context,
	s *session.Session,
	cfg Config,
	method string,
	inner func(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, hint netlist.GateID, ws []*ssta.Scratch) (innerResult, error),
) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	// Per-worker scratch lives for the whole run, so every iteration's
	// candidate sweep reuses the same warm arenas and overlay slots:
	// one per evaluation worker plus one for the serial phase that
	// follows the parallel fan-out (the accelerated heap loop).
	ws := make([]*ssta.Scratch, cfg.Parallelism+1)
	for i := range ws {
		ws[i] = ssta.NewScratch()
	}
	tx, err := s.Acquire()
	if err != nil {
		return nil, err
	}
	defer tx.Release()
	a := tx.Analysis()
	d := tx.Design()
	res := &Result{
		Method:           method,
		InitialWidth:     d.TotalWidth(),
		InitialObjective: cfg.Objective.Eval(a.SinkDist()),
		Design:           d,
	}
	res.FinalObjective = res.InitialObjective

	partial := func(cause error) (*Result, error) {
		res.FinalWidth = d.TotalWidth()
		res.Elapsed = time.Since(start)
		return res, fmt.Errorf("core: %s optimization interrupted after %d iterations: %w",
			method, res.Iterations, cause)
	}

	hint := netlist.NoGate
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		if areaCapReached(cfg, res.InitialWidth, d.TotalWidth()) {
			break
		}
		iterStart := time.Now()
		base := cfg.Objective.Eval(a.SinkDist())
		ir, err := inner(ctx, a, cfg, base, hint, ws)
		if err != nil {
			if ctx.Err() != nil {
				return partial(ctx.Err())
			}
			return nil, err
		}
		if len(ir.picks) == 0 || ir.bestSens <= cfg.Tolerance {
			break
		}
		var sized []netlist.GateID
		for _, p := range ir.picks {
			if p.sens <= cfg.Tolerance {
				continue
			}
			if _, err := tx.Resize(ctx, p.gate, d.Width(p.gate)+d.Lib.DeltaW); err != nil {
				if ctx.Err() != nil {
					return partial(ctx.Err())
				}
				return nil, err
			}
			sized = append(sized, p.gate)
		}
		if len(sized) == 0 {
			break
		}
		if !cfg.DisableWarmStart {
			hint = sized[0]
		}
		after := cfg.Objective.Eval(a.SinkDist())
		rec := IterRecord{
			Iter:                 iter,
			Gates:                sized,
			Sensitivity:          ir.bestSens,
			Objective:            after,
			TotalWidth:           d.TotalWidth(),
			CandidatesConsidered: ir.considered,
			CandidatesPruned:     ir.pruned,
			NodesVisited:         ir.nodesVisited,
			Elapsed:              time.Since(iterStart),
		}
		res.Records = append(res.Records, rec)
		res.Iterations++
		res.FinalObjective = after
		if cfg.OnIteration != nil {
			cfg.OnIteration(rec)
		}
	}
	res.FinalWidth = d.TotalWidth()
	res.Elapsed = time.Since(start)
	return res, nil
}

// pick is one gate selected for sizing with its exact sensitivity.
type pick struct {
	gate netlist.GateID
	sens float64
}

// innerResult is what one inner-loop sensitivity search reports.
type innerResult struct {
	picks        []pick // best gates in descending sensitivity
	bestSens     float64
	considered   int
	pruned       int
	nodesVisited int
}

// bruteForceIteration computes every candidate's exact sensitivity by a
// full SSTA propagation of its perturbation (ssta.WhatIfFull, per
// Section 3.1) and returns the top MultiSize gates. Brute force
// evaluates everything anyway, so the hint is unused. The sweeps are
// independent — each candidate's pass owns its worker's scratch and
// only reads the base analysis — so they fan out across the configured
// worker pool; the top-k selection then merges in candidate order,
// never completion order, so the picks (including tie-breaks) are
// bit-identical to the serial sweep.
func bruteForceIteration(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, _ netlist.GateID, ws []*ssta.Scratch) (innerResult, error) {
	d := a.D
	var ir innerResult
	cands := candidateGates(d)
	type sweep struct {
		sink    *dist.Dist
		visited int
	}
	sweeps := make([]sweep, len(cands))
	// Each candidate's pass computes in its worker's scratch; only the
	// persisted sink distribution escapes.
	err := par.RunIndexed(ctx, cfg.Parallelism, len(cands), func(w, i int) error {
		gid := cands[i]
		sinkDist, visited, err := a.WhatIfFull(ctx, gid, d.Width(gid)+d.Lib.DeltaW, ws[w])
		if err != nil {
			return err
		}
		sweeps[i] = sweep{sink: sinkDist, visited: visited}
		return nil
	})
	if err != nil {
		// par.Run already prefers the lowest-index evaluation error over
		// a bare cancellation, matching the serial loop's reporting.
		return ir, err
	}
	// The user-supplied objective is evaluated here, in candidate order
	// on this goroutine — objectives carry no thread-safety requirement.
	top := newTopK(cfg.MultiSize)
	for i, s := range sweeps {
		ir.considered++
		ir.nodesVisited += s.visited
		top.offer(pick{gate: cands[i], sens: (base - cfg.Objective.Eval(s.sink)) / d.Lib.DeltaW})
	}
	ir.picks = top.sorted()
	if len(ir.picks) > 0 {
		ir.bestSens = ir.picks[0].sens
	}
	return ir, nil
}

// topK keeps the k best picks by (sensitivity desc, gate ID asc) — the
// deterministic tie-break every optimizer variant shares.
type topK struct {
	k     int
	items []pick
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) offer(p pick) {
	pos := len(t.items)
	for pos > 0 && better(p, t.items[pos-1]) {
		pos--
	}
	if pos >= t.k {
		return
	}
	t.items = append(t.items, pick{})
	copy(t.items[pos+1:], t.items[pos:])
	t.items[pos] = p
	if len(t.items) > t.k {
		t.items = t.items[:t.k]
	}
}

func (t *topK) sorted() []pick { return t.items }

// kthSens returns the k-th best sensitivity seen so far (the pruning
// threshold for MultiSize runs), or negative infinity while fewer than k
// candidates have finished.
func (t *topK) kthSens() float64 {
	if len(t.items) < t.k {
		return negInf
	}
	return t.items[len(t.items)-1].sens
}

const negInf = -1e308

func better(a, b pick) bool {
	if a.sens != b.sens {
		return a.sens > b.sens
	}
	return a.gate < b.gate
}
