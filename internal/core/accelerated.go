package core

import (
	"container/heap"
	"context"

	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// Accelerated runs the paper's pruning algorithm (Figures 6, 7 and 9).
//
// For every candidate gate a perturbation front is initialized: the
// delay distributions of the gate and of its fanin drivers are perturbed
// for one width step, and the perturbed arrival CDFs are propagated from
// the lowest affected level up to the gate's own level (Initialize,
// Figure 7). Each front carries the bound Smx = Δmx/Δw, where Δmx is the
// largest perturbation gap across the front's live nodes; by Theorems
// 1–4 this bound is an upper bound on the candidate's true sensitivity
// and can only shrink as the front advances.
//
// The inner loop (Figure 6, steps 6–21) repeatedly advances the front
// with the largest bound by one level. When a front reaches the sink,
// its exact sensitivity updates Max_S; any front whose bound falls below
// Max_S is discarded without further propagation. The surviving argmax
// is identical to the brute-force result. The front mechanics
// (Figures 7 and 9) are ssta.Front's; this file keeps Figure 6.
func Accelerated(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return statisticalDescent(ctx, s, cfg, "accelerated", acceleratedIteration)
}

// frontHeap is a max-heap over the bound (ties: lower gate ID first).
type frontHeap []*ssta.Front

func (h frontHeap) Len() int { return len(h) }
func (h frontHeap) Less(i, j int) bool {
	if bi, bj := h[i].Bound(), h[j].Bound(); bi != bj {
		return bi > bj
	}
	return h[i].Gate() < h[j].Gate()
}
func (h frontHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frontHeap) Push(x any)   { *h = append(*h, x.(*ssta.Front)) }
func (h *frontHeap) Pop() any {
	old := *h
	f := old[len(old)-1]
	*h = old[:len(old)-1]
	return f
}

// acceleratedIteration is the inner loop of Figure 6 (steps 3–21): find
// the most sensitive gates without propagating every candidate to the
// sink. The warm-start hint (the previous iteration's winner) is
// propagated to the sink before anything else, so Max_S starts high and
// prunes from the first heap pop; this only reorders evaluation and
// cannot change the result.
func acceleratedIteration(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, hint netlist.GateID, ws []*ssta.Scratch) (innerResult, error) {
	d := a.D
	deltaW := d.Lib.DeltaW
	var ir innerResult

	// Front initialization is independent per candidate — each front
	// retains only persisted distributions and only reads the base
	// analysis — so the fronts build concurrently, each on its worker's
	// scratch. The merge below runs in candidate order, never completion
	// order: the heap receives the same fronts in the same sequence as
	// the serial loop, so trajectories stay bit-identical at any
	// parallelism.
	cands := candidateGates(d)
	fronts := make([]*ssta.Front, len(cands))
	err := par.RunIndexed(ctx, cfg.Parallelism, len(cands), func(w, i int) error {
		f, err := a.NewFront(cands[i], d.Width(cands[i])+deltaW, ws[w])
		if err != nil {
			return err
		}
		fronts[i] = f
		return nil
	})
	if err != nil {
		// par.Run already prefers the lowest-index evaluation error over
		// a bare cancellation, matching the serial loop's reporting.
		return ir, err
	}
	// Every front advances on the spare run-lifetime scratch.
	loop := ws[len(ws)-1]
	h := make(frontHeap, 0, len(cands))
	var hintFront *ssta.Front
	for i, f := range fronts {
		ir.considered++
		if cands[i] == hint {
			hintFront = f
			continue
		}
		heap.Push(&h, f)
	}

	top := newTopK(cfg.MultiSize)
	finish := func(f *ssta.Front) {
		sens := 0.0
		if f.Sink() != nil {
			sens = (base - cfg.Objective.Eval(f.Sink())) / deltaW
		} else {
			// The perturbation died out before the sink: the sensitivity
			// is exactly zero and the front stopped early — count it with
			// the pruning wins.
			ir.pruned++
		}
		top.offer(pick{gate: f.Gate(), sens: sens})
	}

	if hintFront != nil {
		for !hintFront.Done() {
			// The hint front runs to the sink outside the heap's pop loop
			// and its pruning checks, so cancellation must be observed
			// here: one level of one front is the latency bound.
			if err := ctx.Err(); err != nil {
				return ir, err
			}
			hintFront.Advance(loop)
		}
		finish(hintFront)
	}

	pops := 0
	for h.Len() > 0 {
		if pops%64 == 0 {
			if err := ctx.Err(); err != nil {
				return ir, err
			}
		}
		pops++
		f := heap.Pop(&h).(*ssta.Front)
		// Pruning (Figure 6, step 20): the heap maximum's front bound
		// Smx = Δmx/Δw dominates every remaining candidate's true
		// sensitivity, so once it falls below the MultiSize-th exact
		// sensitivity nothing left can win.
		if f.Bound()/deltaW < top.kthSens()-pruneSlack {
			ir.pruned += 1 + h.Len()
			break
		}
		if f.Done() {
			finish(f)
			continue
		}
		if cfg.HeuristicLevels > 0 && f.Levels() >= cfg.HeuristicLevels {
			// Future-work heuristic: accept the bound as the sensitivity
			// estimate without reaching the sink.
			top.offer(pick{gate: f.Gate(), sens: f.Bound() / deltaW})
			ir.pruned++
			continue
		}
		f.Advance(loop)
		if f.Done() {
			finish(f)
			continue
		}
		heap.Push(&h, f)
	}
	for _, f := range fronts {
		ir.nodesVisited += f.Visits()
	}
	ir.picks = top.sorted()
	if len(ir.picks) > 0 {
		ir.bestSens = ir.picks[0].sens
	}
	return ir, nil
}
