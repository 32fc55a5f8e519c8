// Package ssta implements block-based statistical static timing analysis
// with discretized arrival-time distributions, following the bound
// computation of Agarwal, Blaauw, Zolotov & Vrudhula (DAC'03) that the
// paper builds on: arrival CDFs propagate through a single topological
// pass, convolving with pin-to-pin delay PDFs along edges and combining
// fanins with the independence maximum. Reconvergent correlations are
// ignored, which makes the computed sink CDF a conservative upper bound
// on the exact circuit-delay CDF; package montecarlo quantifies the gap
// (Figure 10 of the paper shows it is small, <1% at the 99th
// percentile).
//
// The analysis object also provides the two building blocks the
// accelerated optimizer needs: cached per-edge delay distributions, and
// arrival recomputation with overlays (perturbed delays and arrivals
// supplied by the caller without mutating the base analysis).
package ssta

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
	"statsize/internal/par"
)

// cancelCheckStride is how many units of work (node propagations in the
// serial incremental paths — ResizeCommit, WhatIf, ComputeRequired)
// pass between context checks: frequent enough for sub-millisecond
// cancellation latency, rare enough to stay invisible in profiles. The
// parallel full pass checks through par.Run instead. Package montecarlo
// keeps its own equivalent constant.
const cancelCheckStride = 64

// Analysis is a completed SSTA pass over a design at fixed grid
// resolution. Arrival distributions are indexed by graph node.
//
// Every distribution reachable through an Analysis (arrivals, edge
// delays, required times) is an immutable shared heap value — never
// arena scratch — so queries, snapshots and concurrent read-only
// evaluations (WhatIf) can hold onto them freely; see DESIGN.md,
// "Memory model".
type Analysis struct {
	D  *design.Design
	DT float64

	arrival []*dist.Dist
	edge    []*dist.Dist // cached delay dists; nil for source/sink arcs

	// Backward required-time state, computed on demand by
	// ComputeRequired and invalidated by every arrival mutation.
	required []*dist.Dist
	deadline *dist.Dist

	// scratch serves the serial mutating passes (ResizeCommit,
	// ComputeRequired). Those passes already require exclusive access
	// to the analysis, so one suffices; the read-only concurrent paths
	// (WhatIf) carry their own Scratch. Not part of Snapshot/Restore
	// state.
	scratch *Scratch
}

// Analyze runs a full statistical timing analysis on grid dt with one
// worker per logical CPU. The context is checked periodically inside
// the propagation loops; on cancellation the partial analysis is
// discarded and the context's error is returned wrapped.
func Analyze(ctx context.Context, d *design.Design, dt float64) (*Analysis, error) {
	return AnalyzeParallel(ctx, d, dt, 0)
}

// AnalyzeParallel is Analyze with an explicit worker bound (non-positive
// means one worker per logical CPU; 1 is the serial reference path).
//
// The pass parallelizes in two stages. Edge-delay distributions are
// independent of each other and fan out freely. The forward arrival
// pass is level-parallel: nodes on one topological level depend only on
// strictly lower levels (an edge always increases the level), so levels
// run in sequence while the nodes within a level fan out. Every node's
// arrival is a pure function of its fanins and results land in
// per-node slots, so the computed analysis is bit-identical for every
// worker count.
func AnalyzeParallel(ctx context.Context, d *design.Design, dt float64, workers int) (*Analysis, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("ssta: non-positive dt %v", dt)
	}
	g := d.E.G
	a := &Analysis{
		D:       d,
		DT:      dt,
		arrival: make([]*dist.Dist, g.NumNodes()),
		edge:    make([]*dist.Dist, g.NumEdges()),
		scratch: NewScratch(),
	}
	// One pool serves the edge builds and every level of the forward
	// pass: levels are numerous and individually small, so worker
	// startup is paid once, not per level.
	pool := par.NewPool(workers)
	defer pool.Close()
	err := pool.Run(ctx, g.NumEdges(), func(e int) error {
		dd, err := d.EdgeDelayDist(dt, graph.EdgeID(e))
		if err != nil {
			return err
		}
		a.edge[e] = dd
		return nil
	})
	if err != nil {
		return nil, wrapAnalyzeErr(err)
	}
	// One kernel arena and one persist keeper per pool worker: a node's
	// convolve/max intermediates live in its worker's arena and die at
	// the next node's Reset; the final trimmed arrival is compacted
	// into the worker's keeper (bulk heap slabs — O(1) amortized
	// allocations per node). Workers never share either, so the hot
	// path carries no synchronization. The keepers are dropped with
	// this stack frame; their slabs live on exactly as long as the
	// arrivals carved from them.
	arenas := make([]*dist.Arena, pool.NumWorkers())
	keepers := make([]*dist.Keeper, pool.NumWorkers())
	for i := range arenas {
		arenas[i] = dist.NewArena()
		keepers[i] = dist.NewKeeper()
	}
	a.arrival[g.Source()] = dist.Point(dt, 0)
	for _, level := range levelNodes(g) {
		nodes := level
		err := pool.RunIndexed(ctx, len(nodes), func(w, i int) error {
			ar := arenas[w]
			ar.Reset()
			arr, err := a.arrivalOrErr(nodes[i], ar)
			if err != nil {
				return err
			}
			a.arrival[nodes[i]] = keepers[w].Persist(arr)
			return nil
		})
		if err != nil {
			return nil, wrapAnalyzeErr(err)
		}
	}
	return a, nil
}

// wrapAnalyzeErr dresses a pure cancellation in the analysis-canceled
// wrapper while letting genuine evaluation errors (the zero-fanin
// diagnostic, a delay-model failure) pass through untouched — a real
// diagnostic must never be masked just because the context also died
// while the batch drained.
func wrapAnalyzeErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("ssta: analysis canceled: %w", err)
	}
	return err
}

// levelNodes buckets every node except the source by topological level,
// in ascending level order with topological order inside each bucket.
// Level boundaries are the synchronization points of the parallel
// forward pass.
func levelNodes(g *graph.Graph) [][]graph.NodeID {
	out := make([][]graph.NodeID, g.MaxLevel()+1)
	for _, n := range g.Topo() {
		if n == g.Source() {
			continue
		}
		l := g.Level(n)
		out[l] = append(out[l], n)
	}
	return out
}

// arrivalOrErr evaluates one node's arrival against the base analysis,
// turning the nil a zero-fanin node would produce (a disconnected or
// malformed elaboration — graph validation should make this impossible)
// into a diagnostic error instead of letting the nil arrival propagate
// into a downstream Convolve or SinkDist deref.
func (a *Analysis) arrivalOrErr(n graph.NodeID, ar *dist.Arena) (*dist.Dist, error) {
	arr := a.computeArrival(n, nil, nil, ar)
	if arr == nil {
		return nil, fmt.Errorf("ssta: node %d has no fanin edges (disconnected or malformed elaboration)", n)
	}
	return arr, nil
}

// computeArrival evaluates one node's arrival CDF from its fanins. The
// overlay callbacks, when non-nil, substitute perturbed arrivals and
// perturbed edge delays; returning nil from an overlay falls back to the
// base analysis. This is the single implementation of the SSTA max/conv
// step shared by the full pass, incremental recompute, and the
// optimizer's perturbation-front propagation.
//
// With a non-nil arena the result (and every intermediate) is arena
// scratch — the caller decides when to Reset and must Persist anything
// it retains. A nil arena reproduces the historical allocating
// behavior. Either way the values are bit-identical.
func (a *Analysis) computeArrival(
	n graph.NodeID,
	arrOverlay func(graph.NodeID) *dist.Dist,
	delayOverlay func(graph.EdgeID) *dist.Dist,
	ar *dist.Arena,
) *dist.Dist {
	g := a.D.E.G
	var acc *dist.Dist
	for _, eid := range g.In(n) {
		e := g.EdgeAt(eid)
		from := a.arrival[e.From]
		if arrOverlay != nil {
			if o := arrOverlay(e.From); o != nil {
				from = o
			}
		}
		delay := a.edge[eid]
		if delayOverlay != nil {
			if o := delayOverlay(eid); o != nil {
				delay = o
			}
		}
		term := from
		if delay != nil {
			term = dist.ConvolveInto(ar, from, delay)
		}
		if acc == nil {
			acc = term
		} else {
			acc = dist.MaxIndepInto(ar, acc, term)
		}
	}
	return acc
}

// ArrivalWithOverlay exposes computeArrival on the allocating path:
// the reference the overlay and what-if tests check propagation
// against.
func (a *Analysis) ArrivalWithOverlay(
	n graph.NodeID,
	arrOverlay func(graph.NodeID) *dist.Dist,
	delayOverlay func(graph.EdgeID) *dist.Dist,
) *dist.Dist {
	return a.computeArrival(n, arrOverlay, delayOverlay, nil)
}

// ArrivalWithOverlayInto is ArrivalWithOverlay computing through the
// caller's arena, for the accelerated optimizer's perturbation fronts:
// the returned distribution is scratch (Persist before retaining it)
// unless it is one of the base/overlay operands returned by a dominance
// shortcut.
func (a *Analysis) ArrivalWithOverlayInto(
	n graph.NodeID,
	arrOverlay func(graph.NodeID) *dist.Dist,
	delayOverlay func(graph.EdgeID) *dist.Dist,
	ar *dist.Arena,
) *dist.Dist {
	//lint:allow statlint/scratchescape returning scratch is this method's documented contract: the *Into suffix hands ownership to the arena-passing caller
	return a.computeArrival(n, arrOverlay, delayOverlay, ar)
}

// Arrival returns the arrival distribution at a node.
func (a *Analysis) Arrival(n graph.NodeID) *dist.Dist { return a.arrival[n] }

// EdgeDelay returns the cached delay distribution of an edge (nil for
// the zero-delay source/sink arcs).
func (a *Analysis) EdgeDelay(e graph.EdgeID) *dist.Dist { return a.edge[e] }

// SinkDist returns the circuit-delay distribution (the DAC'03 upper
// bound on the exact CDF).
func (a *Analysis) SinkDist() *dist.Dist { return a.arrival[a.D.E.G.Sink()] }

// Percentile returns the p-percentile of the circuit-delay distribution
// — the paper's optimization objective at p = 0.99.
func (a *Analysis) Percentile(p float64) float64 { return a.SinkDist().Percentile(p) }

// RefreshGate recomputes the cached delay distributions of every pin
// edge of the given gate (after its width or output load changed).
func (a *Analysis) RefreshGate(gid netlist.GateID) error {
	for _, eid := range a.D.E.GateEdges[gid] {
		dd, err := a.D.EdgeDelayDist(a.DT, eid)
		if err != nil {
			return err
		}
		a.edge[eid] = dd
	}
	return nil
}

// AffectedGates returns the set of gates whose pin-to-pin delays change
// when gate x is resized: x itself (its drive changed) and the driver of
// each of x's input nets (their output loads changed). This is exactly
// the initial perturbation scope of the paper's Initialize procedure
// (Figure 7, step 1).
func AffectedGates(d *design.Design, x netlist.GateID) []netlist.GateID {
	return appendAffectedGates(nil, d, x)
}

// appendAffectedGates appends AffectedGates(d, x) to dst. A gate has a
// handful of fanin drivers, so duplicates are caught by a linear scan.
func appendAffectedGates(dst []netlist.GateID, d *design.Design, x netlist.GateID) []netlist.GateID {
	dst = append(dst, x)
	first := len(dst) - 1
	for _, in := range d.NL.Gate(x).Ins {
		if drv := d.NL.Driver(in); drv != netlist.NoGate && !slices.Contains(dst[first:], drv) {
			dst = append(dst, drv)
		}
	}
	return dst
}

// ResizeCommit makes the analysis consistent after gate x has been
// resized in the design: refreshes the affected delay caches and
// recomputes arrivals downstream, pruning nodes whose arrival is
// unchanged. Returns the number of nodes recomputed (a measure of the
// incremental saving versus a full pass). The recompute is the elided
// propagation WhatIf runs, over the refreshed base delays, writing each
// changed arrival straight into the analysis. The context is checked
// periodically; on cancellation the analysis is left partially updated
// — callers that need all-or-nothing semantics restore from a
// Snapshot.
func (a *Analysis) ResizeCommit(ctx context.Context, x netlist.GateID) (int, error) {
	sc := a.scratch
	sc.begin(a.D.E.G)
	sc.gates = appendAffectedGates(sc.gates[:0], a.D, x)
	for _, gid := range sc.gates {
		if err := a.RefreshGate(gid); err != nil {
			return 0, err
		}
	}
	a.InvalidateRequired()
	recomputed, err := a.propagate(ctx, sc, commit)
	if err != nil {
		return recomputed, fmt.Errorf("ssta: resize commit canceled: %w", err)
	}
	return recomputed, nil
}

// PerturbedDelays returns the delay distributions that change when gate
// x is resized to w — the pin edges of x and of the drivers of x's input
// nets (Figure 7, step 1). The evaluation is mutation-free: the
// hypothetical width is applied functionally through
// design.EdgeDelayDistAtWidths, the design is never touched, and the
// distributions are bit-identical to what the historical
// mutate-evaluate-restore route (design.WithWidth) produced. Because
// nothing is written, any number of goroutines may evaluate different
// candidates concurrently against one quiescent analysis. The
// distributions come from the design's delay memo cache, so a sweep
// revisiting the same discrete widths constructs none.
func (a *Analysis) PerturbedDelays(x netlist.GateID, w float64) (map[graph.EdgeID]*dist.Dist, error) {
	out := make(map[graph.EdgeID]*dist.Dist)
	err := a.perturbedDelays(AffectedGates(a.D, x), x, w, func(e graph.EdgeID, dd *dist.Dist) { out[e] = dd })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// perturbedDelays hands set every pin-edge delay of the affected gates
// under the hypothetical width w of gate x.
func (a *Analysis) perturbedDelays(affected []netlist.GateID, x netlist.GateID, w float64, set func(graph.EdgeID, *dist.Dist)) error {
	d := a.D
	overrides := map[netlist.GateID]float64{x: w}
	for _, gid := range affected {
		for _, eid := range d.E.GateEdges[gid] {
			dd, err := d.EdgeDelayDistAtWidths(a.DT, eid, overrides)
			if err != nil {
				return err
			}
			set(eid, dd)
		}
	}
	return nil
}

// Scratch is the reusable state of the perturbation propagation shared
// by WhatIf, the brute-force sweep (WhatIfFull) and ResizeCommit: a
// kernel arena, the current candidate's affected gates, and dense
// per-node and per-edge overlay slots. A slot is live only while its
// stamp equals the scratch's epoch, so starting a propagation is one
// increment rather than a clear, and a warm sweep allocates only what
// escapes (the persisted sink distribution). The slots are sized on
// the first propagation, not at construction, so an idle Scratch costs
// one empty arena. One Scratch serves one goroutine at a time; parallel
// sweeps hold one per worker.
type Scratch struct {
	ar    *dist.Arena
	gates []netlist.GateID

	epoch     uint32
	nodeStamp []uint32     // == epoch: the node is dirty this propagation
	arr       []*dist.Dist // perturbed arrival of a dirty node; nil while it equals the base
	edgeStamp []uint32     // == epoch: delays holds the candidate's perturbed delay
	delays    []*dist.Dist
}

// NewScratch returns an empty Scratch; its slots are sized on first use.
func NewScratch() *Scratch { return &Scratch{ar: dist.NewArena()} }

// Arena returns the scratch's kernel arena, for callers that run their
// own propagation (the accelerated optimizer's fronts) on the same
// per-worker state.
func (sc *Scratch) Arena() *dist.Arena { return sc.ar }

// begin starts a propagation over graph g: rewinds the arena, sizes the
// slots to g on first use and opens a fresh epoch, which retires every
// slot of the previous propagation at once.
func (sc *Scratch) begin(g *graph.Graph) {
	sc.ar.Reset()
	if len(sc.nodeStamp) != g.NumNodes() || len(sc.edgeStamp) != g.NumEdges() {
		sc.nodeStamp = make([]uint32, g.NumNodes())
		sc.arr = make([]*dist.Dist, g.NumNodes())
		sc.edgeStamp = make([]uint32, g.NumEdges())
		sc.delays = make([]*dist.Dist, g.NumEdges())
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: old stamps could alias the new epoch
		clear(sc.nodeStamp)
		clear(sc.edgeStamp)
		sc.epoch = 1
	}
}

// markDirty schedules node n for recomputation in this propagation.
func (sc *Scratch) markDirty(n graph.NodeID) {
	if sc.nodeStamp[n] != sc.epoch {
		sc.nodeStamp[n] = sc.epoch
		sc.arr[n] = nil
	}
}

func (sc *Scratch) dirty(n graph.NodeID) bool { return sc.nodeStamp[n] == sc.epoch }

// arrival returns node n's perturbed arrival, or nil where the base
// analysis applies.
func (sc *Scratch) arrival(n graph.NodeID) *dist.Dist {
	if sc.nodeStamp[n] != sc.epoch {
		return nil
	}
	return sc.arr[n]
}

// setDelay installs edge e's perturbed delay for this propagation.
func (sc *Scratch) setDelay(e graph.EdgeID, dd *dist.Dist) {
	sc.edgeStamp[e] = sc.epoch
	sc.delays[e] = dd
}

// delay returns edge e's perturbed delay, or nil where the base
// analysis applies.
func (sc *Scratch) delay(e graph.EdgeID) *dist.Dist {
	if sc.edgeStamp[e] != sc.epoch {
		return nil
	}
	return sc.delays[e]
}

// sweep selects how propagate treats the graph.
type sweep uint8

const (
	// elided visits only dirty nodes and ends the perturbation on a
	// branch where the arrival is bit-equal to the base: all perturbed
	// fanins are final, so nothing downstream can differ. The overlay
	// stays in the scratch (what-if).
	elided sweep = iota
	// full visits every node but the source and keeps every arrival in
	// the overlay — the complete SSTA run per candidate of Section 3.1,
	// whose node count is the cost model of Table 2 (brute force). The
	// sink is bit-identical to elided's.
	full
	// commit is elided with each changed arrival persisted straight
	// into the analysis, so the arena only ever holds one node's
	// intermediates (resize).
	commit
)

// propagate is the one perturbation step behind ResizeCommit, WhatIf
// and brute-force sizing: max and convolve over the overlay the caller
// loaded into sc (sc.gates plus any perturbed delays), in topological
// order. The affected gates' outputs seed the dirty set. Returns the
// number of arrivals computed; on cancellation, the bare context error.
func (a *Analysis) propagate(ctx context.Context, sc *Scratch, mode sweep) (int, error) {
	g := a.D.E.G
	for _, gid := range sc.gates {
		sc.markDirty(a.D.E.NodeOf[a.D.NL.Gate(gid).Out])
	}
	visited := 0
	for _, n := range g.Topo() {
		if n == g.Source() || mode != full && !sc.dirty(n) {
			continue
		}
		if visited%cancelCheckStride == 0 && ctx.Err() != nil {
			return visited, ctx.Err()
		}
		if mode == commit {
			sc.ar.Reset() // only persisted arrivals outlive their node
		}
		pert := a.computeArrival(n, sc.arrival, sc.delay, sc.ar)
		visited++
		if mode != full && dist.ApproxEqual(pert, a.arrival[n], 0) {
			continue // perturbation died out on this branch
		}
		if mode == commit {
			a.arrival[n] = pert.Persist()
		} else {
			sc.markDirty(n)
			//lint:allow statlint/scratchescape the overlay slot is scratch-scoped: retired with sc.ar by the next begin, only the persisted sink escapes
			sc.arr[n] = pert
		}
		if mode != full {
			for _, eid := range g.Out(n) {
				sc.markDirty(g.EdgeAt(eid).To)
			}
		}
	}
	return visited, nil
}

// whatIf loads candidate (x, w) into sc, propagates it, and returns the
// persisted perturbed sink with the number of arrivals computed.
func (a *Analysis) whatIf(ctx context.Context, x netlist.GateID, w float64, sc *Scratch, mode sweep) (*dist.Dist, int, error) {
	if sc == nil {
		sc = NewScratch()
	}
	g := a.D.E.G
	sc.begin(g)
	sc.gates = appendAffectedGates(sc.gates[:0], a.D, x)
	if err := a.perturbedDelays(sc.gates, x, w, sc.setDelay); err != nil {
		return nil, 0, err
	}
	visited, err := a.propagate(ctx, sc, mode)
	if err != nil {
		return nil, visited, fmt.Errorf("ssta: what-if canceled: %w", err)
	}
	if o := sc.arrival(g.Sink()); o != nil {
		return o.Persist(), visited, nil
	}
	return a.arrival[g.Sink()], visited, nil
}

// WhatIf propagates the perturbation of resizing gate x to width w
// through the timing graph without committing anything: neither the
// design nor the analysis is mutated. It returns the perturbed sink
// distribution and the number of nodes whose arrival was recomputed.
// Nodes whose perturbed arrival matches the base bit for bit stop the
// propagation on that branch (the same exact elision ResizeCommit and
// the accelerated optimizer use), so the cost is the size of the true
// perturbation cone, not the whole graph.
//
// WhatIf only reads the analysis (all overlay state is call-local), so
// concurrent WhatIf calls on one quiescent Analysis are safe — the
// property Session.WhatIfBatch fans candidate evaluations out on.
func (a *Analysis) WhatIf(ctx context.Context, x netlist.GateID, w float64) (*dist.Dist, int, error) {
	return a.WhatIfScratch(ctx, x, w, nil)
}

// WhatIfScratch is WhatIf evaluating through a reusable Scratch: the
// perturbation overlays live in the scratch for the duration of the
// call (until the next call on the same Scratch), and only the
// returned sink distribution is compacted onto the heap. A nil scratch
// allocates a transient one — semantically identical, just not
// amortized. The returned distribution is always safe to retain.
func (a *Analysis) WhatIfScratch(ctx context.Context, x netlist.GateID, w float64, sc *Scratch) (*dist.Dist, int, error) {
	return a.whatIf(ctx, x, w, sc, elided)
}

// WhatIfFull is WhatIfScratch without elision: the perturbation is
// propagated through every node of the graph — the brute-force
// evaluation of Section 3.1. The sink distribution is bit-identical to
// WhatIfScratch's; the visit count is always every node but the source.
func (a *Analysis) WhatIfFull(ctx context.Context, x netlist.GateID, w float64, sc *Scratch) (*dist.Dist, int, error) {
	return a.whatIf(ctx, x, w, sc, full)
}

// ComputeRequired runs the backward required-time pass: the deadline
// distribution is imposed at the sink and propagated against the edge
// direction — subtracting edge-delay distributions (SubConvolve) along
// each fanout arc and merging fanouts with the independence minimum.
// This is the mirror image of the forward arrival pass; with both in
// hand, statistical slack and gate criticality become O(1) queries.
//
// Required times are cached until the next arrival mutation
// (ResizeCommit) invalidates them.
func (a *Analysis) ComputeRequired(ctx context.Context, deadline *dist.Dist) error {
	g := a.D.E.G
	req := make([]*dist.Dist, g.NumNodes())
	topo := g.Topo()
	req[g.Sink()] = deadline
	// Pass-scoped persist keeper, like the forward pass's (see
	// AnalyzeParallel); the backward pass is serial, so one suffices.
	keeper := dist.NewKeeper()
	for i := len(topo) - 1; i >= 0; i-- {
		if i%cancelCheckStride == 0 && ctx.Err() != nil {
			return fmt.Errorf("ssta: required-time pass canceled: %w", ctx.Err())
		}
		n := topo[i]
		if n == g.Sink() {
			continue
		}
		// Same per-node arena cycle as the forward passes: the
		// SubConvolve negation/convolution temporaries and losing
		// MinIndep accumulators stay in scratch, the surviving required
		// time is compacted before retention.
		ar := a.scratch.ar
		ar.Reset()
		var acc *dist.Dist
		for _, eid := range g.Out(n) {
			t := req[g.EdgeAt(eid).To]
			if dd := a.edge[eid]; dd != nil {
				t = dist.SubConvolveInto(ar, t, dd)
			}
			if acc == nil {
				acc = t
			} else {
				acc = dist.MinIndepInto(ar, acc, t)
			}
		}
		if acc != nil {
			acc = keeper.Persist(acc)
		}
		req[n] = acc
	}
	a.required = req
	a.deadline = deadline
	return nil
}

// HasRequired reports whether a required-time pass is cached and
// consistent with the current arrivals.
func (a *Analysis) HasRequired() bool { return a.required != nil }

// Deadline returns the sink deadline distribution of the cached
// required-time pass, or nil when none is cached.
func (a *Analysis) Deadline() *dist.Dist { return a.deadline }

// Required returns the required-time distribution at a node, or nil
// when no required-time pass is cached (call ComputeRequired first).
func (a *Analysis) Required(n graph.NodeID) *dist.Dist {
	if a.required == nil {
		return nil
	}
	return a.required[n]
}

// Slack returns the statistical slack distribution at a node: the
// distribution of required minus arrival, treating the two as
// independent. Shared paths correlate them in reality, so tail
// probabilities are approximate — but the sign structure (mass below
// zero = probability the node violates the deadline) is the queryable
// criticality signal the paper otherwise obtains from Monte Carlo.
// Returns nil when no required-time pass is cached.
func (a *Analysis) Slack(n graph.NodeID) *dist.Dist {
	if a.required == nil {
		return nil
	}
	return dist.SubConvolve(a.required[n], a.arrival[n])
}

// InvalidateRequired drops the cached backward pass; arrival mutations
// call it internally, and sessions call it when the deadline changes.
func (a *Analysis) InvalidateRequired() {
	a.required = nil
	a.deadline = nil
}

// State is an O(nodes) snapshot of the analysis for checkpoint/rollback:
// distributions are immutable once computed, so the snapshot shares them
// and only copies the index slices.
type State struct {
	arrival  []*dist.Dist
	edge     []*dist.Dist
	required []*dist.Dist
	deadline *dist.Dist
}

// Snapshot captures the current analysis state.
func (a *Analysis) Snapshot() *State {
	st := &State{
		arrival:  append([]*dist.Dist(nil), a.arrival...),
		edge:     append([]*dist.Dist(nil), a.edge...),
		deadline: a.deadline,
	}
	if a.required != nil {
		st.required = append([]*dist.Dist(nil), a.required...)
	}
	return st
}

// Restore rewinds the analysis to a snapshot taken on the same design.
func (a *Analysis) Restore(st *State) {
	copy(a.arrival, st.arrival)
	copy(a.edge, st.edge)
	if st.required != nil {
		a.required = append(a.required[:0], st.required...)
	} else {
		a.required = nil
	}
	a.deadline = st.deadline
}
