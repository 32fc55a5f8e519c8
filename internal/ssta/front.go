package ssta

import (
	"cmp"
	"slices"

	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

// Front is the perturbation front of one candidate gate in the paper's
// pruning algorithm (the A' set of Figures 7 and 9): its live perturbed
// arrivals and the nodes pending evaluation. It owns no overlay. Each
// level advance stamps the few live arrivals into a Scratch and
// evaluates one level through computeArrival, the step every
// propagation shares, so fronts built on different scratches can all
// advance on one. A branch ends where the perturbed arrival is
// bit-equal to the base, the same rule what-if and resize apply.
type Front struct {
	a    *Analysis
	gate netlist.GateID

	live    []liveArrival
	pending []graph.NodeID // sorted by (level, node), no duplicates
	bound   float64        // Δmx: the largest Δ across live
	sink    *dist.Dist     // set once the sink is evaluated
	levels  int
	visits  int
}

// liveArrival is one perturbed arrival a front still needs: it stays
// live until the level of its last fanout has been evaluated.
type liveArrival struct {
	node      graph.NodeID
	arr       *dist.Dist // persisted
	delta     float64    // perturbation bound against the base arrival
	lastLevel int
}

// NewFront initializes the front of resizing gate x to width w
// (Initialize, Figure 7): the perturbed delays of the affected gates go
// into sc's edge slots and the front is evaluated through x's own
// level, so it starts with a meaningful bound. Every perturbed edge
// ends at an affected gate's output, at or below x's level, so the
// delays are not needed after this call. The front retains only
// persisted distributions.
func (a *Analysis) NewFront(x netlist.GateID, w float64, sc *Scratch) (*Front, error) {
	d := a.D
	sc.begin(d.E.G)
	sc.gates = appendAffectedGates(sc.gates[:0], d, x)
	if err := a.perturbedDelays(sc.gates, x, w, sc.setDelay); err != nil {
		return nil, err
	}
	f := &Front{a: a, gate: x}
	for _, gid := range sc.gates {
		f.pending = append(f.pending, d.E.NodeOf[d.NL.Gate(gid).Out])
	}
	f.sortPending()
	own := d.E.G.Level(d.E.NodeOf[d.NL.Gate(x).Out])
	for !f.Done() && d.E.G.Level(f.pending[0]) <= own {
		f.evalLevel(sc)
	}
	return f, nil
}

// Advance evaluates the front's lowest pending level on sc (Figure 9).
// It opens a fresh propagation on sc, so any Scratch will do, and it
// must not be called once the front is Done.
func (f *Front) Advance(sc *Scratch) {
	sc.begin(f.a.D.E.G)
	f.evalLevel(sc)
}

// evalLevel stamps the live arrivals into sc's node slots and evaluates
// the lowest pending level against them. Nodes on one level never read
// each other, so their order does not matter. A perturbed arrival that
// differs from the base joins the live set and schedules its fanouts;
// afterwards, arrivals whose last fanout has been evaluated leave the
// front and the bound is recomputed over the rest (Theorem 4).
func (f *Front) evalLevel(sc *Scratch) {
	a := f.a
	g := a.D.E.G
	for _, l := range f.live {
		sc.setArrival(l.node, l.arr)
	}
	level := g.Level(f.pending[0])
	k := 1
	for k < len(f.pending) && g.Level(f.pending[k]) == level {
		k++
	}
	for _, n := range f.pending[:k] {
		sc.ar.Reset()
		pert := a.computeArrival(n, sc.arrival, sc.delay, sc.ar)
		f.visits++
		if n == g.Sink() {
			f.sink = pert.Persist()
			continue
		}
		if dist.ApproxEqual(pert, a.arrival[n], 0) {
			continue // perturbation died out on this branch
		}
		last := 0
		for _, eid := range g.Out(n) {
			to := g.EdgeAt(eid).To
			last = max(last, g.Level(to))
			f.pending = append(f.pending, to)
		}
		f.live = append(f.live, liveArrival{
			node:      n,
			arr:       pert.Persist(),
			delta:     dist.PerturbationBound(a.arrival[n], pert),
			lastLevel: last,
		})
	}
	f.pending = append(f.pending[:0], f.pending[k:]...)
	f.sortPending()
	f.live = slices.DeleteFunc(f.live, func(l liveArrival) bool { return l.lastLevel <= level })
	f.bound = 0
	for _, l := range f.live {
		f.bound = max(f.bound, l.delta)
	}
	f.levels++
}

func (f *Front) sortPending() {
	g := f.a.D.E.G
	slices.SortFunc(f.pending, func(p, q graph.NodeID) int {
		return cmp.Or(cmp.Compare(g.Level(p), g.Level(q)), cmp.Compare(p, q))
	})
	f.pending = slices.Compact(f.pending)
}

// Gate returns the candidate gate the front perturbs.
func (f *Front) Gate() netlist.GateID { return f.gate }

// Bound returns Δmx, the largest perturbation bound across the live
// arrivals. By Theorems 1–4 it bounds the change of any percentile at
// the sink and never grows as the front advances.
func (f *Front) Bound() float64 { return f.bound }

// Done reports whether nothing is left to evaluate.
func (f *Front) Done() bool { return len(f.pending) == 0 }

// Sink returns the perturbed sink distribution, or nil when the
// perturbation died out before reaching the sink.
func (f *Front) Sink() *dist.Dist { return f.sink }

// Levels returns the number of levels evaluated so far.
func (f *Front) Levels() int { return f.levels }

// Visits returns the number of arrivals computed so far.
func (f *Front) Visits() int { return f.visits }
