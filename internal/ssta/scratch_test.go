package ssta

import (
	"context"
	"math"
	"testing"

	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

// sameBits reports whether two distributions are bit-identical: same
// grid, same support and the same float64 bits in every bin.
func sameBits(a, b *dist.Dist) bool {
	if a.DT() != b.DT() || a.I0() != b.I0() || a.NumBins() != b.NumBins() {
		return false
	}
	for k := 0; k < a.NumBins(); k++ {
		if math.Float64bits(a.MassAt(k)) != math.Float64bits(b.MassAt(k)) {
			return false
		}
	}
	return true
}

// structuralCone returns every node a resize of gate x can reach,
// except the sink: the outputs of its affected gates and their
// transitive fanout.
func structuralCone(a *Analysis, x netlist.GateID) map[graph.NodeID]bool {
	g := a.D.E.G
	cone := make(map[graph.NodeID]bool)
	var stack []graph.NodeID
	for _, gid := range AffectedGates(a.D, x) {
		stack = append(stack, a.D.E.NodeOf[a.D.NL.Gate(gid).Out])
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == g.Sink() || cone[n] {
			continue
		}
		cone[n] = true
		for _, eid := range g.Out(n) {
			stack = append(stack, g.EdgeAt(eid).To)
		}
	}
	return cone
}

// disjointGates finds two gates whose resize cones share no node but
// the sink; the second has fanin drivers, so its resize perturbs more
// than its own output.
func disjointGates(t *testing.T, a *Analysis) (netlist.GateID, netlist.GateID) {
	t.Helper()
	n := a.D.NL.NumGates()
	cones := make([]map[graph.NodeID]bool, n)
	for i := range cones {
		cones[i] = structuralCone(a, netlist.GateID(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if len(AffectedGates(a.D, netlist.GateID(j))) < 2 {
				continue
			}
			overlap := false
			for node := range cones[i] {
				if cones[j][node] {
					overlap = true
					break
				}
			}
			if !overlap {
				return netlist.GateID(i), netlist.GateID(j)
			}
		}
	}
	t.Fatal("no two gates with disjoint resize cones")
	return 0, 0
}

// TestScratchReuseHoldsNoStaleState runs one Scratch through an elided
// what-if on gate A, one on gate B in a disjoint cone, a full
// brute-force pass on B, a null what-if on B (its current width, so
// every arrival equals the base and no slot may be read) and what-if A
// again. Every step must match a run on a fresh Scratch bit for bit,
// in sink distribution and in visit count: the epoch stamps, not
// clearing, retire each step's slots, so a stale slot would show up
// here first. The full and elided passes on B, one propagation with
// and without elision, must also agree on the sink.
func TestScratchReuseHoldsNoStaleState(t *testing.T) {
	d := newDesign(t, "c432")
	a := analyze(t, d, 400)
	ctx := context.Background()
	gateA, gateB := disjointGates(t, a)
	up := func(x netlist.GateID) float64 { return d.Width(x) + d.Lib.DeltaW }

	steps := []struct {
		name  string
		gate  netlist.GateID
		width float64
		full  bool
	}{
		{"what-if A", gateA, up(gateA), false},
		{"what-if B", gateB, up(gateB), false},
		{"full B", gateB, up(gateB), true},
		{"null what-if B", gateB, d.Width(gateB), false},
		{"what-if A again", gateA, up(gateA), false},
	}
	totalNodes := d.E.G.NumNodes() - 1 // every node but the source
	shared := NewScratch()
	sinks := make(map[string]*dist.Dist)
	for _, st := range steps {
		run := a.WhatIfScratch
		if st.full {
			run = a.WhatIfFull
		}
		got, gotVisits, err := run(ctx, st.gate, st.width, shared)
		if err != nil {
			t.Fatal(err)
		}
		want, wantVisits, err := run(ctx, st.gate, st.width, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		sinks[st.name] = got
		if !sameBits(got, want) {
			t.Errorf("%s: reused Scratch sink differs from a fresh Scratch's", st.name)
		}
		if gotVisits != wantVisits {
			t.Errorf("%s: reused Scratch visited %d nodes, fresh %d", st.name, gotVisits, wantVisits)
		}
		if st.full && gotVisits != totalNodes {
			t.Errorf("%s: full propagation visited %d nodes, want every node but the source (%d)", st.name, gotVisits, totalNodes)
		}
		if !st.full && gotVisits >= totalNodes {
			t.Errorf("%s: elided propagation visited all %d nodes", st.name, gotVisits)
		}
	}
	if !sameBits(sinks["full B"], sinks["what-if B"]) {
		t.Error("full propagation sink differs from the elided one")
	}
}
