package ssta

import (
	"context"
	"math"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/netlist"
)

// boundSlack absorbs the grid and float slop between a front's bound
// and the exact sensitivity, as the optimizer's pruning test does.
const boundSlack = 1e-8

func smallDesign(t *testing.T, seed int64) *design.Design {
	t.Helper()
	lib := cell.Default180nm()
	sp := circuitgen.Spec{Name: "small", Nodes: 60, Edges: 104, PIs: 8, POs: 5, Depth: 8, Seed: seed}
	nl, err := circuitgen.Generate(lib, sp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// upsizable returns every gate one width step can still grow: the
// optimizers' candidates.
func upsizable(d *design.Design) []netlist.GateID {
	var out []netlist.GateID
	for g := 0; g < d.NL.NumGates(); g++ {
		if gid := netlist.GateID(g); d.Width(gid)+d.Lib.DeltaW <= d.Lib.WMax {
			out = append(out, gid)
		}
	}
	return out
}

// TestFrontMatchesWhatIf builds a front for every candidate on its own
// Scratch, then drains all of them round-robin on one shared Scratch,
// as the optimizer's heap loop does. Each drained front must reach the
// same sink as WhatIfScratch bit for bit (a nil sink stands for the
// base sink) and compute the same number of arrivals: a slot leaking
// from one front into another would show up here.
func TestFrontMatchesWhatIf(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"c432", "c1908"} {
		t.Run(name, func(t *testing.T) {
			d := newDesign(t, name)
			a := analyze(t, d, 400)
			cands := upsizable(d)
			fronts := make([]*Front, len(cands))
			for i, x := range cands {
				f, err := a.NewFront(x, d.Width(x)+d.Lib.DeltaW, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				fronts[i] = f
			}
			shared := NewScratch()
			for advanced := true; advanced; {
				advanced = false
				for _, f := range fronts {
					if !f.Done() {
						f.Advance(shared)
						advanced = true
					}
				}
			}
			ws := NewScratch()
			for i, x := range cands {
				want, wantVisits, err := a.WhatIfScratch(ctx, x, d.Width(x)+d.Lib.DeltaW, ws)
				if err != nil {
					t.Fatal(err)
				}
				got := fronts[i].Sink()
				if got == nil {
					got = a.SinkDist()
				}
				if !sameBits(got, want) {
					t.Errorf("gate %d: front sink differs from WhatIfScratch's", x)
				}
				if v := fronts[i].Visits(); v != wantVisits {
					t.Errorf("gate %d: front computed %d arrivals, WhatIfScratch %d", x, v, wantVisits)
				}
			}
		})
	}
}

// The bound must dominate the exact sensitivity for every candidate
// and never grow as the front advances (Theorems 1–4).
func TestFrontBoundDominatesSensitivity(t *testing.T) {
	d := smallDesign(t, 3)
	a := analyze(t, d, 600)
	base := a.Percentile(0.99)
	sc := NewScratch()
	for _, gid := range upsizable(d) {
		f, err := a.NewFront(gid, d.Width(gid)+d.Lib.DeltaW, sc)
		if err != nil {
			t.Fatal(err)
		}
		bound := f.Bound() / d.Lib.DeltaW
		prevBound := math.Inf(1)
		for !f.Done() {
			f.Advance(sc)
			b := f.Bound() / d.Lib.DeltaW
			if b > prevBound+boundSlack {
				t.Fatalf("gate %d: front bound grew from %v to %v", gid, prevBound, b)
			}
			prevBound = b
		}
		sens := 0.0
		if f.Sink() != nil {
			sens = (base - f.Sink().Percentile(0.99)) / d.Lib.DeltaW
		}
		if sens > bound+boundSlack {
			t.Errorf("gate %d: sensitivity %v exceeds initial bound %v", gid, sens, bound)
		}
	}
}

// A front propagated to the end must hold nothing: no live arrival, no
// pending node, and a zero bound.
func TestFrontDrainsCompletely(t *testing.T) {
	d := smallDesign(t, 8)
	a := analyze(t, d, 600)
	sc := NewScratch()
	for _, gid := range upsizable(d)[:10] {
		f, err := a.NewFront(gid, d.Width(gid)+d.Lib.DeltaW, sc)
		if err != nil {
			t.Fatal(err)
		}
		for !f.Done() {
			f.Advance(sc)
		}
		if len(f.live) != 0 || len(f.pending) != 0 || f.Bound() != 0 {
			t.Fatalf("gate %d: front leaked %d live arrivals, %d pending nodes, bound %v",
				gid, len(f.live), len(f.pending), f.Bound())
		}
	}
}
