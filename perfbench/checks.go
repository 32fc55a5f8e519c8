package main

import (
	"fmt"
	"math"

	"statsize"
)

// The correctness checks are pure functions of a workload's outputs, so
// the benchmark's tests can feed them corrupted outputs.

// checkMonotone verifies that no sizing iteration raised the objective.
func checkMonotone(initial float64, recs []statsize.IterRecord) error {
	prev := initial
	for _, r := range recs {
		if r.Objective > prev {
			return fmt.Errorf("iteration %d raised the objective from %v to %v", r.Iter, prev, r.Objective)
		}
		prev = r.Objective
	}
	return nil
}

// checkSameFloat verifies that got and want are the same float64, bit
// for bit.
func checkSameFloat(got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("got %v, want %v (differ by %v)", got, want, got-want)
	}
	return nil
}

// sensTol is how far apart the brute-force and accelerated sensitivity
// of the same pick may be (relative to its magnitude, at least 1).
const sensTol = 1e-12

// checkSamePicks verifies the paper's exactness claim: iteration by
// iteration, the accelerated optimizer sizes the gates brute force
// sizes, with the same sensitivity.
func checkSamePicks(brute, accel []statsize.IterRecord) error {
	if len(brute) != len(accel) {
		return fmt.Errorf("brute force ran %d iterations, accelerated %d", len(brute), len(accel))
	}
	for i := range brute {
		b, a := brute[i], accel[i]
		if fmt.Sprint(b.Gates) != fmt.Sprint(a.Gates) {
			return fmt.Errorf("iteration %d: brute force sized %v, accelerated %v", b.Iter, b.Gates, a.Gates)
		}
		if math.Abs(b.Sensitivity-a.Sensitivity) > sensTol*math.Max(1, math.Abs(b.Sensitivity)) {
			return fmt.Errorf("iteration %d: sensitivity %v (brute force) vs %v (accelerated)", b.Iter, b.Sensitivity, a.Sensitivity)
		}
	}
	return nil
}

// checkStatuses verifies that every HTTP response was 2xx, given the
// count of responses per status code.
func checkStatuses(byCode map[int]int) error {
	for code, n := range byCode {
		if n > 0 && (code < 200 || code > 299) {
			return fmt.Errorf("%d responses with status %d", n, code)
		}
	}
	return nil
}

// distBits is a distribution's grid and masses, as compared bit for bit.
type distBits struct {
	dt   float64
	i0   int
	mass []float64
}

func bitsOf(d *statsize.Dist) distBits {
	b := distBits{dt: d.DT(), i0: d.I0(), mass: make([]float64, d.NumBins())}
	for k := range b.mass {
		b.mass[k] = d.MassAt(k)
	}
	return b
}

// checkSameDist verifies that two distributions are identical: grid,
// offset and every bin's mass, bit for bit.
func checkSameDist(got, want distBits) error {
	if got.dt != want.dt || got.i0 != want.i0 || len(got.mass) != len(want.mass) {
		return fmt.Errorf("grid differs: dt %v/%v, i0 %d/%d, bins %d/%d",
			got.dt, want.dt, got.i0, want.i0, len(got.mass), len(want.mass))
	}
	for k, m := range got.mass {
		if math.Float64bits(m) != math.Float64bits(want.mass[k]) {
			return fmt.Errorf("bin %d: mass %v, want %v", k, m, want.mass[k])
		}
	}
	return nil
}

// checkSameWhatIfs verifies that what-if results served over HTTP equal
// the in-process results for the same batch, bit for bit.
func checkSameWhatIfs(got []wireResult, want []statsize.WhatIfResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results over HTTP, %d in process", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		same := g.Gate == int64(w.Gate) && g.NodesVisited == w.NodesVisited
		for _, p := range [][2]float64{{g.Width, w.Width}, {g.Objective, w.Objective}, {g.Delta, w.Delta}, {g.Sensitivity, w.Sensitivity}} {
			same = same && math.Float64bits(p[0]) == math.Float64bits(p[1])
		}
		if !same {
			return fmt.Errorf("candidate %d: HTTP %+v, in process %+v", i, g, w)
		}
	}
	return nil
}
