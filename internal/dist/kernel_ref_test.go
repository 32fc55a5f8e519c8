package dist

import (
	"math"
	"math/rand"
	"testing"
)

// refConvolveDirect is the row-loop direct convolution the blocked
// kernel replaced, kept verbatim as the bit-identity reference: one
// narrow-operand row at a time, zero rows skipped.
func refConvolveDirect(a, b *Dist) *Dist {
	out := make([]float64, len(a.p)+len(b.p)-1)
	x, y := a, b
	if len(x.p) > len(y.p) {
		x, y = y, x
	}
	for i, pi := range x.p {
		if pi == 0 {
			continue
		}
		row := out[i : i+len(y.p)]
		for j, pj := range y.p {
			row[j] += pi * pj
		}
	}
	return trim(a.dt, a.i0+b.i0, out)
}

// refMaxIndep is the single-loop independence max the region-split
// kernel replaced, kept verbatim as the bit-identity reference.
func refMaxIndep(a, b *Dist) *Dist {
	if a.i0+len(a.p)-1 <= b.i0 {
		return b
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return a
	}
	lo := a.i0
	if b.i0 > lo {
		lo = b.i0
	}
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	hi := aHi
	if bHi > hi {
		hi = bHi
	}
	out := make([]float64, hi-lo+1)
	cumA, cumB := 0.0, 0.0
	for k := 0; k < lo-a.i0; k++ {
		cumA += a.p[k]
	}
	for k := 0; k < lo-b.i0; k++ {
		cumB += b.p[k]
	}
	prev := 0.0
	for i := lo; i <= hi; i++ {
		if k := i - a.i0; k >= 0 && k < len(a.p) {
			cumA += a.p[k]
			if k == len(a.p)-1 && math.Abs(cumA-1) < probEps {
				cumA = 1
			}
		}
		if k := i - b.i0; k >= 0 && k < len(b.p) {
			cumB += b.p[k]
			if k == len(b.p)-1 && math.Abs(cumB-1) < probEps {
				cumB = 1
			}
		}
		prod := cumA * cumB
		m := prod - prev
		if m < 0 {
			m = 0
		}
		out[i-lo] = m
		prev = prod
	}
	return trim(a.dt, lo, out)
}

// refOperand builds an n-bin distribution at grid offset i0 with
// nonzero end bins and, with probability zeroFrac each, zero interior
// bins, normalized to unit mass (so its bin sum lands at 1±ulps).
func refOperand(rng *rand.Rand, n, i0 int, zeroFrac float64) *Dist {
	p := make([]float64, n)
	total := 0.0
	for k := range p {
		if k > 0 && k < n-1 && rng.Float64() < zeroFrac {
			continue
		}
		p[k] = 0.01 + rng.Float64()
		total += p[k]
	}
	for k := range p {
		p[k] /= total
	}
	return &Dist{dt: 0.01, i0: i0, p: p}
}

// dirtyArena returns an arena whose slabs are filled with NaN and then
// rewound, so a kernel that leaves an uncleared output bin unwritten
// shows a NaN instead of a lucky zero.
func dirtyArena() *Arena {
	ar := NewArena()
	for _, n := range []int{1 << 12, 1 << 13, 1 << 14} {
		for k, s := 0, ar.floats(n); k < len(s); k++ {
			s[k] = math.NaN()
		}
	}
	ar.Reset()
	return ar
}

// sameBits demands equal support and equal math.Float64bits in every
// bin, so even a sign-of-zero or NaN-payload difference fails.
func sameBits(t *testing.T, label string, want, got *Dist) {
	t.Helper()
	if want.I0() != got.I0() || want.NumBins() != got.NumBins() {
		t.Fatalf("%s: support differs: want (i0=%d bins=%d), got (i0=%d bins=%d)",
			label, want.I0(), want.NumBins(), got.I0(), got.NumBins())
	}
	for k := 0; k < want.NumBins(); k++ {
		if w, g := math.Float64bits(want.MassAt(k)), math.Float64bits(got.MassAt(k)); w != g {
			t.Fatalf("%s: bin %d differs: want %#016x, got %#016x", label, k, w, g)
		}
	}
}

// checkKernels runs both kernels on (a, b), from the heap and from a
// reused dirty arena, against their references.
func checkKernels(t *testing.T, label string, ar *Arena, a, b *Dist) {
	t.Helper()
	ar.Reset()
	wantC, wantM := refConvolveDirect(a, b), refMaxIndep(a, b)
	sameBits(t, label+" convolve (heap)", wantC, convolveDirectInto(nil, a, b))
	sameBits(t, label+" convolve (arena)", wantC, convolveDirectInto(ar, a, b))
	sameBits(t, label+" max (heap)", wantM, MaxIndepInto(nil, a, b))
	sameBits(t, label+" max (arena)", wantM, MaxIndepInto(ar, a, b))
}

// TestConvolveDirectMatchesReference pins the blocked direct kernel to
// the row loop bit for bit over every narrow width 1–20 against every
// wide width 1–200, in both argument orders, with and without interior
// zero bins.
func TestConvolveDirectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ar := dirtyArena()
	for nx := 1; nx <= 20; nx++ {
		for ny := 1; ny <= 200; ny++ {
			zeroFrac := 0.0
			if ny%2 == 0 {
				zeroFrac = 0.3
			}
			x := refOperand(rng, nx, rng.Intn(21)-10, zeroFrac)
			y := refOperand(rng, ny, rng.Intn(201)-100, zeroFrac)
			for _, ops := range [][2]*Dist{{x, y}, {y, x}} {
				ar.Reset()
				want := refConvolveDirect(ops[0], ops[1])
				sameBits(t, "convolve (heap)", want, convolveDirectInto(nil, ops[0], ops[1]))
				sameBits(t, "convolve (arena)", want, convolveDirectInto(ar, ops[0], ops[1]))
			}
		}
	}
}

// TestMaxIndepMatchesReference pins the region-split max to the single
// loop bit for bit on the named support shapes and a seeded sweep of
// random widths and offsets, writing into a dirty arena.
func TestMaxIndepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ar := dirtyArena()
	// Each shape is (width a, offset a, width b, offset b).
	shapes := []struct {
		name           string
		na, ia, nb, ib int
	}{
		{"disjoint", 5, 0, 5, 10},
		{"touching", 5, 0, 5, 4},
		{"a dominates", 6, 20, 8, 0},
		{"equal last bins", 10, 0, 6, 4},
		{"equal supports", 12, 3, 12, 3},
		{"b inside a", 40, 0, 10, 15},
		{"a inside b", 10, 15, 40, 0},
		{"tail on a", 30, 5, 20, 0},
		{"tail on b", 20, 0, 30, 5},
		{"1-bin a inside b", 1, 7, 15, 0},
		{"1-bin b inside a", 15, 0, 1, 7},
		{"1-bin both equal", 1, 3, 1, 3},
		{"overlap 1", 8, 0, 8, 6},
	}
	for _, s := range shapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			a := refOperand(rng, s.na, s.ia, zeroFrac)
			b := refOperand(rng, s.nb, s.ib, zeroFrac)
			ar.Reset()
			sameBits(t, s.name, refMaxIndep(a, b), MaxIndepInto(ar, a, b))
		}
	}
	// An operand whose bin sum lands one ulp below 1 takes the
	// snap-to-1 branch when it ends before the other operand does.
	snap := &Dist{dt: 0.01, i0: 0, p: []float64{0.7, 0.2, 0.1}}
	sum := 0.0
	for _, pk := range snap.p {
		sum += pk
	}
	if sum == 1 || math.Abs(sum-1) >= probEps {
		t.Fatalf("snap operand sums to %v, want 1±ulps", sum)
	}
	for _, other := range []*Dist{refOperand(rng, 6, 1, 0), refOperand(rng, 4, -2, 0), {dt: 0.01, i0: 2, p: []float64{1}}} {
		ar.Reset()
		sameBits(t, "snap a", refMaxIndep(snap, other), MaxIndepInto(ar, snap, other))
		sameBits(t, "snap b", refMaxIndep(other, snap), MaxIndepInto(ar, other, snap))
	}
	for trial := 0; trial < 5000; trial++ {
		na, nb := 1+rng.Intn(200), 1+rng.Intn(200)
		a := refOperand(rng, na, 0, 0.2*rng.Float64())
		b := refOperand(rng, nb, rng.Intn(na+nb+5)-nb-2, 0.2*rng.Float64())
		ar.Reset()
		sameBits(t, "sweep", refMaxIndep(a, b), MaxIndepInto(ar, a, b))
	}
}

// FuzzKernelsMatchReference drives arbitrary widths, offsets and zero
// densities through both kernels and demands the reference bits.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), int16(0), uint8(0))
	f.Add(int64(2), uint8(5), uint8(75), int16(40), uint8(0))
	f.Add(int64(3), uint8(8), uint8(125), int16(-3), uint8(50))
	f.Add(int64(4), uint8(120), uint8(110), int16(10), uint8(0))
	f.Add(int64(5), uint8(3), uint8(2), int16(1), uint8(0))
	f.Add(int64(6), uint8(20), uint8(20), int16(25), uint8(200))
	ar := dirtyArena()
	f.Fuzz(func(t *testing.T, seed int64, wa, wb uint8, off int16, zeros uint8) {
		rng := rand.New(rand.NewSource(seed))
		zeroFrac := float64(zeros) / 256
		a := refOperand(rng, int(wa)+1, 0, zeroFrac)
		b := refOperand(rng, int(wb)+1, int(off)%300, zeroFrac)
		checkKernels(t, "fuzz", ar, a, b)
	})
}
