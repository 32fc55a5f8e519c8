// Package dist implements the discretized probability distributions the
// SSTA engine propagates (the DAC'03 representation the paper builds
// on): a probability mass function on the uniform grid t = i·dt. Bin k
// of a Dist carries the probability that the value equals (i0+k)·dt, so
// convolution (delay addition along an edge) and the independence
// maximum (fanin merge) are exact lattice operations — which is what
// lets the accelerated optimizer reproduce brute-force results bit for
// bit.
//
// The package also provides the perturbation machinery of Section 3:
// PerturbationBound computes Δ, the largest leftward shift of a
// perturbed CDF against its base (the per-node quantity whose maximum
// over a propagation front is the paper's pruning bound Smx·Δw).
//
// # Memory model
//
// Every kernel exists in two forms. The classic form (Convolve,
// MaxIndep, MinIndep, SubConvolve, Neg) allocates a fresh immutable
// Dist — safe to share between goroutines, snapshot, and retain
// forever. The Into form (ConvolveInto, MaxIndepInto, …) takes an
// *Arena and returns a scratch view whose mass vector and header live
// in arena memory: bit-identical values (same trim, same snap-to-1),
// zero steady-state allocations, but valid only until the arena's next
// Reset. Call Persist on a scratch view to obtain an immutable compact
// copy before retaining it. A nil arena makes every Into kernel behave
// exactly like its allocating wrapper. See DESIGN.md ("Memory model")
// for the ownership rules the SSTA hot paths follow.
package dist

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Dist is a discretized probability distribution on a uniform grid:
// mass p[k] sits at time (i0+k)·dt. The mass vector always sums to 1
// (up to float rounding) and has nonzero first and last entries.
//
// A Dist is immutable after construction unless it is an arena-backed
// scratch view (see Arena); scratch views die at the arena's next
// Reset and must be Persist-ed before being retained or shared.
type Dist struct {
	dt float64
	i0 int
	p  []float64

	// scratch marks arena-backed views; Persist uses it to decide
	// whether a compact copy is needed.
	scratch bool

	// cum lazily caches the cumulative sums of p for Percentile/CDF:
	// cum[k] = p[0]+…+p[k], computed on first query and binary-searched
	// afterwards. The pointer is atomic so concurrent readers may race
	// to fill it — both compute the identical array, so either store
	// wins harmlessly.
	cum atomic.Pointer[[]float64]
}

// trim drops zero-mass bins at both ends, keeping supports tight.
//
// An all-zero mass vector panics: every constructor in this package
// (Point, TruncGauss, Convolve, MaxIndep, MinIndep) preserves unit
// mass, so zero total mass can only mean a corrupted operand or a bug
// in a new operation. The historical fallback — silently returning a
// single zero-mass bin — violated the documented mass-sums-to-1
// invariant and let Percentile/CDF/Mean return garbage far from the
// actual defect; failing loudly at the construction site is the
// debuggable behavior.
func trim(dt float64, i0 int, p []float64) *Dist {
	return trimInto(nil, dt, i0, p)
}

// trimInto is trim with the result header drawn from ar (or the heap
// when ar is nil). The mass slice is never copied — the returned Dist
// views p[lo:hi].
func trimInto(ar *Arena, dt float64, i0 int, p []float64) *Dist {
	lo, hi := 0, len(p)
	for lo < hi && p[lo] == 0 {
		lo++
	}
	for hi > lo && p[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		panic(fmt.Sprintf("dist: zero total mass over %d bins (dt=%v, i0=%v) — operand violated the mass-sums-to-1 invariant", len(p), dt, i0))
	}
	if ar == nil {
		return &Dist{dt: dt, i0: i0 + lo, p: p[lo:hi]}
	}
	return ar.newDist(dt, i0+lo, p[lo:hi])
}

// Point returns the distribution concentrated on the grid point nearest
// to v.
func Point(dt, v float64) *Dist {
	if dt <= 0 {
		panic(fmt.Sprintf("dist: non-positive dt %v", dt))
	}
	return &Dist{dt: dt, i0: int(math.Round(v / dt)), p: []float64{1}}
}

// TruncGauss discretizes a Gaussian with the given mean and standard
// deviation, truncated at ±k·sigma and renormalized — the paper's
// intra-die delay variation model. A zero sigma yields a point mass.
func TruncGauss(dt, mean, sigma, k float64) (*Dist, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("dist: non-positive dt %v", dt)
	}
	if sigma < 0 {
		return nil, fmt.Errorf("dist: negative sigma %v", sigma)
	}
	if sigma == 0 {
		return Point(dt, mean), nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("dist: non-positive truncation %v", k)
	}
	lo, hi := mean-k*sigma, mean+k*sigma
	iLo := int(math.Round(lo / dt))
	iHi := int(math.Round(hi / dt))
	p := make([]float64, iHi-iLo+1)
	total := 0.0
	for i := iLo; i <= iHi; i++ {
		a := math.Max(lo, (float64(i)-0.5)*dt)
		b := math.Min(hi, (float64(i)+0.5)*dt)
		if b <= a {
			continue
		}
		m := phi((b-mean)/sigma) - phi((a-mean)/sigma)
		p[i-iLo] = m
		total += m
	}
	if total <= 0 {
		// The whole truncation window fell inside one half-bin; collapse
		// to a point mass at the mean.
		return Point(dt, mean), nil
	}
	for i := range p {
		p[i] /= total
	}
	return trim(dt, iLo, p), nil
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// DT returns the grid resolution in time units.
func (d *Dist) DT() float64 { return d.dt }

// I0 returns the grid index of the first bin.
func (d *Dist) I0() int { return d.i0 }

// NumBins returns the number of bins in the support.
func (d *Dist) NumBins() int { return len(d.p) }

// MassAt returns the probability mass of bin k (0 <= k < NumBins).
func (d *Dist) MassAt(k int) float64 { return d.p[k] }

// MinTime returns the earliest support point.
func (d *Dist) MinTime() float64 { return float64(d.i0) * d.dt }

// MaxTime returns the latest support point.
func (d *Dist) MaxTime() float64 { return float64(d.i0+len(d.p)-1) * d.dt }

// Mean returns the expected value.
func (d *Dist) Mean() float64 {
	m := 0.0
	for k, pk := range d.p {
		m += float64(d.i0+k) * pk
	}
	return m * d.dt
}

// Std returns the standard deviation.
func (d *Dist) Std() float64 {
	mean := d.Mean()
	v := 0.0
	for k, pk := range d.p {
		x := float64(d.i0+k)*d.dt - mean
		v += pk * x * x
	}
	return math.Sqrt(v)
}

// probEps absorbs float rounding when comparing cumulative
// probabilities: bin sums drift by ~1e-16 per operation, and a quantile
// query must not skip to the next bin over such noise.
const probEps = 1e-12

// cumsum returns the cached cumulative-sum array, computing it on first
// use: cumsum()[k] is the running sum p[0]+…+p[k] in index order —
// bit-identical to the accumulator the historical linear scans carried,
// so binary searches over it reproduce the scans exactly. Concurrent
// first queries may compute it twice; both arrays are identical and the
// atomic store is idempotent.
func (d *Dist) cumsum() []float64 {
	if c := d.cum.Load(); c != nil {
		return *c
	}
	c := make([]float64, len(d.p))
	s := 0.0
	for k, pk := range d.p {
		s += pk
		c[k] = s
	}
	d.cum.Store(&c)
	return c
}

// Percentile returns the p-quantile: the earliest grid point whose
// cumulative probability reaches p. The cumulative sums are cached on
// first query and binary-searched afterwards, so repeated quantile
// queries against one distribution (the slack/criticality tables) cost
// O(log n) instead of O(n).
//
// The domain is [0, 1]: p = 0 answers MinTime (modulo probEps), p = 1
// answers MaxTime. Out-of-domain inputs — NaN, p < 0, p > 1 — return
// NaN rather than silently snapping to an in-range quantile; a caller
// holding an unvalidated probability must check it, not launder it.
func (d *Dist) Percentile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	c := d.cumsum()
	thr := p - probEps
	k := sort.Search(len(c), func(i int) bool { return c[i] >= thr })
	if k == len(c) {
		return d.MaxTime()
	}
	return float64(d.i0+k) * d.dt
}

// CDF returns the probability of a value at or below t. Like
// Percentile it binary-searches the cached cumulative sums. A NaN
// query returns NaN (±Inf behave naturally: -Inf → 0, +Inf → 1).
func (d *Dist) CDF(t float64) float64 {
	if math.IsNaN(t) {
		return math.NaN()
	}
	thr := t + probEps*d.dt
	// n is the number of leading bins whose grid time is at or below
	// thr; grid times increase strictly with the index, so the
	// predicate is monotone.
	n := sort.Search(len(d.p), func(k int) bool { return float64(d.i0+k)*d.dt > thr })
	if n == 0 {
		return 0
	}
	return d.cumsum()[n-1]
}

// ShiftBins returns a copy displaced by n grid steps (negative n shifts
// earlier). The mass vector is shared, so a shift of a scratch view is
// itself a scratch view.
func (d *Dist) ShiftBins(n int) *Dist {
	return &Dist{dt: d.dt, i0: d.i0 + n, p: d.p, scratch: d.scratch}
}

// Persist returns d when it is an ordinary immutable value, or a
// compact heap copy when d is an arena-backed scratch view — the one
// operation that may move a kernel result out of scratch memory into a
// retained structure (an arrival slot, an overlay map, a snapshot).
func (d *Dist) Persist() *Dist {
	if !d.scratch {
		return d
	}
	p := make([]float64, len(d.p))
	copy(p, d.p)
	return &Dist{dt: d.dt, i0: d.i0, p: p}
}

// IsScratch reports whether d is an arena-backed view (valid only until
// its arena's next Reset).
func (d *Dist) IsScratch() bool { return d.scratch }

// Convolve returns the distribution of the sum of two independent
// variables — the arrival-plus-edge-delay step of SSTA. Exact on the
// lattice: indices add.
func Convolve(a, b *Dist) *Dist { return ConvolveInto(nil, a, b) }

// ConvolveInto is Convolve with the output mass vector and header drawn
// from ar; a nil arena allocates, making it identical to Convolve. The
// result values are bit-identical either way.
//
// Wide convolutions — both operand supports at or above fftMinSupport
// bins (see fft.go) — take an O(n log n) FFT route whose per-bin values
// agree with the direct kernel to ~1e-15 of mass; everything narrower
// runs the direct kernel bit for bit.
func ConvolveInto(ar *Arena, a, b *Dist) *Dist {
	if useFFT(len(a.p), len(b.p)) {
		return convolveFFTInto(ar, a, b)
	}
	return convolveDirectInto(ar, a, b)
}

// convolveDirectInto is the exact O(n·m) kernel: every output bin is
// the correctly-rounded sum of its contributing products, accumulated
// in ascending index of the narrower operand. The FFT route's results
// are validated against this kernel, so it must stay reachable without
// going through the dispatching ConvolveInto.
//
// The narrow operand's rows are processed in blocks of four, then two,
// then one, so one pass over the output loads and stores each bin once
// for up to four products instead of once per product. The bits are
// those of the plain row loop (one row at a time, products added to
// each bin in turn; refConvolveDirect in the tests): within a block
// each bin adds its products one at a time in ascending row order, and
// blocks run in ascending order, so every bin sees the same additions
// in the same order. A zero row adds +0 products, which leave a
// non-negative partial sum unchanged, so zero rows need no skip. The
// output is accumulated, so it needs zeroed memory.
func convolveDirectInto(ar *Arena, a, b *Dist) *Dist {
	out := scratchFloats(ar, len(a.p)+len(b.p)-1)
	// The shorter operand's rows are blocked so the inner loops run long
	// and contiguous over the wider one.
	x, y := a.p, b.p
	if len(x) > len(y) {
		x, y = y, x
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		convolveRows4(out[i:i+len(y)+3], x[i:i+4], y)
	}
	if i+2 <= len(x) {
		convolveRows2(out[i:i+len(y)+1], x[i:i+2], y)
		i += 2
	}
	if i < len(x) {
		xi, row := x[i], out[i:i+len(y)]
		y := y[:len(row)]
		for j := range row {
			row[j] += xi * y[j]
		}
	}
	return trimInto(ar, a.dt, a.i0+b.i0, out)
}

// convolveRows4 adds the products of four consecutive rows xs into o,
// where o[j] collects xs[r]·y[j-r]; len(y) >= 4 because y is the wider
// operand. The three bins at each end, which only some rows reach, are
// spelled out, each adding its products in ascending row order.
func convolveRows4(o, xs, y []float64) {
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	n := len(y)
	o[0] = o[0] + x0*y[0]
	o[1] = o[1] + x0*y[1] + x1*y[0]
	o[2] = o[2] + x0*y[2] + x1*y[1] + x2*y[0]
	om := o[3:n]
	y0 := y[3:n][:len(om)]
	y1 := y[2 : n-1][:len(om)]
	y2 := y[1 : n-2][:len(om)]
	y3 := y[:n-3][:len(om)]
	for j := range om {
		v := om[j]
		v += x0 * y0[j]
		v += x1 * y1[j]
		v += x2 * y2[j]
		v += x3 * y3[j]
		om[j] = v
	}
	ya, yb, yc := y[n-3], y[n-2], y[n-1]
	o[n] = o[n] + x1*yc + x2*yb + x3*ya
	o[n+1] = o[n+1] + x2*yc + x3*yb
	o[n+2] = o[n+2] + x3*yc
}

// convolveRows2 is convolveRows4 for a block of two rows.
func convolveRows2(o, xs, y []float64) {
	x0, x1 := xs[0], xs[1]
	n := len(y)
	o[0] = o[0] + x0*y[0]
	om := o[1:n]
	y0 := y[1:n][:len(om)]
	y1 := y[:n-1][:len(om)]
	for j := range om {
		v := om[j]
		v += x0 * y0[j]
		v += x1 * y1[j]
		om[j] = v
	}
	o[n] = o[n] + x1*y[n-1]
}

// MaxIndep returns the distribution of the maximum of two independent
// variables — the fanin merge of SSTA: the result CDF is the product of
// the operand CDFs, evaluated bin by bin on the common grid.
func MaxIndep(a, b *Dist) *Dist { return MaxIndepInto(nil, a, b) }

// MaxIndepInto is MaxIndep writing into arena scratch (nil arena
// allocates). When one operand dominates outright the operand itself is
// returned — possibly a scratch view, possibly a shared immutable value;
// callers that retain the result go through Persist either way.
//
// The merge runs in three parts, none with per-bin range checks. Over
// the bins where both operands have mass and neither has reached its
// last bin, it walks two equal-length slices with no snap-to-1 checks.
// At mid, the earlier last bin, both operands add a bin and each one
// ending there snaps; past mid only the other operand adds bins,
// against the first's fixed CDF. Each running CDF still gains its bins
// one at a time in index order, and each product and difference is
// formed exactly as in a single loop over the whole range (refMaxIndep
// in the tests), so the split changes no bit. Every output bin is
// written, so the output needs no zeroing.
func MaxIndepInto(ar *Arena, a, b *Dist) *Dist {
	// A strictly-later operand dominates outright: when one support ends
	// at or before the other begins, the maximum IS the later operand —
	// returned as-is, bit for bit. This is the exact cancellation the
	// optimizer's dead-front elision detects ("an unperturbed fanin
	// dominates the max"), and the common case on unbalanced fanins.
	if a.i0+len(a.p)-1 <= b.i0 {
		return b
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return a
	}
	lo := max(a.i0, b.i0)
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	hi := max(aHi, bHi)
	out := scratchUninitFloats(ar, hi-lo+1)
	// Prefix sums: accumulate each operand's CDF below lo in index
	// order — the same additions, in the same order, that the merge
	// loops below continue, so the running sums are bit-identical to a
	// single scan from each operand's first bin. (The dominance
	// shortcuts above guarantee neither prefix consumes a whole
	// operand, so no snap-to-1 check is needed here.)
	cumA, cumB := 0.0, 0.0
	for _, pk := range a.p[:lo-a.i0] {
		cumA += pk
	}
	for _, pk := range b.p[:lo-b.i0] {
		cumB += pk
	}
	prev := 0.0 // product of CDFs at the previous index; P(max < lo) = 0
	// Both operands have mass on [lo, mid) and neither ends there.
	mid := min(aHi, bHi)
	om := out[:mid-lo]
	pa := a.p[lo-a.i0 : mid-a.i0][:len(om)]
	pb := b.p[lo-b.i0 : mid-b.i0][:len(om)]
	for k := range om {
		cumA += pa[k]
		cumB += pb[k]
		prod := cumA * cumB
		om[k] = massStep(prod, prev)
		prev = prod
	}
	// At mid both operands add a bin, and each one ending there snaps.
	cumA = addBin(cumA, a.p[mid-a.i0], mid == aHi)
	cumB = addBin(cumB, b.p[mid-b.i0], mid == bHi)
	prod := cumA * cumB
	out[mid-lo] = massStep(prod, prev)
	prev = prod
	// On (mid, hi] only the operand ending at hi adds bins; the other's
	// CDF stays fixed. (Multiplication commutes exactly, so the product
	// needs no operand order.)
	rest, cumL, cumS := a.p[mid-a.i0+1:], cumA, cumB
	if bHi > aHi {
		rest, cumL, cumS = b.p[mid-b.i0+1:], cumB, cumA
	}
	tail := out[mid-lo+1:][:len(rest)]
	for k, pk := range rest {
		cumL = addBin(cumL, pk, k == len(rest)-1)
		prod := cumL * cumS
		tail[k] = massStep(prod, prev)
		prev = prod
	}
	return trimInto(ar, a.dt, lo, out)
}

// addBin adds one bin of mass p to a running CDF. At an operand's last
// bin a CDF within probEps of 1 snaps to exactly 1 (bin sums land at
// 1±ulps): a dominated operand then contributes the identity, so the
// max of X and a strictly-later Y reproduces Y bit for bit — the exact
// cancellation the optimizer's dead-front elision detects.
func addBin(cum, p float64, last bool) float64 {
	cum += p
	if last && math.Abs(cum-1) < probEps {
		return 1
	}
	return cum
}

// massStep is the mass of one max bin: the rise of the CDF product
// over the previous bin's, with rounding noise below zero clamped.
func massStep(prod, prev float64) float64 {
	m := prod - prev
	if m < 0 {
		m = 0
	}
	return m
}

// Neg returns the distribution of the negated variable: mass at grid
// point i moves to -i. Used to subtract independent variables by
// convolution (A - B = A + (-B)).
func (d *Dist) Neg() *Dist { return NegInto(nil, d) }

// NegInto is Neg writing into arena scratch (nil arena allocates).
//
// An empty support panics: a zero-length mass vector violates the
// nonzero-mass invariant every constructor maintains, and the
// historical behavior — returning a headerless distribution whose i0
// arithmetic was computed from len(p)-1 = -1 — produced a corrupt value
// that only failed far downstream.
func NegInto(ar *Arena, d *Dist) *Dist {
	if len(d.p) == 0 {
		panic("dist: Neg of an empty distribution (zero-length support violates the nonzero-mass invariant)")
	}
	p := scratchFloats(ar, len(d.p))
	for i, v := range d.p {
		p[len(p)-1-i] = v
	}
	i0 := -(d.i0 + len(d.p) - 1)
	if ar == nil {
		return &Dist{dt: d.dt, i0: i0, p: p}
	}
	return ar.newDist(d.dt, i0, p)
}

// SubConvolve returns the distribution of the difference A - B of two
// independent variables — the backward-propagation step of required-time
// analysis (required at a fanin = required at the fanout minus the edge
// delay). Exact on the lattice: indices subtract.
func SubConvolve(a, b *Dist) *Dist { return SubConvolveInto(nil, a, b) }

// SubConvolveInto is SubConvolve with both the negation and the
// convolution working in arena scratch (nil arena allocates).
func SubConvolveInto(ar *Arena, a, b *Dist) *Dist {
	return ConvolveInto(ar, a, NegInto(ar, b))
}

// MinIndep returns the distribution of the minimum of two independent
// variables — the fanout merge of backward required-time propagation:
// the survival function of the result is the product of the operand
// survival functions, evaluated bin by bin on the common grid.
func MinIndep(a, b *Dist) *Dist { return MinIndepInto(nil, a, b) }

// MinIndepInto is MinIndep writing into arena scratch (nil arena
// allocates); the dominance shortcuts return the operand itself, as in
// MaxIndepInto.
func MinIndepInto(ar *Arena, a, b *Dist) *Dist {
	// A strictly-earlier operand dominates outright: when one support
	// ends at or before the other begins, the minimum IS the earlier
	// operand — returned as-is, bit for bit (the mirror image of
	// MaxIndep's shortcut).
	if a.i0+len(a.p)-1 <= b.i0 {
		return a
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return b
	}
	lo := a.i0
	if b.i0 < lo {
		lo = b.i0
	}
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	hi := aHi
	if bHi < hi {
		hi = bHi
	}
	out := scratchFloats(ar, hi-lo+1)
	// lo is the smaller i0, so both CDFs below lo are exactly zero — the
	// prefix sums MaxIndepInto accumulates are trivial here.
	cumA, cumB := 0.0, 0.0
	// P(min <= t) = 1 - (1-Fa)(1-Fb); accumulate mass per bin as the
	// CDF difference, with the same snap-to-1 protection as MaxIndep.
	prev := 1 - (1-cumA)*(1-cumB)
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
		cur := 1 - (1-cumA)*(1-cumB)
		m := cur - prev
		if m < 0 {
			m = 0
		}
		out[i-lo] = m
		prev = cur
	}
	return trimInto(ar, a.dt, lo, out)
}

// ApproxEqual reports whether two distributions assign the same mass to
// every grid point within tol (tol = 0 demands bit equality) — the test
// the optimizer uses to detect that a perturbation has died out.
func ApproxEqual(a, b *Dist, tol float64) bool {
	if a == b {
		return true
	}
	if a.dt != b.dt {
		return false
	}
	lo, hi := a.i0, a.i0+len(a.p)-1
	if b.i0 < lo {
		lo = b.i0
	}
	if h := b.i0 + len(b.p) - 1; h > hi {
		hi = h
	}
	for i := lo; i <= hi; i++ {
		var ma, mb float64
		if k := i - a.i0; k >= 0 && k < len(a.p) {
			ma = a.p[k]
		}
		if k := i - b.i0; k >= 0 && k < len(b.p) {
			mb = b.p[k]
		}
		if diff := ma - mb; diff > tol || diff < -tol {
			return false
		}
	}
	return true
}

// MaxPercentileGap returns the largest horizontal gap between the
// quantile functions of a and b: sup over probability levels of
// (Q_a(p) − Q_b(p)), clamped at zero. When b is a leftward perturbation
// of a, this is the maximum arrival-time improvement at any percentile.
//
// Probability levels within probEps are treated as reached — the ε
// slack the optimizer's pruneSlack constant accounts for.
func MaxPercentileGap(a, b *Dist) float64 {
	gap := 0.0
	cumB := 0.0
	cumA := 0.0
	ja := 0 // bins of a consumed so far
	for k, pk := range b.p {
		cumB += pk
		if pk <= 0 {
			continue
		}
		for ja < len(a.p) && cumA < cumB-probEps {
			cumA += a.p[ja]
			ja++
		}
		// Q_a(cumB) is the last bin consumed; before any bin is consumed
		// the level is below probEps and the gap there is immaterial.
		if ja == 0 {
			continue
		}
		g := float64((a.i0+ja-1)-(b.i0+k)) * a.dt
		if g > gap {
			gap = g
		}
	}
	return gap
}

// PerturbationBound returns Δ for a perturbed arrival CDF against its
// base: the largest leftward shift at any probability level, an upper
// bound (Theorems 1–4) on how much any downstream percentile — and so
// the optimization objective — can improve.
func PerturbationBound(base, perturbed *Dist) float64 {
	return MaxPercentileGap(base, perturbed)
}
