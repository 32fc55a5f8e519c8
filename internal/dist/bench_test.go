package dist

import (
	"fmt"
	"testing"
)

// kernelOperands builds two Gaussian operands of nearly equal width on
// a grid of dt = 1/bins: their ±3σ supports span about bins/2 and
// 0.55·bins bins. The rows keyed by it track the kernels' scaling with
// width; the forward pass's real shapes are in supportOperand's rows.
func kernelOperands(b *testing.B, bins int) (*Dist, *Dist) {
	b.Helper()
	// sigma = mean/6, so the ±3σ support spans mean/dt = mean·bins steps.
	dt := 1.0 / float64(bins)
	x := mustGauss(b, dt, 0.50, 0.50/6)
	y := mustGauss(b, dt, 0.55, 0.55/6)
	return x, y
}

// supportOperand builds a Gaussian-shaped operand of exactly n support
// bins starting at grid index i0 (dt = 1).
func supportOperand(b *testing.B, n, i0 int) *Dist {
	b.Helper()
	d := Point(1, float64(i0))
	if n > 1 {
		d = mustGauss(b, 1, float64(i0)+float64(n-1)/2, float64(n-1)/6)
	}
	if d.NumBins() != n || d.I0() != i0 {
		b.Fatalf("support operand: got %d bins at %d, want %d at %d", d.NumBins(), d.I0(), n, i0)
	}
	return d
}

// BenchmarkDistKernels measures the numeric core at representative bin
// counts, in both the allocating and the arena (Into) forms — the
// machine-readable perf trajectory cmd/benchreport records per PR.
// Run with -benchmem: the Into forms must show 0 allocs/op warm.
//
// Convolve rows dispatch on operand width (wide shapes take the FFT);
// ConvolveFFT rows call the FFT route directly so its own trajectory is
// visible even at widths the dispatcher would serve directly.
//
// The rows named by support width are the shapes a brute-force sizing
// iteration at the default 600-bin grid feeds the kernels: a gate
// delay of 4–8 bins (sometimes 1) convolved with an arrival of 25–125
// bins, and maxes whose supports overlap by 50–125 bins with a
// one-operand tail mostly under 25 bins.
func BenchmarkDistKernels(b *testing.B) {
	type shape struct {
		name string
		run  func(ar *Arena) *Dist
	}
	var shapes []shape
	for _, w := range [][2]int{{1, 100}, {5, 75}, {8, 125}} {
		x, y := supportOperand(b, w[0], 3), supportOperand(b, w[1], 40)
		shapes = append(shapes, shape{fmt.Sprintf("Convolve/%dx%d", w[0], w[1]), func(ar *Arena) *Dist { return ConvolveInto(ar, x, y) }})
	}
	for _, w := range [][2]int{{100, 10}, {50, 25}} {
		// Both operands span overlap+tail bins, b starting tail bins
		// later: they share overlap bins and b alone has the last tail.
		x, y := supportOperand(b, w[0]+w[1], 0), supportOperand(b, w[0]+w[1], w[1])
		shapes = append(shapes, shape{fmt.Sprintf("MaxIndep/overlap%dtail%d", w[0], w[1]), func(ar *Arena) *Dist { return MaxIndepInto(ar, x, y) }})
	}
	for _, s := range shapes {
		ar := NewArena()
		b.Run(s.name+"/into", func(b *testing.B) {
			b.ReportAllocs()
			s.run(ar) // warm the arena before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				s.run(ar)
			}
		})
	}
	for _, bins := range []int{400, 1600, 6400} {
		x, y := kernelOperands(b, bins)
		ar := NewArena()
		b.Run(fmt.Sprintf("ConvolveFFT/bins%d/into", bins), func(b *testing.B) {
			b.ReportAllocs()
			ar.Reset()
			convolveFFTInto(ar, x, y) // warm the arena and twiddle tables
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				convolveFFTInto(ar, x, y)
			}
		})
	}
	for _, bins := range []int{100, 400, 1600} {
		x, y := kernelOperands(b, bins)
		ar := NewArena()
		kernels := []struct {
			name  string
			alloc func() *Dist
			into  func() *Dist
		}{
			{"Convolve", func() *Dist { return Convolve(x, y) }, func() *Dist { return ConvolveInto(ar, x, y) }},
			{"MaxIndep", func() *Dist { return MaxIndep(x, y) }, func() *Dist { return MaxIndepInto(ar, x, y) }},
			{"MinIndep", func() *Dist { return MinIndep(x, y) }, func() *Dist { return MinIndepInto(ar, x, y) }},
			{"SubConvolve", func() *Dist { return SubConvolve(x, y) }, func() *Dist { return SubConvolveInto(ar, x, y) }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/bins%d/alloc", k.name, bins), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.alloc()
				}
			})
			b.Run(fmt.Sprintf("%s/bins%d/into", k.name, bins), func(b *testing.B) {
				b.ReportAllocs()
				ar.Reset()
				k.into() // warm the arena before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ar.Reset()
					k.into()
				}
			})
		}
	}
}

// BenchmarkPercentile measures the cached quantile query against a
// fresh distribution (first query pays the cumulative-sum build) and a
// warm one (binary search only) — the satellite fix for timingreport's
// per-gate slack table.
func BenchmarkPercentile(b *testing.B) {
	x, y := kernelOperands(b, 1600)
	d := Convolve(x, y)
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		d.Percentile(0.99) // build the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Percentile(0.99)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := Convolve(x, y)
			b.StartTimer()
			fresh.Percentile(0.99)
		}
	})
}
