package design

import (
	"math"
	"sync"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

func cacheTestDesign(t *testing.T) *Design {
	t.Helper()
	lib := cell.Default180nm()
	d, err := New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDelayCacheBitIdentical: every cached edge-delay distribution is
// bit-identical to a direct library evaluation, across resizes (new
// keys), rollbacks (old keys again) and hypothetical overrides.
func TestDelayCacheBitIdentical(t *testing.T) {
	d := cacheTestDesign(t)
	const dt = 0.001
	check := func(stage string) {
		t.Helper()
		for e := 0; e < d.E.G.NumEdges(); e++ {
			eid := graph.EdgeID(e)
			g := d.E.EdgeGate[eid]
			if g == netlist.NoGate {
				continue
			}
			gate := d.NL.Gate(g)
			got, err := d.EdgeDelayDist(dt, eid)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.Lib.DelayDist(dt, gate.Kind, d.E.EdgePin[eid], d.Width(g), d.Load(gate.Out))
			if err != nil {
				t.Fatal(err)
			}
			if got.DT() != want.DT() || got.I0() != want.I0() || got.NumBins() != want.NumBins() {
				t.Fatalf("%s: edge %d header differs from direct evaluation", stage, e)
			}
			for k := 0; k < want.NumBins(); k++ {
				if got.MassAt(k) != want.MassAt(k) {
					t.Fatalf("%s: edge %d mass[%d] = %x, direct %x", stage, e, k, got.MassAt(k), want.MassAt(k))
				}
			}
		}
	}
	check("initial")
	st := d.Snapshot()
	d.SetWidth(0, d.Width(0)+d.Lib.DeltaW)
	d.SetWidth(2, d.Width(2)+2*d.Lib.DeltaW)
	check("after resize")
	d.Restore(st)
	check("after rollback")
	hits, misses, flushes, entries := d.DelayCacheStats()
	if hits == 0 || misses == 0 || entries == 0 {
		t.Errorf("cache did not engage: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	if flushes != 0 {
		t.Errorf("lattice-respecting workload flushed the cache %d times", flushes)
	}
	// The rollback re-queried the initial keys: those must be hits, not
	// fresh entries — exact keying makes invalidation unnecessary.
	if int(misses) != entries {
		t.Errorf("misses (%d) should equal distinct entries (%d)", misses, entries)
	}
}

// TestDelayCacheSharedByClone: clones share the memo cache (entries are
// pure values of the library, not of any one sizing state).
func TestDelayCacheSharedByClone(t *testing.T) {
	d := cacheTestDesign(t)
	c := d.Clone()
	if d.delays != c.delays {
		t.Fatal("Clone did not share the delay cache")
	}
	const dt = 0.001
	if _, err := d.EdgeDelayDist(dt, firstGateEdge(t, d)); err != nil {
		t.Fatal(err)
	}
	h0, m0, _, _ := c.DelayCacheStats()
	if _, err := c.EdgeDelayDist(dt, firstGateEdge(t, c)); err != nil {
		t.Fatal(err)
	}
	h1, m1, _, _ := c.DelayCacheStats()
	if h1 != h0+1 || m1 != m0 {
		t.Errorf("clone re-derived a cached distribution: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
}

func firstGateEdge(t *testing.T, d *Design) graph.EdgeID {
	t.Helper()
	for e := 0; e < d.E.G.NumEdges(); e++ {
		if d.E.EdgeGate[graph.EdgeID(e)] != netlist.NoGate {
			return graph.EdgeID(e)
		}
	}
	t.Fatal("no gate edges")
	return 0
}

// TestDelayCacheConcurrent hammers one cache from many goroutines mixing
// overlapping keys — run under -race this is the concurrency contract.
func TestDelayCacheConcurrent(t *testing.T) {
	d := cacheTestDesign(t)
	const dt = 0.001
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := graph.EdgeID((seed + i) % d.E.G.NumEdges())
				if d.E.EdgeGate[e] == netlist.NoGate {
					continue
				}
				over := map[netlist.GateID]float64{netlist.GateID(i % d.NL.NumGates()): 1 + 0.5*float64(i%4)}
				if _, err := d.EdgeDelayDistAtWidths(dt, e, over); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDelayCacheCapFlush: overflowing a shard flushes it instead of
// growing without bound.
func TestDelayCacheCapFlush(t *testing.T) {
	c := NewDelayCache()
	lib := cell.Default180nm()
	// Sweep distinct loads well past the total capacity; the keys spread
	// over the shards roughly uniformly, so at this volume some shard
	// must cross its cap. The huge dt keeps every distribution a single
	// bin, so the sweep is cheap.
	for i := 0; i < delayShards*delayShardCap*5/4; i++ {
		load := 1.0 + float64(i)*1e-9
		if _, err := c.DelayDist(lib, 1000.0, cell.INV, 0, 1.0, load); err != nil {
			t.Fatal(err)
		}
	}
	if got, max := c.Len(), delayShards*delayShardCap; got > max {
		t.Errorf("cache grew past its cap: %d entries > %d", got, max)
	}
	if _, _, flushes := c.Stats(); flushes == 0 {
		t.Error("overflow sweep recorded no shard flushes")
	}
}

// TestDelayCacheStatsAccounting pins the exact hit/miss/flush/entry
// arithmetic: every distinct evaluation point is one miss and one
// entry, every repeat is one hit, and no lattice workload ever flushes.
func TestDelayCacheStatsAccounting(t *testing.T) {
	c := NewDelayCache()
	lib := cell.Default180nm()
	const dt = 0.01
	points := []struct {
		kind    cell.Kind
		pin     int
		w, load float64
	}{
		{cell.INV, 0, 1.0, 5.0},
		{cell.INV, 0, 1.5, 5.0}, // same cell, new width -> new key
		{cell.INV, 0, 1.0, 6.0}, // same cell, new load -> new key
		{cell.NAND2, 1, 1.0, 5.0},
	}
	for round := 0; round < 3; round++ {
		for _, pt := range points {
			if _, err := c.DelayDist(lib, dt, pt.kind, pt.pin, pt.w, pt.load); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses, flushes := c.Stats()
	if want := uint64(len(points)); misses != want {
		t.Errorf("misses = %d, want %d (one per distinct point)", misses, want)
	}
	if want := uint64(2 * len(points)); hits != want {
		t.Errorf("hits = %d, want %d (two warm rounds)", hits, want)
	}
	if flushes != 0 {
		t.Errorf("flushes = %d, want 0", flushes)
	}
	if got, want := c.Len(), len(points); got != want {
		t.Errorf("entries = %d, want %d", got, want)
	}
	// A different grid resolution is a different evaluation point.
	if _, err := c.DelayDist(lib, dt/2, cell.INV, 0, 1.0, 5.0); err != nil {
		t.Fatal(err)
	}
	if _, misses2, _ := c.Stats(); misses2 != misses+1 {
		t.Errorf("dt change did not miss: misses %d -> %d", misses, misses2)
	}
}

// TestDelayCacheFlushCounter forces a single targeted shard past its
// cap and checks the flush counter and entry accounting: after the
// flush the shard restarts from the overflowing entry, and flushed keys
// miss again on re-query (recomputation, not corruption).
func TestDelayCacheFlushCounter(t *testing.T) {
	c := NewDelayCache()
	lib := cell.Default180nm()
	const dt = 1000.0 // huge grid -> single-bin dists, cheap to compute
	// Collect delayShardCap+1 evaluation points that land in one shard.
	target := -1
	var ws []float64
	for i := 0; len(ws) <= delayShardCap; i++ {
		w := 1.0 + float64(i)*1e-6
		k := delayKey{kind: cell.INV, pin: 0, dt: math.Float64bits(dt), w: math.Float64bits(w), load: math.Float64bits(5.0)}
		if target == -1 {
			target = shardOf(k)
		}
		if shardOf(k) == target {
			ws = append(ws, w)
		}
	}
	for _, w := range ws {
		if _, err := c.DelayDist(lib, dt, cell.INV, 0, w, 5.0); err != nil {
			t.Fatal(err)
		}
	}
	_, misses, flushes := c.Stats()
	if flushes != 1 {
		t.Fatalf("flushes = %d, want exactly 1 after %d inserts into one shard", flushes, len(ws))
	}
	if want := uint64(len(ws)); misses != want {
		t.Errorf("misses = %d, want %d", misses, want)
	}
	if got := c.shards[target].m; len(got) != 1 {
		t.Errorf("flushed shard holds %d entries, want 1 (the overflowing insert)", len(got))
	}
	// A flushed key is recomputed, served, and recached.
	d1, err := c.DelayDist(lib, dt, cell.INV, 0, ws[0], 5.0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lib.DelayDist(dt, cell.INV, 0, ws[0], 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(d1, want, 0) {
		t.Error("re-query after flush returned a different distribution")
	}
	if _, misses2, _ := c.Stats(); misses2 != misses+1 {
		t.Errorf("re-query after flush should miss: misses %d -> %d", misses, misses2)
	}
}

// TestDelayCacheConcurrentStatsConserved: with the hit/miss counters
// sharded, every lookup from every goroutine is still counted exactly
// once — hits + misses equals the number of lookups made.
func TestDelayCacheConcurrentStatsConserved(t *testing.T) {
	const goroutines, lookups = 8, 500
	c := NewDelayCache()
	lib := cell.Default180nm()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				// 40 distinct widths spread the lookups over the shards
				// and mix misses (first sight, including racing first
				// sights) with hits.
				w := 1 + 0.5*float64((g+i)%40)
				if _, err := c.DelayDist(lib, 0.01, cell.NAND2, i%2, w, 5.0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses != goroutines*lookups {
		t.Errorf("hits %d + misses %d = %d, want %d lookups", hits, misses, hits+misses, goroutines*lookups)
	}
	if misses < uint64(c.Len()) {
		t.Errorf("misses %d below the %d distinct entries", misses, c.Len())
	}
}
