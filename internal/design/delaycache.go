package design

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"statsize/internal/cell"
	"statsize/internal/dist"
)

// delayKey identifies one library delay-distribution evaluation. Widths
// and loads are keyed by their exact float64 bit patterns: sizing moves
// widths on the library's Δw lattice and loads are deterministic
// functions of the widths, so the key space is small in practice — and
// exact keying is what keeps cached results bit-identical to direct
// Lib.DelayDist calls (a coarser load quantization would silently
// change golden traces). The grid resolution participates because one
// process may analyze the same design at several bin budgets.
type delayKey struct {
	kind cell.Kind
	pin  int32
	dt   uint64
	w    uint64
	load uint64
}

// delayShards is the shard count of the cache: optimizer sweeps hit the
// cache from every worker at once, and sharding keeps the read-mostly
// RWMutexes uncontended without boxing keys the way sync.Map would
// (a sync.Map lookup allocates to box the struct key — fatal for the
// zero-allocation steady state).
const delayShards = 32

// delayShardCap bounds one shard's entry count. Widths live on the Δw
// lattice so growth is naturally bounded, but a caller sweeping
// arbitrary continuous widths must not turn the cache into a leak: a
// full shard is flushed wholesale (the entries are pure values and cost
// only recomputation).
const delayShardCap = 8 << 10

// DelayCache memoizes Lib.DelayDist evaluations. The cached *Dist
// values are immutable shared heap values (never arena scratch), so any
// number of goroutines may read them concurrently and forever — the
// copy-on-read-free contract the SSTA edge caches and perturbation
// overlays rely on.
//
// Because every input that influences the result is part of the key,
// entries never go stale: Resize, Clone and Rollback simply look up
// different keys, so the cache is shared by all clones of a design and
// needs no invalidation hooks. (That property is load-bearing — see
// DESIGN.md, "Memory model".)
type DelayCache struct {
	shards  [delayShards]delayShard
	flushes atomic.Uint64
}

// delayShard is one lock-striped slice of the cache. It carries its own
// hit/miss counters, padded with the lock onto a cache line of their
// own: a single global counter pair would be written by every lookup
// from every worker and bounce one line between all of them.
type delayShard struct {
	delayShardState
	_ [cacheLine - unsafe.Sizeof(delayShardState{})%cacheLine]byte
}

type delayShardState struct {
	mu     sync.RWMutex
	m      map[delayKey]*dist.Dist
	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheLine is the padding unit of delayShard (x86-64 and most arm64
// cores).
const cacheLine = 64

// NewDelayCache returns an empty cache.
func NewDelayCache() *DelayCache {
	c := &DelayCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[delayKey]*dist.Dist)
	}
	return c
}

// shardOf mixes the key fields into a shard index (fibonacci hashing on
// a xor-fold of the float bit patterns).
func shardOf(k delayKey) int {
	h := uint64(k.kind)<<8 | uint64(uint32(k.pin))
	h ^= k.w * 0x9e3779b97f4a7c15
	h ^= k.load * 0xc2b2ae3d27d4eb4f
	h ^= k.dt * 0x165667b19e3779f9
	h ^= h >> 29
	h *= 0x9e3779b97f4a7c15
	return int((h >> 56) % delayShards)
}

// DelayDist returns the memoized discretized delay distribution for the
// given evaluation point, computing and caching it on first sight.
func (c *DelayCache) DelayDist(lib *cell.Library, dt float64, kind cell.Kind, pin int, w, load float64) (*dist.Dist, error) {
	k := delayKey{
		kind: kind,
		pin:  int32(pin),
		dt:   math.Float64bits(dt),
		w:    math.Float64bits(w),
		load: math.Float64bits(load),
	}
	sh := &c.shards[shardOf(k)]
	sh.mu.RLock()
	d, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
		return d, nil
	}
	sh.misses.Add(1)
	d, err := lib.DelayDist(dt, kind, pin, w, load)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if len(sh.m) >= delayShardCap {
		sh.m = make(map[delayKey]*dist.Dist)
		c.flushes.Add(1)
	}
	// A racing goroutine may have stored the same key meanwhile; both
	// computed identical values, so last-write-wins is harmless.
	sh.m[k] = d
	sh.mu.Unlock()
	return d, nil
}

// Stats reports the cumulative hit/miss counters and the number of
// whole-shard flushes the capacity bound has forced. A non-zero flush
// count under a lattice-respecting workload means the cache is being
// fed continuous widths and is cycling instead of converging.
func (c *DelayCache) Stats() (hits, misses, flushes uint64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses, c.flushes.Load()
}

// Len returns the number of cached entries across all shards.
func (c *DelayCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}
