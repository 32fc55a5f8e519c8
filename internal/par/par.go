// Package par provides the bounded fan-out primitives shared by the
// parallel evaluation paths: the SSTA pass's edge stage and forward
// workers, the session's what-if batches and the optimizers' candidate
// sweeps.
//
// Determinism is the design constraint, not raw throughput: callers
// index results by input position and never observe completion order,
// so running the same work across any number of workers produces
// bit-identical output. The helpers only distribute *pure* work — the
// mutation-free evaluation contract documented in DESIGN.md is what
// makes that distribution sound.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism setting: non-positive means "one
// worker per logical CPU" (the engine's WithParallelism default).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run invokes fn(i) for every i in [0, n) across at most workers
// goroutines and waits for all of them. Each fn call must write its
// result to a caller-owned slot indexed by i; slots are never shared
// between indices, so no synchronization is needed beyond the
// happens-before edge Run itself provides on return.
//
// Cancellation and failure: once the context dies or any fn returns an
// error, remaining indices are skipped (best effort — calls already in
// flight finish). The returned error is deterministic given a
// deterministic failure: the lowest-index fn error wins; a pure
// context cancellation returns ctx.Err().
//
// workers <= 1 (or n <= 1) degenerates to a serial loop on the calling
// goroutine, the reference the parallel paths are tested bit-identical
// against.
func Run(ctx context.Context, workers, n int, fn func(i int) error) error {
	return RunIndexed(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// RunIndexed is Run with the worker ordinal (in [0, workers)) passed to
// fn alongside the index — the hook per-worker scratch state (arenas,
// reusable maps) keys off. Which ordinal processes which index is
// scheduling-dependent, but one ordinal never runs two calls at once;
// everything else about the contract matches Run, and the serial
// degenerate case runs in index order and always reports ordinal 0.
func RunIndexed(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = min(Workers(workers), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		firstI = n // lowest failed index; n when no failure
		firstE error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < firstI {
						firstI, firstE = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return firstE
	}
	return ctx.Err()
}
