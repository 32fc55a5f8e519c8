// Package flagged seeds the ctxflow violation classes: context-taking
// functions that loop at propagation scale without observing their
// context.
package flagged

import (
	"context"

	"statsize/internal/graph"
)

func pending(n int) bool { return n > 0 }
func step(n int) int     { return n - 1 }

// Dropped takes a context and loops but never touches ctx at all.
func Dropped(ctx context.Context, nodes []graph.NodeID) int { // want `Dropped accepts a context but never observes it`
	total := 0
	for _, n := range nodes {
		total += int(n)
	}
	return total
}

// Unchecked observes ctx once up front, but neither propagation-scale
// loop below is covered by a check or an observing ancestor.
func Unchecked(ctx context.Context, nodes []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sum := 0
	for _, n := range nodes { // want `loop over timing-graph nodes/edges in Unchecked does not observe`
		sum += int(n)
	}
	for pending(sum) { // want `unbounded loop in Unchecked does not observe`
		sum = step(sum)
	}
	return nil
}

type front struct{ pending []int }

func (f *front) Done() bool { return len(f.pending) == 0 }

func (f *front) Advance() { f.pending = f.pending[1:] }

// HintFront is a miniature of the acceleratedIteration hint-front loop
// this analyzer caught in the real tree (fixed in the same change that
// introduced the check): a run-to-the-sink drain with no cancellation
// check, outside the heap loop's strided ctx.Err.
func HintFront(ctx context.Context, f *front) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for !f.Done() { // want `unbounded loop in HintFront does not observe`
		f.Advance()
	}
	return nil
}
