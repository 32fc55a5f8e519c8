package sta

import (
	"container/heap"

	"statsize/internal/graph"
)

// Path is one source-to-sink path with its nominal delay.
type Path struct {
	Edges []graph.EdgeID
	Delay float64
}

// TopPaths enumerates the k longest source-to-sink paths in descending
// delay order using best-first search with an exact suffix bound: a
// partial path from the source is expanded in order of
// (delay so far + longest remaining suffix), so paths pop in exact rank
// order and the search touches only what the top k require. This powers
// timing reports and the near-critical-path analyses around Figure 1.
func (r *Result) TopPaths(k int) []Path {
	if k <= 0 {
		return nil
	}
	g := r.d.E.G
	// suffix[n] = longest delay from n to the sink.
	suffix := make([]float64, g.NumNodes())
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		for _, eid := range g.Out(n) {
			e := g.EdgeAt(eid)
			if t := r.d.EdgeNominalDelay(eid) + suffix[e.To]; t > suffix[n] {
				suffix[n] = t
			}
		}
	}
	h := &partialHeap{}
	heap.Push(h, &partial{node: g.Source(), bound: suffix[g.Source()]})
	var out []Path
	for h.Len() > 0 && len(out) < k {
		p := heap.Pop(h).(*partial)
		if p.node == g.Sink() {
			out = append(out, Path{Edges: p.edges(), Delay: p.delay})
			continue
		}
		for _, eid := range g.Out(p.node) {
			e := g.EdgeAt(eid)
			d := p.delay + r.d.EdgeNominalDelay(eid)
			heap.Push(h, &partial{
				node:  e.To,
				delay: d,
				bound: d + suffix[e.To],
				edge:  eid,
				prev:  p,
			})
		}
	}
	return out
}

// partial is a prefix path stored as a parent chain to avoid slice
// copies during search.
type partial struct {
	node  graph.NodeID
	delay float64
	bound float64
	edge  graph.EdgeID
	prev  *partial
}

func (p *partial) edges() []graph.EdgeID {
	var rev []graph.EdgeID
	for q := p; q.prev != nil; q = q.prev {
		rev = append(rev, q.edge)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

type partialHeap []*partial

func (h partialHeap) Len() int           { return len(h) }
func (h partialHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h partialHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *partialHeap) Push(x any)        { *h = append(*h, x.(*partial)) }
func (h *partialHeap) Pop() any          { old := *h; p := old[len(old)-1]; *h = old[:len(old)-1]; return p }
