package decomp

import "treesched/internal/graph"

// Balancing builds the balancing tree decomposition of §4.2 via BuildBalTD:
// recursively root each component at a balancer (centroid). Depth is at most
// ⌈log₂ n⌉+1, but the pivot size θ can be as large as the depth. It runs on
// the same flat kernel as Ideal, in O(n log n) time.
func Balancing(t *graph.Tree) *TreeDecomposition {
	b := newBuilder(t)
	b.h.Root = b.balancing(b.verts, -1)
	return b.h
}

// balancing implements the paper's BuildBalTD: find a balancer z of comp,
// split, recurse, and make the sub-roots children of z. Returns z.
//
//schedvet:hot
func (b *builder) balancing(comp []graph.Vertex, parent graph.Vertex) graph.Vertex {
	z := b.ops.Balancer(comp)
	b.place(z, parent, b.neighbors(comp))
	parts, base := b.split(comp, z)
	for _, part := range parts {
		b.balancing(part, z)
	}
	b.parts = b.parts[:base]
	return z
}
