package decomp

import "treesched/internal/graph"

// builder is the flat centroid kernel shared by Ideal and Balancing. Every
// component under construction is a contiguous sub-slice of one vertex
// arena, which graph.SubtreeOps.Split permutes in place; the Split results
// of the open recursion levels share one stack; and every pivot set is
// carved from one arena that is only ever appended to, so no Pivot slice
// aliases scratch that is rewritten later. A decomposition therefore costs
// a fixed number of allocations, independent of n, beyond amortised arena
// growth.
type builder struct {
	h      *TreeDecomposition
	ops    *graph.SubtreeOps
	verts  []graph.Vertex   // all vertices; components are sub-slices
	parts  [][]graph.Vertex // Split results of the open recursion levels
	gammas [][]graph.Vertex // Γ of each entry of parts (Ideal only)
	pivots []graph.Vertex   // arena the Pivot slices are carved from
}

func newBuilder(t *graph.Tree) *builder {
	n := t.N()
	b := &builder{
		h: &TreeDecomposition{
			T:      t,
			Parent: make([]graph.Vertex, n),
			Depth:  make([]int, n),
			Pivot:  make([][]graph.Vertex, n),
		},
		ops:    graph.NewSubtreeOps(t),
		verts:  make([]graph.Vertex, n),
		parts:  make([][]graph.Vertex, 0, n),
		pivots: make([]graph.Vertex, 0, 2*n),
	}
	for i := range b.verts {
		b.verts[i] = i
	}
	return b
}

// place makes v a node of H under parent (-1 for the root) with pivot set
// gamma. Nodes are placed top-down, so the parent's depth is known.
func (b *builder) place(v, parent graph.Vertex, gamma []graph.Vertex) {
	h := b.h
	h.Parent[v] = parent
	h.Pivot[v] = gamma
	if parent < 0 {
		h.Depth[v] = 1
	} else {
		h.Depth[v] = h.Depth[parent] + 1
	}
}

// neighbors returns Γ[comp] in ascending order, carved from the pivot
// arena with its capacity capped at its length; nil when Γ is empty.
func (b *builder) neighbors(comp []graph.Vertex) []graph.Vertex {
	lo := len(b.pivots)
	b.pivots = b.ops.AppendNeighbors(b.pivots, comp)
	return b.carve(lo)
}

// carve returns pivots[lo:] as a slice of its own (nil when empty).
func (b *builder) carve(lo int) []graph.Vertex {
	hi := len(b.pivots)
	if hi == lo {
		return nil
	}
	return b.pivots[lo:hi:hi]
}

// split pushes the components of comp - {z} onto the parts stack and
// returns them with the stack height to restore once they are processed.
// Deeper levels push past the returned parts, so they stay valid.
func (b *builder) split(comp []graph.Vertex, z graph.Vertex) (parts [][]graph.Vertex, base int) {
	base = len(b.parts)
	b.parts = b.ops.Split(comp, z, b.parts)
	return b.parts[base:], base
}
