package decomp

import (
	"slices"

	"treesched/internal/graph"
)

// Ideal builds the ideal tree decomposition of §4.3 (Lemma 4.1): depth
// O(log n) and pivot size θ ≤ 2. Every recursion level adds at most two
// nodes to H — a balancer z and, in Case 2(b), a junction j — while halving
// the component size, so the depth is at most 2⌈log₂ n⌉+1.
//
// The construction is fully deterministic (balancers and junctions are
// unique or tie-broken by vertex number), so every processor in the
// distributed algorithm computes the same decomposition locally.
//
// It takes O(n log n) time: each of the O(log n) levels runs a balancer
// search, a split and neighborhood scans linear in the components at that
// level. It allocates a fixed number of slices, whatever n: the H arrays,
// the scratch of one graph.SubtreeOps, a vertex arena the components are
// permuted within, and one arena all pivot sets are carved from (grown by
// amortised doubling past 2n entries).
func Ideal(t *graph.Tree) *TreeDecomposition {
	b := newBuilder(t)
	b.gammas = make([][]graph.Vertex, 0, t.N())
	// Top level: root H at a balancer g of the whole vertex set; the parts
	// of V - {g} each have Γ = {g} (one neighbor), satisfying BuildIdealTD's
	// precondition.
	b.h.Root = b.ideal(b.verts, nil, -1)
	return b.h
}

// ideal implements the paper's BuildIdealTD. comp must be a component with
// at most two neighbors (gamma). The resulting subtree of H is attached
// under parent, guarantees |Γ[C(x)]| ≤ 2 for every node x it creates, and
// its root is returned.
//
//schedvet:hot
func (b *builder) ideal(comp, gamma []graph.Vertex, parent graph.Vertex) graph.Vertex {
	if len(gamma) > 2 {
		panic("decomp: BuildIdealTD precondition violated: component has more than two neighbors")
	}
	if len(comp) == 1 {
		b.place(comp[0], parent, gamma)
		return comp[0]
	}
	z := b.ops.Balancer(comp)
	parts, gammas, base := b.splitIdeal(comp, z)

	// Case 2(b) applies when some part would see three neighbors
	// {u1, u2, z}: both outside neighbors attach through the same part.
	// At most one part can.
	root, c1 := z, -1
	if len(gamma) == 2 {
		c1 = slices.IndexFunc(gammas, func(nb []graph.Vertex) bool { return len(nb) == 3 })
	}
	if c1 >= 0 {
		root = b.idealCase2b(z, parts, gammas, c1, gamma, parent)
	} else {
		// Case 1 / Case 2(a) / degenerate cases: every part already has at
		// most two neighbors, so recurse directly with z as the subtree
		// root.
		b.place(z, parent, gamma)
		for pi, part := range parts {
			b.ideal(part, gammas[pi], z)
		}
	}
	b.parts, b.gammas = b.parts[:base], b.gammas[:base]
	return root
}

// idealCase2b handles §4.3 Case 2(b): the part c1 := parts[c1Index] of
// comp - {z} is adjacent to both outside neighbors u1, u2 (and to z). The
// junction j = median(u1, u2, z) splits c1 so that every resulting component
// has at most two neighbors. H gains two nodes: j (the subtree root, with
// pivot set gamma, returned) and z (a child of j, with pivot set {j}); the
// z-side subpart of c1 and the parts other than c1 hang under z, the
// remaining subparts of c1 hang under j.
//
//schedvet:hot
func (b *builder) idealCase2b(z graph.Vertex, parts, gammas [][]graph.Vertex,
	c1Index int, gamma []graph.Vertex, parent graph.Vertex) graph.Vertex {

	j := b.h.T.Median(gamma[0], gamma[1], z)
	b.place(j, parent, gamma)
	lo := len(b.pivots)
	b.pivots = append(b.pivots, j)
	b.place(z, j, b.carve(lo))

	for pi, part := range parts {
		if pi != c1Index {
			// Γ(part) = {z}: u1 and u2 attach through c1 only.
			b.ideal(part, gammas[pi], z)
		}
	}
	c1 := parts[c1Index]
	if len(c1) == 1 {
		// c1 = {j}: nothing left to split.
		if c1[0] != j {
			panic("decomp: Case 2(b) junction is not the sole member of c1")
		}
		return j
	}
	subs, nbs, base := b.splitIdeal(c1, j)
	for si, sub := range subs {
		nb := nbs[si]
		if slices.Contains(nb, z) {
			// The z-side subpart: Γ = {j, z}; it becomes part of C(z), so
			// hang it under z. (Γ[C(z)] stays {j}.)
			b.ideal(sub, nb, z)
		} else {
			b.ideal(sub, nb, j)
		}
	}
	b.parts, b.gammas = b.parts[:base], b.gammas[:base]
	return j
}

// splitIdeal is split that also pushes each part's Γ onto the gammas stack,
// which stays level with the parts stack.
func (b *builder) splitIdeal(comp []graph.Vertex, z graph.Vertex) (parts, gammas [][]graph.Vertex, base int) {
	parts, base = b.split(comp, z)
	for _, part := range parts {
		b.gammas = append(b.gammas, b.neighbors(part))
	}
	return parts, b.gammas[base:], base
}
