package decomp

import (
	"slices"

	"treesched/internal/graph"
	"treesched/internal/model"
)

// Layered is a layered decomposition (§4.4) of one tree-network: an
// assignment of every demand instance to a group 1..Length (the paper's σ,
// group 1 processed first) plus the critical-edge map π. It is derived from
// a tree decomposition via Lemma 4.2, so ∆ = 2(θ+1) and Length = depth(H).
// A Layered is immutable and carries no scratch, so it is safe for
// concurrent use; the root package shares one across Solver and Session
// goroutines.
type Layered struct {
	H      *TreeDecomposition
	Length int // number of groups ℓ
}

// NewLayered wraps a tree decomposition as a layered decomposition.
func NewLayered(h *TreeDecomposition) *Layered {
	return &Layered{H: h, Length: h.MaxDepth()}
}

// Assign computes the group index (1-based; 1 = processed first = captured
// deepest) and the critical edges π(d) for the demand instance with
// endpoints u, v, following the construction in the proof of Lemma 4.2:
// π(d) contains the wings of the capture node µ(d) on path(d) plus, for
// each pivot neighbor of C(µ(d)), the wings of the bending point of d with
// respect to that neighbor. |π(d)| ≤ 2(θ+1). It is AssignInstance over the
// u–v path; item construction calls AssignInstance directly.
func (l *Layered) Assign(u, v graph.Vertex) (group int, critical []graph.EdgeID) {
	edges := l.H.T.PathEdges(u, v)
	di := model.DemandInstance{U: u, V: v, Path: make([]model.EdgeKey, len(edges))}
	for i, e := range edges {
		di.Path[i] = model.MakeEdgeKey(0, e)
	}
	group, keys := l.AssignInstance(&di)
	for _, k := range keys {
		critical = append(critical, k.Edge())
	}
	return group, critical
}

// AssignInstance is Assign for a demand instance, producing critical edges
// as global EdgeKeys on the instance's tree. It reads the path the instance
// already carries — di.Path must hold the di.U–di.V path in order, as
// model.Expand builds it — so the returned critical slice is its only
// allocation.
//
//schedvet:hot
func (l *Layered) AssignInstance(di *model.DemandInstance) (group int, critical []model.EdgeKey) {
	t, h := l.H.T, l.H
	path := di.Path
	// Walk the path from U: each edge leads to whichever of its endpoints
	// (the edge id itself, or its parent) the walk is not at. The capture
	// node µ(d) is the first vertex of least H-depth, at position iz.
	z, iz, x := di.U, 0, di.U
	for i, k := range path {
		if e := k.Edge(); t.Parent(e) == x {
			x = e
		} else {
			x = t.Parent(e)
		}
		if h.Depth[x] < h.Depth[z] {
			z, iz = x, i+1
		}
	}
	group = l.Length - h.Depth[z] + 1

	var buf [6]model.EdgeKey // 2(θ+1) for the ideal decomposition's θ ≤ 2
	crit := addWings(buf[:0], path, iz)
	for _, nb := range h.Pivot[z] {
		// Bending point of d with respect to nb: the unique path vertex
		// closest to nb, i.e. the median of the endpoints and nb. Its
		// position on the path is its distance from U.
		y := t.Median(di.U, di.V, nb)
		crit = addWings(crit, path, t.Dist(di.U, y))
	}
	critical = make([]model.EdgeKey, len(crit))
	copy(critical, crit)
	return group, critical
}

// addWings appends the path edges on either side of position i (the
// vertex between path[i-1] and path[i]) that crit does not hold yet.
func addWings(crit, path []model.EdgeKey, i int) []model.EdgeKey {
	if i > 0 && !slices.Contains(crit, path[i-1]) {
		crit = append(crit, path[i-1])
	}
	if i < len(path) && !slices.Contains(crit, path[i]) {
		crit = append(crit, path[i])
	}
	return crit
}

// MaxCriticalSize returns the guaranteed bound ∆ = 2(θ+1) of Lemma 4.2.
func (l *Layered) MaxCriticalSize() int {
	return 2 * (l.H.PivotSize() + 1)
}

// LineAssign computes the group and critical slots for a line demand
// instance per §7: groups partition instances by length into
// ⌈log₂(Lmax/Lmin)⌉+1 categories (group i holds lengths in
// [2^(i-1)·Lmin, 2^i·Lmin)), and π(d) = {s(d), mid(d), e(d)}, so ∆ = 3.
// lmin is the minimum instance length over the whole input.
func LineAssign(di *model.LineDemandInstance, lmin int) (group int, critical []int) {
	group = 1
	for l := di.Len(); l >= 2*lmin; l /= 2 {
		group++
	}
	critical = append(critical, di.Start)
	if m := di.Mid(); m != di.Start && m != di.End {
		critical = append(critical, m)
	}
	if di.End != di.Start {
		critical = append(critical, di.End)
	}
	return group, critical
}

// LineGroups returns the number of groups for the given length range:
// ⌈log₂(Lmax/Lmin)⌉+1 (at least 1).
func LineGroups(lmin, lmax int) int {
	g := 1
	for l := lmax; l >= 2*lmin; l /= 2 {
		g++
	}
	return g
}
