package graph

import "slices"

// A component is a subset of vertices inducing a connected subtree (§4.1).
// SubtreeOps provides the component operations the decompositions need:
// balancers (centroids), splitting a component by a vertex, and component
// neighborhoods. It owns scratch state sized to the tree, so one SubtreeOps
// can serve an entire recursive decomposition without allocating.
//
// SubtreeOps is not safe for concurrent use.
type SubtreeOps struct {
	t      *Tree
	in     []bool   // membership scratch for the component under operation
	size   []int    // subtree sizes for Balancer
	parent []Vertex // search-tree parents for Balancer
	queue  []Vertex // breadth-first queue for Balancer and IsComponent
}

// NewSubtreeOps returns component operations bound to t.
func NewSubtreeOps(t *Tree) *SubtreeOps {
	return &SubtreeOps{
		t:      t,
		in:     make([]bool, t.N()),
		size:   make([]int, t.N()),
		parent: make([]Vertex, t.N()),
		queue:  make([]Vertex, 0, t.N()),
	}
}

func (s *SubtreeOps) mark(comp []Vertex)   { s.setAll(comp, true) }
func (s *SubtreeOps) unmark(comp []Vertex) { s.setAll(comp, false) }

func (s *SubtreeOps) setAll(comp []Vertex, v bool) {
	for _, x := range comp {
		s.in[x] = v
	}
}

// Balancer returns a vertex z of comp such that deleting z splits comp into
// components each of size at most ⌊|comp|/2⌋ (a centroid of the induced
// subtree). comp must be a non-empty component; its order does not matter.
// Among the vertices minimising the largest remaining part, the
// lowest-numbered wins, so all processors compute the same decomposition
// locally.
//
//schedvet:hot
func (s *SubtreeOps) Balancer(comp []Vertex) Vertex {
	if len(comp) == 1 {
		return comp[0]
	}
	s.mark(comp)

	// Breadth-first search from comp[0] restricted to comp: every vertex
	// comes after its parent in order, so one reverse pass sums the
	// induced-subtree sizes.
	root := comp[0]
	s.parent[root] = -1
	order := append(s.queue[:0], root)
	for i := 0; i < len(order); i++ {
		v := order[i]
		s.size[v] = 1
		for _, w := range s.t.Adj(v) {
			if s.in[w] && w != s.parent[v] {
				s.parent[w] = v
				order = append(order, w)
			}
		}
	}
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		s.size[s.parent[v]] += s.size[v]
	}

	total := len(comp)
	best, bestMax := -1, total+1
	for _, v := range order {
		// Max component size if v is removed: the largest child subtree, or
		// the "rest of the component" above v.
		maxPart := total - s.size[v]
		for _, w := range s.t.Adj(v) {
			if s.in[w] && s.parent[w] == v && s.size[w] > maxPart {
				maxPart = s.size[w]
			}
		}
		if maxPart < bestMax || (maxPart == bestMax && v < best) {
			best, bestMax = v, maxPart
		}
	}
	s.queue = order[:0]
	s.unmark(comp)
	return best
}

// Split removes z from comp and appends the connected components of the
// remainder to parts. It permutes comp in place: the components become
// contiguous sub-slices of comp, in the order of z's neighbors and each in
// breadth-first order, and z moves to the last position. Neither the parts
// nor their members are sorted. comp must be a component containing z.
//
//schedvet:hot
func (s *SubtreeOps) Split(comp []Vertex, z Vertex, parts [][]Vertex) [][]Vertex {
	s.mark(comp)
	s.in[z] = false
	// comp's old contents are no longer needed once marked, so each part's
	// breadth-first queue is the region of comp it ends up occupying.
	// Clearing a vertex's mark as it is queued leaves every mark cleared at
	// the end, since every vertex of comp is reached through z's neighbors.
	w := 0
	for _, start := range s.t.Adj(z) {
		if !s.in[start] {
			continue
		}
		lo := w
		s.in[start] = false
		comp[w] = start
		w++
		for r := lo; r < w; r++ {
			for _, x := range s.t.Adj(comp[r]) {
				if s.in[x] {
					s.in[x] = false
					comp[w] = x
					w++
				}
			}
		}
		parts = append(parts, comp[lo:w:w])
	}
	comp[w] = z
	return parts
}

// Neighbors returns Γ[comp]: the vertices outside comp adjacent to some
// vertex of comp, in ascending order (nil when there are none).
func (s *SubtreeOps) Neighbors(comp []Vertex) []Vertex {
	return s.AppendNeighbors(nil, comp)
}

// AppendNeighbors appends Γ[comp] to dst in ascending order and returns the
// extended slice. It writes only past len(dst).
//
//schedvet:hot
func (s *SubtreeOps) AppendNeighbors(dst, comp []Vertex) []Vertex {
	s.mark(comp)
	base := len(dst)
	for _, v := range comp {
		for _, w := range s.t.Adj(v) {
			if !s.in[w] {
				dst = append(dst, w)
			}
		}
	}
	s.unmark(comp)
	nb := dst[base:]
	slices.Sort(nb)
	return dst[:base+len(slices.Compact(nb))]
}

// IsComponent reports whether comp induces a connected subtree of t.
func (s *SubtreeOps) IsComponent(comp []Vertex) bool {
	if len(comp) == 0 {
		return false
	}
	s.mark(comp)
	// Clear each mark as its vertex is reached; comp is connected exactly
	// when the search from comp[0] reaches all of it.
	s.in[comp[0]] = false
	queue := append(s.queue[:0], comp[0])
	for i := 0; i < len(queue); i++ {
		for _, w := range s.t.Adj(queue[i]) {
			if s.in[w] {
				s.in[w] = false
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue[:0]
	s.unmark(comp)
	return len(queue) == len(comp)
}
