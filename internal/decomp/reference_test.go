package decomp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
	"treesched/internal/model"
)

// This file keeps the original map-based decomposition code as test-only
// oracles: refOps' balancer, split and neighbors (a parent map per balancer
// call, sorted parts), refIdeal and refBalancing over them, and refAssign
// (PathVertices/PathEdges plus position and seen maps). The flat kernel in
// kernel.go, ideal.go, balance.go and layered.go must reproduce them
// bitwise.

// refOps is the original graph.SubtreeOps: membership and visit scratch,
// with a parent map allocated per Balancer call.
type refOps struct {
	t    *graph.Tree
	in   []bool
	size []int
	seen []bool
}

func newRefOps(t *graph.Tree) *refOps {
	return &refOps{t: t, in: make([]bool, t.N()), size: make([]int, t.N()), seen: make([]bool, t.N())}
}

func (s *refOps) setAll(comp []graph.Vertex, v bool) {
	for _, x := range comp {
		s.in[x] = v
	}
}

func (s *refOps) balancer(comp []graph.Vertex) graph.Vertex {
	if len(comp) == 1 {
		return comp[0]
	}
	s.setAll(comp, true)
	defer s.setAll(comp, false)
	root := comp[0]
	parent := map[graph.Vertex]graph.Vertex{root: -1}
	order := make([]graph.Vertex, 0, len(comp))
	stack := []graph.Vertex{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, w := range s.t.Adj(v) {
			if s.in[w] && w != parent[v] {
				parent[w] = v
				stack = append(stack, w)
			}
		}
	}
	for _, v := range order {
		s.size[v] = 1
	}
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		s.size[parent[v]] += s.size[v]
	}
	total := len(comp)
	best, bestMax := -1, total+1
	for _, v := range order {
		maxPart := total - s.size[v]
		for _, w := range s.t.Adj(v) {
			if s.in[w] && parent[w] == v && s.size[w] > maxPart {
				maxPart = s.size[w]
			}
		}
		if maxPart < bestMax || (maxPart == bestMax && v < best) {
			best, bestMax = v, maxPart
		}
	}
	return best
}

func (s *refOps) split(comp []graph.Vertex, z graph.Vertex) [][]graph.Vertex {
	s.setAll(comp, true)
	defer s.setAll(comp, false)
	s.in[z] = false
	var parts [][]graph.Vertex
	for _, start := range s.t.Adj(z) {
		if !s.in[start] || s.seen[start] {
			continue
		}
		part := []graph.Vertex{}
		queue := []graph.Vertex{start}
		s.seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			part = append(part, v)
			for _, w := range s.t.Adj(v) {
				if s.in[w] && !s.seen[w] {
					s.seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(part)
		parts = append(parts, part)
	}
	for _, part := range parts {
		for _, v := range part {
			s.seen[v] = false
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	return parts
}

func (s *refOps) neighbors(comp []graph.Vertex) []graph.Vertex {
	s.setAll(comp, true)
	defer s.setAll(comp, false)
	var out []graph.Vertex
	for _, v := range comp {
		for _, w := range s.t.Adj(v) {
			if !s.in[w] {
				out = append(out, w)
			}
		}
	}
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

func refAll(n int) []graph.Vertex {
	all := make([]graph.Vertex, n)
	for i := range all {
		all[i] = i
	}
	return all
}

func refIdeal(t *graph.Tree) *TreeDecomposition {
	n := t.N()
	h := &TreeDecomposition{T: t, Parent: make([]graph.Vertex, n), Pivot: make([][]graph.Vertex, n)}
	ops := newRefOps(t)
	all := refAll(n)
	g := ops.balancer(all)
	h.Root = g
	h.Parent[g] = -1
	for _, part := range ops.split(all, g) {
		refBuildIdealTD(h, ops, part, ops.neighbors(part), g)
	}
	h.computeDepths()
	return h
}

func refBuildIdealTD(h *TreeDecomposition, ops *refOps, comp, gamma []graph.Vertex, parent graph.Vertex) {
	if len(gamma) > 2 {
		panic(fmt.Sprintf("reference: |Γ|=%d for component %v", len(gamma), comp))
	}
	if len(comp) == 1 {
		h.Parent[comp[0]] = parent
		h.Pivot[comp[0]] = gamma
		return
	}
	z := ops.balancer(comp)
	parts := ops.split(comp, z)
	if len(gamma) == 2 {
		for pi, part := range parts {
			if len(ops.neighbors(part)) == 3 {
				refBuildIdealCase2b(h, ops, z, parts, pi, gamma, parent)
				return
			}
		}
	}
	h.Parent[z] = parent
	h.Pivot[z] = gamma
	for _, part := range parts {
		refBuildIdealTD(h, ops, part, ops.neighbors(part), z)
	}
}

func refBuildIdealCase2b(h *TreeDecomposition, ops *refOps, z graph.Vertex,
	parts [][]graph.Vertex, c1Index int, gamma []graph.Vertex, parent graph.Vertex) {
	j := h.T.Median(gamma[0], gamma[1], z)
	h.Parent[j] = parent
	h.Pivot[j] = gamma
	h.Parent[z] = j
	h.Pivot[z] = []graph.Vertex{j}
	for pi, part := range parts {
		if pi != c1Index {
			refBuildIdealTD(h, ops, part, ops.neighbors(part), z)
		}
	}
	c1 := parts[c1Index]
	if len(c1) == 1 {
		return
	}
	for _, sub := range ops.split(c1, j) {
		nb := ops.neighbors(sub)
		if slices.Contains(nb, z) {
			refBuildIdealTD(h, ops, sub, nb, z)
		} else {
			refBuildIdealTD(h, ops, sub, nb, j)
		}
	}
}

func refBalancing(t *graph.Tree) *TreeDecomposition {
	n := t.N()
	h := &TreeDecomposition{T: t, Parent: make([]graph.Vertex, n), Pivot: make([][]graph.Vertex, n)}
	ops := newRefOps(t)
	h.Root = refBuildBalTD(h, ops, refAll(n), -1)
	h.computeDepths()
	return h
}

func refBuildBalTD(h *TreeDecomposition, ops *refOps, comp []graph.Vertex, parent graph.Vertex) graph.Vertex {
	z := ops.balancer(comp)
	h.Parent[z] = parent
	h.Pivot[z] = ops.neighbors(comp)
	for _, part := range ops.split(comp, z) {
		refBuildBalTD(h, ops, part, z)
	}
	return z
}

// refAssign is the original Layered.Assign.
func refAssign(l *Layered, u, v graph.Vertex) (group int, critical []graph.EdgeID) {
	t := l.H.T
	pathV := t.PathVertices(u, v)
	pathE := t.PathEdges(u, v)
	z := l.H.Capture(pathV)
	group = l.Length - l.H.Depth[z] + 1
	pos := make(map[graph.Vertex]int, len(pathV))
	for i, x := range pathV {
		pos[x] = i
	}
	seen := make(map[graph.EdgeID]bool, 2*(len(l.H.Pivot[z])+1))
	addWings := func(y graph.Vertex) {
		i := pos[y]
		if i > 0 && !seen[pathE[i-1]] {
			seen[pathE[i-1]] = true
			critical = append(critical, pathE[i-1])
		}
		if i < len(pathE) && !seen[pathE[i]] {
			seen[pathE[i]] = true
			critical = append(critical, pathE[i])
		}
	}
	addWings(z)
	for _, nb := range l.H.Pivot[z] {
		addWings(t.Median(u, v, nb))
	}
	return group, critical
}

// refShapes names the tree families the equivalence tests draw from.
var refShapes = []string{"random", "path", "star", "caterpillar", "binary"}

// refTree builds an n-vertex tree of the given shape. With shuffle set the
// vertex labels are a random permutation, so the lowest-vertex tie-breaks
// meet every labelling, not only the construction order.
func refTree(shape string, n int, shuffle bool, rng *rand.Rand) *graph.Tree {
	if shape == "random" {
		return graphtest.RandomTree(n, rng)
	}
	label := refAll(n)
	if shuffle {
		rng.Shuffle(n, func(i, j int) { label[i], label[j] = label[j], label[i] })
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		var p int
		switch shape {
		case "path":
			p = v - 1
		case "star":
			p = 0
		case "caterpillar": // a spine of even vertices, each with one leg
			if v%2 == 1 {
				p = v - 1
			} else {
				p = v - 2
			}
		case "binary":
			p = (v - 1) / 2
		default:
			panic("unknown shape " + shape)
		}
		edges = append(edges, graph.Edge{U: label[p], V: label[v]})
	}
	return graph.MustTree(n, edges)
}

// checkDecompMatchesReference compares the flat Ideal and Balancing with
// the reference builders node by node, then AssignInstance and Assign with
// refAssign on the given endpoint pairs.
func checkDecompMatchesReference(t *testing.T, tr *graph.Tree, pairs [][2]graph.Vertex) {
	t.Helper()
	for _, tc := range []struct {
		name      string
		got, want *TreeDecomposition
	}{
		{"ideal", Ideal(tr), refIdeal(tr)},
		{"balancing", Balancing(tr), refBalancing(tr)},
	} {
		got, want := tc.got, tc.want
		if got.Root != want.Root {
			t.Fatalf("%s: root %d, reference %d", tc.name, got.Root, want.Root)
		}
		if !slices.Equal(got.Parent, want.Parent) {
			t.Fatalf("%s: parent %v, reference %v", tc.name, got.Parent, want.Parent)
		}
		if !slices.Equal(got.Depth, want.Depth) {
			t.Fatalf("%s: depth %v, reference %v", tc.name, got.Depth, want.Depth)
		}
		for v := range want.Pivot {
			if !slices.Equal(got.Pivot[v], want.Pivot[v]) {
				t.Fatalf("%s: pivot of %d is %v, reference %v", tc.name, v, got.Pivot[v], want.Pivot[v])
			}
		}
		l := NewLayered(got)
		trees := []*graph.Tree{tr}
		for i, p := range pairs {
			u, v := p[0], p[1]
			wantGroup, wantCrit := refAssign(l, u, v)
			di := model.ExpandDemand(model.Demand{ID: i, U: u, V: v, Profit: 1, Height: 1, Access: []model.TreeID{0}}, trees, 0)[0]
			group, crit := l.AssignInstance(&di)
			if group != wantGroup || len(crit) != len(wantCrit) {
				t.Fatalf("%s: AssignInstance(%d,%d) = (%d, %v), reference (%d, %v)", tc.name, u, v, group, crit, wantGroup, wantCrit)
			}
			for k, e := range wantCrit {
				if crit[k] != model.MakeEdgeKey(0, e) {
					t.Fatalf("%s: AssignInstance(%d,%d) critical %v, reference %v", tc.name, u, v, crit, wantCrit)
				}
			}
			if g2, c2 := l.Assign(u, v); g2 != wantGroup || !slices.Equal(c2, wantCrit) {
				t.Fatalf("%s: Assign(%d,%d) = (%d, %v), reference (%d, %v)", tc.name, u, v, g2, c2, wantGroup, wantCrit)
			}
		}
	}
}

// refPairs returns every ordered pair of distinct vertices for n ≤ 64 and
// count random ones above that.
func refPairs(n, count int, rng *rand.Rand) [][2]graph.Vertex {
	var pairs [][2]graph.Vertex
	if n <= 64 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					pairs = append(pairs, [2]graph.Vertex{u, v})
				}
			}
		}
		return pairs
	}
	for len(pairs) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			pairs = append(pairs, [2]graph.Vertex{u, v})
		}
	}
	return pairs
}

func TestDecompMatchesReference(t *testing.T) {
	for _, shape := range refShapes {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 64, 255, 1024, 2047} {
			for _, shuffle := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/shuffle=%v", shape, n, shuffle), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)))
					tr := refTree(shape, n, shuffle, rng)
					checkDecompMatchesReference(t, tr, refPairs(n, 2000, rng))
				})
			}
		}
	}
}

// FuzzDecompReference drives the reference comparison over fuzzed tree
// shapes, sizes and labellings.
func FuzzDecompReference(f *testing.F) {
	f.Add(int64(1), uint16(17), uint8(0))
	f.Add(int64(2), uint16(255), uint8(3))
	f.Add(int64(3), uint16(1000), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8) {
		n := int(size)%2047 + 1
		rng := rand.New(rand.NewSource(seed))
		tr := refTree(refShapes[int(shape)%len(refShapes)], n, shape >= 128, rng)
		checkDecompMatchesReference(t, tr, refPairs(n, 200, rng))
	})
}
