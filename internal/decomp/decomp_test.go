package decomp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
)

func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

func builders() map[string]func(*graph.Tree) *TreeDecomposition {
	return map[string]func(*graph.Tree) *TreeDecomposition{
		"rootfix": func(t *graph.Tree) *TreeDecomposition { return RootFixing(t, 0) },
		"balance": Balancing,
		"ideal":   Ideal,
	}
}

func TestDecompositionsValidateOnFig6(t *testing.T) {
	tr := graphtest.Fig6Tree()
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			h := build(tr)
			if err := h.Validate(); err != nil {
				t.Fatalf("%s decomposition invalid: %v", name, err)
			}
		})
	}
}

func TestRootFixingMatchesAppendixAExample(t *testing.T) {
	// Appendix A: rooting the Figure 6 tree at node 1 (our 0), the demand
	// <4,13> (our <3,12>) is captured at node 2 (our 1), and π(d) =
	// {<2,4>, <2,5>} (our edges (1,3) and (1,4), ids 3 and 4).
	tr := graphtest.Fig6Tree()
	h := RootFixing(tr, 0)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.Capture(tr.PathVertices(3, 12)); got != 1 {
		t.Errorf("capture node = %d, want 1", got)
	}
	if h.PivotSize() != 1 {
		t.Errorf("root-fixing pivot size = %d, want 1", h.PivotSize())
	}
	// Wings of the capture node on the path are exactly the two edges
	// adjacent to vertex 1 on path 3-1-4-7-12.
	l := NewLayered(h)
	_, critical := l.Assign(3, 12)
	want := map[graph.EdgeID]bool{3: true, 4: true}
	if len(critical) > 4 {
		t.Fatalf("root-fixing |π| = %d, want ≤ 2(θ+1) = 4", len(critical))
	}
	for e := range want {
		found := false
		for _, c := range critical {
			if c == e {
				found = true
			}
		}
		if !found {
			t.Errorf("critical set %v missing wing edge %d", critical, e)
		}
	}
}

func TestIdealParametersLemma41(t *testing.T) {
	// Lemma 4.1: depth O(log n) (≤ 2⌈log₂ n⌉ + 1 with our depth-1 root
	// convention) and pivot size θ ≤ 2, on every topology.
	rng := rand.New(rand.NewSource(41))
	shapes := map[string]func(n int) *graph.Tree{
		"random": func(n int) *graph.Tree { return graphtest.RandomTree(n, rng) },
		"path": func(n int) *graph.Tree {
			tr, err := graph.NewPath(n)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"star": func(n int) *graph.Tree {
			edges := make([]graph.Edge, 0, n-1)
			for v := 1; v < n; v++ {
				edges = append(edges, graph.Edge{U: 0, V: v})
			}
			return graph.MustTree(n, edges)
		},
		"caterpillar": func(n int) *graph.Tree {
			// Spine of n/2 vertices, each with one leg.
			edges := make([]graph.Edge, 0, n-1)
			spine := (n + 1) / 2
			for v := 1; v < spine; v++ {
				edges = append(edges, graph.Edge{U: v - 1, V: v})
			}
			for v := spine; v < n; v++ {
				edges = append(edges, graph.Edge{U: v - spine, V: v})
			}
			return graph.MustTree(n, edges)
		},
		"binary": func(n int) *graph.Tree {
			edges := make([]graph.Edge, 0, n-1)
			for v := 1; v < n; v++ {
				edges = append(edges, graph.Edge{U: (v - 1) / 2, V: v})
			}
			return graph.MustTree(n, edges)
		},
	}
	for name, mk := range shapes {
		for _, n := range []int{1, 2, 3, 7, 16, 33, 100, 255} {
			tr := mk(n)
			h := Ideal(tr)
			if θ := h.PivotSize(); θ > 2 {
				t.Errorf("%s n=%d: pivot size %d > 2", name, n, θ)
			}
			if d, bound := h.MaxDepth(), 2*log2Ceil(n)+1; d > bound {
				t.Errorf("%s n=%d: depth %d > %d", name, n, d, bound)
			}
		}
	}
}

func TestIdealValidatesOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		tr := graphtest.RandomTree(n, rng)
		h := Ideal(tr)
		if err := h.Validate(); err != nil {
			t.Fatalf("n=%d trial=%d: %v", n, trial, err)
		}
	}
}

func TestBalancingDepthLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 2, 10, 64, 200, 500} {
		tr := graphtest.RandomTree(n, rng)
		h := Balancing(tr)
		if err := h.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d, bound := h.MaxDepth(), log2Ceil(n)+1; d > bound {
			t.Errorf("n=%d: balancing depth %d > %d", n, d, bound)
		}
		// θ is bounded by the depth (each pivot vertex is an H-ancestor).
		if θ := h.PivotSize(); θ > h.MaxDepth() {
			t.Errorf("n=%d: balancing θ=%d exceeds depth %d", n, θ, h.MaxDepth())
		}
	}
}

func TestCaptureUniqueMinimumDepth(t *testing.T) {
	// Property (i) of tree decompositions makes µ(d) unique: no two path
	// vertices share the minimum H-depth.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		tr := graphtest.RandomTree(n, rng)
		for name, build := range builders() {
			h := build(tr)
			for q := 0; q < 30; q++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				pathV := tr.PathVertices(u, v)
				z := h.Capture(pathV)
				count := 0
				for _, x := range pathV {
					if h.Depth[x] == h.Depth[z] {
						count++
					}
				}
				if count != 1 {
					t.Fatalf("%s n=%d path(%d,%d): %d vertices at min depth", name, n, u, v, count)
				}
			}
		}
	}
}

// TestLayeredInterferenceProperty is the heart of Lemma 4.2: for any two
// overlapping demand instances d1 in group i and d2 in group j with i ≤ j,
// path(d2) contains a critical edge of d1.
func TestLayeredInterferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	type inst struct {
		u, v     graph.Vertex
		group    int
		critical map[graph.EdgeID]bool
		edges    map[graph.EdgeID]bool
	}
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(100)
		tr := graphtest.RandomTree(n, rng)
		for name, build := range builders() {
			h := build(tr)
			l := NewLayered(h)
			bound := l.MaxCriticalSize()
			insts := make([]inst, 0, 40)
			for q := 0; q < 40; q++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				g, crit := l.Assign(u, v)
				if len(crit) > bound {
					t.Fatalf("%s: |π| = %d > 2(θ+1) = %d", name, len(crit), bound)
				}
				ci := inst{u: u, v: v, group: g, critical: map[graph.EdgeID]bool{}, edges: map[graph.EdgeID]bool{}}
				for _, e := range crit {
					ci.critical[e] = true
					if !pathHasEdge(tr, u, v, e) {
						t.Fatalf("%s: critical edge %d not on path(%d,%d)", name, e, u, v)
					}
				}
				for _, e := range tr.PathEdges(u, v) {
					ci.edges[e] = true
				}
				insts = append(insts, ci)
			}
			for a := range insts {
				for b := range insts {
					if a == b {
						continue
					}
					d1, d2 := &insts[a], &insts[b]
					if d1.group > d2.group {
						continue
					}
					if !overlaps(d1.edges, d2.edges) {
						continue
					}
					hit := false
					for e := range d1.critical {
						if d2.edges[e] {
							hit = true
							break
						}
					}
					if !hit {
						t.Fatalf("%s n=%d: interference violated: d1=(%d,%d) grp %d π=%v vs d2=(%d,%d) grp %d",
							name, n, d1.u, d1.v, d1.group, keys(d1.critical), d2.u, d2.v, d2.group)
					}
				}
			}
		}
	}
}

func pathHasEdge(tr *graph.Tree, u, v graph.Vertex, e graph.EdgeID) bool {
	for _, x := range tr.PathEdges(u, v) {
		if x == e {
			return true
		}
	}
	return false
}

func overlaps(a, b map[graph.EdgeID]bool) bool {
	for e := range a {
		if b[e] {
			return true
		}
	}
	return false
}

func keys(m map[graph.EdgeID]bool) []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

func TestIdealCriticalSizeAtMostSix(t *testing.T) {
	// Lemma 4.3: ideal decomposition gives ∆ ≤ 6.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(200)
		tr := graphtest.RandomTree(n, rng)
		l := NewLayered(Ideal(tr))
		if l.MaxCriticalSize() > 6 {
			t.Fatalf("n=%d: 2(θ+1) = %d > 6", n, l.MaxCriticalSize())
		}
		for q := 0; q < 50; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if _, crit := l.Assign(u, v); len(crit) > 6 {
				t.Fatalf("n=%d: |π(%d,%d)| = %d > 6", n, u, v, len(crit))
			}
		}
	}
}

func TestLayeredGroupsWithinLength(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(100)
		tr := graphtest.RandomTree(n, rng)
		l := NewLayered(Ideal(tr))
		for q := 0; q < 30; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g, _ := l.Assign(u, v)
			if g < 1 || g > l.Length {
				t.Fatalf("group %d outside [1,%d]", g, l.Length)
			}
		}
	}
}
