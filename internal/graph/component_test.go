package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestBalancerSplitsInHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		tr := randomTree(n, rng)
		ops := NewSubtreeOps(tr)
		comp := make([]Vertex, n)
		for i := range comp {
			comp[i] = i
		}
		z := ops.Balancer(comp)
		parts := ops.Split(comp, z, nil)
		total := 0
		for _, p := range parts {
			if len(p) > n/2 {
				t.Fatalf("n=%d balancer %d leaves part of size %d > %d", n, z, len(p), n/2)
			}
			total += len(p)
		}
		if total != n-1 {
			t.Fatalf("split lost vertices: %d parts totaling %d, want %d", len(parts), total, n-1)
		}
	}
}

func TestBalancerOnSubComponent(t *testing.T) {
	tr := fig6Tree(t)
	ops := NewSubtreeOps(tr)
	// Component {4,8,7,1,11,12,3} = paper's C(5) (§4.1 example, 1-indexed
	// {5,9,8,2,12,13,4}).
	comp := []Vertex{1, 3, 4, 7, 8, 11, 12}
	if !ops.IsComponent(comp) {
		t.Fatalf("expected %v to induce a subtree", comp)
	}
	z := ops.Balancer(comp)
	parts := ops.Split(comp, z, nil)
	for _, p := range parts {
		if len(p) > len(comp)/2 {
			t.Fatalf("balancer %d leaves part %v of size %d > %d", z, p, len(p), len(comp)/2)
		}
	}
}

func TestSplitComponentsAreComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		tr := randomTree(n, rng)
		ops := NewSubtreeOps(tr)
		comp := make([]Vertex, n)
		for i := range comp {
			comp[i] = i
		}
		z := rng.Intn(n)
		parts := ops.Split(comp, z, nil)
		union := []Vertex{}
		for _, p := range parts {
			if !ops.IsComponent(p) {
				t.Fatalf("split part %v is not a component", p)
			}
			union = append(union, p...)
		}
		sort.Ints(union)
		want := []Vertex{}
		for v := 0; v < n; v++ {
			if v != z {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(union, want) {
			t.Fatalf("split union %v, want %v", union, want)
		}
		// Splitting by z yields exactly deg(z) parts when the component is
		// the whole tree.
		if len(parts) != tr.Degree(z) {
			t.Fatalf("split by %d gave %d parts, want deg=%d", z, len(parts), tr.Degree(z))
		}
	}
}

// TestSplitPermutesInPlace checks Split's layout contract: the parts tile
// comp's prefix in order, z sits last, comp keeps its vertex set, and the
// scratch is left clean for the next operation.
func TestSplitPermutesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		tr := randomTree(n, rng)
		ops := NewSubtreeOps(tr)
		comp := rng.Perm(n)
		z := comp[rng.Intn(n)]
		parts := ops.Split(comp, z, [][]Vertex{{-1}})
		if len(parts) != tr.Degree(z)+1 || parts[0][0] != -1 {
			t.Fatalf("Split must append after the given parts, got %v", parts)
		}
		off := 0
		for _, p := range parts[1:] {
			if &p[0] != &comp[off] {
				t.Fatalf("part %v is not comp[%d:]", p, off)
			}
			off += len(p)
		}
		if off != n-1 || comp[n-1] != z {
			t.Fatalf("parts cover %d of %d, comp ends with %d, want z=%d", off, n-1, comp[n-1], z)
		}
		sorted := append([]Vertex(nil), comp...)
		sort.Ints(sorted)
		for v := range sorted {
			if sorted[v] != v {
				t.Fatalf("Split changed comp's vertex set: %v", comp)
			}
		}
		for v, in := range ops.in {
			if in {
				t.Fatalf("Split left vertex %d marked", v)
			}
		}
	}
}

func TestNeighborsOfComponent(t *testing.T) {
	tr := fig6Tree(t)
	ops := NewSubtreeOps(tr)
	tests := []struct {
		comp []Vertex
		want []Vertex
	}{
		// Paper §4.1: C(2) = {2,4} (1-indexed) has pivot set {1,5};
		// our labels: C = {1,3} has neighbors {0,4}.
		{[]Vertex{1, 3}, []Vertex{0, 4}},
		// Paper: C(5) = {5,9,8,2,12,13,4} has neighborhood {1}; ours:
		// {4,8,7,1,11,12,3} -> {0}.
		{[]Vertex{1, 3, 4, 7, 8, 11, 12}, []Vertex{0}},
		// Whole tree has no neighbors.
		{[]Vertex{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []Vertex{}},
	}
	for _, tc := range tests {
		got := ops.Neighbors(tc.comp)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Neighbors(%v) = %v, want %v", tc.comp, got, tc.want)
		}
	}
}

func TestNeighborsSeparateComponentFromOutside(t *testing.T) {
	// Property (§4.1): for x in C and y outside C, the path x->y passes
	// through some neighbor of C.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(60)
		tr := randomTree(n, rng)
		ops := NewSubtreeOps(tr)
		// Build a random component by BFS from a random vertex.
		size := 1 + rng.Intn(n-1)
		start := rng.Intn(n)
		comp := []Vertex{start}
		seen := map[Vertex]bool{start: true}
		frontier := []Vertex{start}
		for len(comp) < size && len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for _, w := range tr.Adj(v) {
				if !seen[w] && len(comp) < size {
					seen[w] = true
					comp = append(comp, w)
					frontier = append(frontier, w)
				}
			}
		}
		sort.Ints(comp)
		nbrs := ops.Neighbors(comp)
		isNbr := map[Vertex]bool{}
		for _, u := range nbrs {
			isNbr[u] = true
		}
		for _, x := range comp {
			for y := 0; y < n; y++ {
				if seen[y] {
					continue
				}
				found := false
				for _, pv := range tr.PathVertices(x, y) {
					if isNbr[pv] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("path %d->%d avoids Γ[C]=%v for comp %v", x, y, nbrs, comp)
				}
			}
		}
	}
}

func TestIsComponent(t *testing.T) {
	tr := fig6Tree(t)
	ops := NewSubtreeOps(tr)
	if ops.IsComponent([]Vertex{9, 10}) {
		t.Errorf("{9,10} should not be a component (both leaves under 5)")
	}
	if !ops.IsComponent([]Vertex{5, 9, 10}) {
		t.Errorf("{5,9,10} should be a component")
	}
	if ops.IsComponent(nil) {
		t.Errorf("empty set should not be a component")
	}
}
