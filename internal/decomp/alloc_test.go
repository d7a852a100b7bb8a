package decomp

import (
	"math/rand"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
	"treesched/internal/model"
)

// idealAllocs is what Ideal allocates on any tree: the decomposition and
// its three arrays, the SubtreeOps and its four scratch slices, the builder
// with its vertex arena, parts and Γ stacks, and the pivot arena. The
// pivot arena starts at 2n entries, which θ ≤ 2 never outgrows.
const idealAllocs = 14

func TestIdealAllocsIndependentOfN(t *testing.T) {
	for _, n := range []int{255, 2047} {
		for _, shape := range refShapes {
			tr := refTree(shape, n, true, rand.New(rand.NewSource(int64(n))))
			if got := testing.AllocsPerRun(5, func() { Ideal(tr) }); got > idealAllocs {
				t.Errorf("Ideal on %s n=%d: %v allocs, want ≤ %d", shape, n, got, idealAllocs)
			}
		}
	}
}

func TestAssignInstanceAllocatesOnlyCritical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := graphtest.RandomTree(2047, rng)
	l := NewLayered(Ideal(tr))
	trees := []*graph.Tree{tr}
	for i := 0; i < 50; i++ {
		u, v := rng.Intn(2047), rng.Intn(2047)
		if u == v {
			continue
		}
		di := model.ExpandDemand(model.Demand{U: u, V: v, Access: []model.TreeID{0}}, trees, 0)[0]
		if got := testing.AllocsPerRun(20, func() { l.AssignInstance(&di) }); got > 1 {
			t.Fatalf("AssignInstance(%d,%d): %v allocs, want ≤ 1", u, v, got)
		}
	}
}
