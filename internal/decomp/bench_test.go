package decomp

import (
	"fmt"
	"math/rand"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/graph/graphtest"
	"treesched/internal/model"
)

func BenchmarkDecompositions(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := graphtest.RandomTree(1023, rng)
	b.Run("ideal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Ideal(tr)
		}
	})
	b.Run("balancing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Balancing(tr)
		}
	})
	b.Run("rootfix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RootFixing(tr, 0)
		}
	})
}

// BenchmarkLayeredAssign times one Lemma 4.2 assignment: "pair" through the
// endpoint wrapper Assign, "instance" through AssignInstance over the path
// an expanded demand instance already carries (the item-building path).
func BenchmarkLayeredAssign(b *testing.B) {
	for _, n := range []int{255, 2047} {
		rng := rand.New(rand.NewSource(2))
		tr := graphtest.RandomTree(n, rng)
		l := NewLayered(Ideal(tr))
		us := make([]int, 256)
		vs := make([]int, 256)
		dis := make([]model.DemandInstance, 256)
		for i := range us {
			us[i], vs[i] = rng.Intn(n), (rng.Intn(n-1)+us[i]+1)%n
			d := model.Demand{ID: i, U: us[i], V: vs[i], Profit: 1, Height: 1, Access: []model.TreeID{0}}
			dis[i] = model.ExpandDemand(d, []*graph.Tree{tr}, i)[0]
		}
		b.Run(fmt.Sprintf("pair/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Assign(us[i%256], vs[i%256])
			}
		})
		b.Run(fmt.Sprintf("instance/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.AssignInstance(&dis[i%256])
			}
		})
	}
}
