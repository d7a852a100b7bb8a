package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treesched/internal/mis"
	"treesched/internal/workload"
)

// The incidence suite: the engine's elections and component decomposition
// run over demand/edge groups, and must agree bit for bit with the pairwise
// reference algorithms over the explicit adjacency BuildConflicts returns.

// incidenceItems draws a small tree instance; several trees and wide
// access sets make demands span resources, so demand groups and edge
// groups overlap in every combination.
func incidenceItems(t testing.TB, seed int64, vertices, trees, demands int) []Item {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: vertices, Trees: trees, Demands: demands, ProfitRatio: 8,
		AccessMin: 1, AccessMax: trees,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := BuildTreeItems(in, IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// restrict is the reference step subgraph: adj restricted to u (ascending
// item ids) and relabeled to positions in u.
func restrict(adj [][]int, u []int) [][]int {
	pos := make(map[int]int, len(u))
	for i, id := range u {
		pos[id] = i
	}
	sub := make([][]int, len(u))
	for i, id := range u {
		for _, w := range adj[id] {
			if j, ok := pos[w]; ok {
				sub[i] = append(sub[i], j)
			}
		}
	}
	return sub
}

// seedStreams resets the scratch's owner streams exactly as newState does.
func seedStreams(scr *solveScratch, lay *layout, seed int64) {
	scr.streams = scr.streams[:0]
	for _, owner := range lay.ownerID {
		scr.streams = append(scr.streams, NewStream(seed, owner))
	}
}

// checkElections runs the incidence elections for one subset and compares
// them against mis.Luby / mis.Greedy over the restricted adjacency. scr is
// shared across calls on purpose: stale stamps from earlier elections must
// never leak into later ones.
func checkElections(t *testing.T, lay *layout, adj [][]int, u []int, seed int64, scr *solveScratch) {
	t.Helper()
	sub := restrict(adj, u)
	owners := make([]int, len(u))
	for i, id := range u {
		owners[i] = int(lay.ownerSlot[id])
	}

	seedStreams(scr, lay, seed)
	got, iters := electLuby(lay, u, scr)
	got = slices.Clone(got)
	ref := &solveScratch{}
	seedStreams(ref, lay, seed)
	want, wantIters := mis.Luby(owners, sub, func(slot int) float64 { return ref.streams[slot].Float64() })
	if !slices.Equal(got, want) || iters != wantIters {
		t.Fatalf("seed %d u=%v: incidence Luby %v in %d iterations, mis.Luby %v in %d",
			seed, u, got, iters, want, wantIters)
	}

	if got, want := electGreedy(lay, u, scr), mis.Greedy(len(u), sub); !slices.Equal(got, want) {
		t.Fatalf("u=%v: incidence greedy %v, mis.Greedy %v", u, got, want)
	}
}

// FuzzIncidenceElection asserts, over random item sets × seeds × subsets,
// that incidence Luby ≡ mis.Luby (membership and iteration count),
// incidence greedy ≡ mis.Greedy, and incidence components ≡
// ConflictComponents, each against the BuildConflicts adjacency.
func FuzzIncidenceElection(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(20), uint64(0xffffffffffffffff))
	f.Add(int64(5), uint8(40), uint8(1), uint8(60), uint64(0x5a5a5a5a5a5a5a5a))
	f.Add(int64(9), uint8(6), uint8(4), uint8(9), uint64(0x8001))
	f.Fuzz(func(t *testing.T, seed int64, nv, nt, nd uint8, mask uint64) {
		items := incidenceItems(t, seed, int(nv)%48+4, int(nt)%4+1, int(nd)%64+1)
		lay := buildLayout(items)
		adj := BuildConflicts(items)
		if got, want := ItemComponents(items), ConflictComponents(adj); !reflect.DeepEqual(got, want) {
			t.Fatalf("incidence components %v, ConflictComponents %v", got, want)
		}
		rng := rand.New(rand.NewSource(seed ^ int64(mask)))
		scr := &solveScratch{}
		for round := 0; round < 3; round++ {
			var u []int
			for id := range items {
				if mask>>(uint(id+round)%64)&1 == 1 || rng.Intn(4) == 0 {
					u = append(u, id)
				}
			}
			checkElections(t, lay, adj, u, seed+int64(round), scr)
		}
	})
}

// TestIncidenceStampWrap drives the per-group stamp counter across its
// wrap-around, with group entries still carrying small stamps from long
// before it: elections across the wrap must still match the reference.
func TestIncidenceStampWrap(t *testing.T) {
	items := incidenceItems(t, 3, 24, 2, 30)
	lay := buildLayout(items)
	adj := BuildConflicts(items)
	u := make([]int, len(items))
	for i := range u {
		u[i] = i
	}
	scr := &solveScratch{}
	scr.growGroups(lay)
	for seed := int64(0); seed < 16; seed++ {
		for g := range scr.gStamp {
			scr.gStamp[g] = uint32(g%8 + 1)
			scr.gMin[g] = int32(g % len(u))
		}
		scr.stamp = ^uint32(0) // the election's first pass wraps
		checkElections(t, lay, adj, u, seed, scr)
	}
	if scr.stamp > 64 {
		t.Fatalf("stamp %d: the wrap-around was never reached", scr.stamp)
	}
}
