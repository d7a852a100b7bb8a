// Package mis computes maximal independent sets on explicit conflict
// graphs: Luby's randomized algorithm (the paper's Time(MIS) = O(log N)
// choice [14]) and a deterministic greedy fallback. It is the pairwise
// reference of the engine's elections, which run the same algorithms over
// the conflict incidence instead of an adjacency (engine/conflicts.go) and
// are pinned against this package bit for bit.
//
// The decisive design point is the draw schedule: priorities are drawn from
// per-owner PRNG streams in increasing item order, exactly the order in
// which a distributed processor draws for its own items. This makes the
// centralized simulation and the simnet protocol produce bit-identical
// independent sets for identical seeds.
package mis

import (
	"maps"
	"slices"
)

// Drawer supplies random priorities; the engine passes per-owner PRNG
// streams so distributed and local runs agree.
type Drawer func(owner int) float64

// Luby computes a maximal independent set of the graph whose vertices are
// 0..len(owners)-1 and whose adjacency is adj (symmetric, no self-loops).
// Vertices must be visited in increasing index order when drawing, per the
// contract above. It returns the membership vector and the number of Luby
// iterations (each iteration costs two communication rounds in the
// distributed implementation: one to exchange draws, one to announce
// winners). A vertex wins an iteration iff it beats every live neighbor
// (ties by index); winners are applied in ascending order, and since two
// adjacent vertices can never both win, elimination order within an
// iteration is immaterial.
func Luby(owners []int, adj [][]int, draw Drawer) (inMIS []bool, iterations int) {
	n := len(owners)
	inMIS = make([]bool, n)
	live := make([]bool, n)
	liveCount := n
	for i := range live {
		live[i] = true
	}
	priority := make([]float64, n)
	win := make([]bool, n)
	for liveCount > 0 {
		iterations++
		for v := 0; v < n; v++ {
			if live[v] {
				priority[v] = draw(owners[v])
			}
		}
		for v := 0; v < n; v++ {
			win[v] = live[v]
			if !live[v] {
				continue
			}
			for _, w := range adj[v] {
				if live[w] && (priority[w] < priority[v] || (priority[w] == priority[v] && w < v)) {
					win[v] = false
					break
				}
			}
		}
		for v := 0; v < n; v++ {
			if !win[v] || !live[v] {
				continue // eliminated by an earlier winner this iteration
			}
			inMIS[v] = true
			live[v] = false
			liveCount--
			for _, w := range adj[v] {
				if live[w] {
					live[w] = false
					liveCount--
				}
			}
		}
	}
	return inMIS, iterations
}

// Greedy computes the lexicographically-first maximal independent set:
// scan vertices in increasing index order, adding each vertex whose
// neighbors are all absent. Deterministic; used for ablations and as a
// reference in tests.
func Greedy(n int, adj [][]int) []bool {
	inMIS := make([]bool, n)
	blocked := make([]bool, n)
	for v := 0; v < n; v++ {
		if blocked[v] {
			continue
		}
		inMIS[v] = true
		for _, w := range adj[v] {
			blocked[w] = true
		}
	}
	return inMIS
}

// Verify checks that membership is an independent set (no two adjacent
// members) and maximal (every non-member has a member neighbor). Used by
// tests and the experiment harness.
func Verify(adj [][]int, inMIS []bool) (independent, maximal bool) {
	independent, maximal = true, true
	for v := range adj {
		if inMIS[v] {
			for _, w := range adj[v] {
				if inMIS[w] {
					independent = false
				}
			}
			continue
		}
		covered := false
		for _, w := range adj[v] {
			if inMIS[w] {
				covered = true
				break
			}
		}
		if !covered {
			maximal = false
		}
	}
	return independent, maximal
}

// Normalize sorts and deduplicates adjacency lists and drops self-loops,
// returning a cleaned copy safe for Luby/Greedy.
func Normalize(n int, adj [][]int) [][]int {
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		seen := make(map[int]struct{}, len(adj[v]))
		for _, w := range adj[v] {
			if w == v {
				continue
			}
			seen[w] = struct{}{}
		}
		out[v] = slices.Sorted(maps.Keys(seen))
	}
	return out
}
