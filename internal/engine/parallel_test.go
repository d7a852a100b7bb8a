package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// shardedCases are the instance shapes the determinism suite sweeps: a
// fragmented multi-network workload (each demand pinned to one of several
// networks, so the conflict graph splits into many components) and a
// contended single-pool workload (one giant component, exercising the
// serial fallback under parallel entry points).
func shardedCases(t *testing.T, mode engine.Mode, seed int64) map[string][]engine.Item {
	t.Helper()
	heights := workload.UnitHeights
	if mode == engine.Narrow {
		heights = workload.NarrowHeights
	}
	return map[string][]engine.Item{
		"fragmented": treeItems(t, workload.TreeConfig{
			Vertices: 48, Trees: 6, Demands: 60, ProfitRatio: 16,
			Heights: heights, AccessMin: 1, AccessMax: 1,
		}, seed),
		"giant": treeItems(t, workload.TreeConfig{
			Vertices: 32, Trees: 2, Demands: 40, ProfitRatio: 8,
			Heights: heights,
		}, seed),
	}
}

// TestRunParallelBitIdentical is the determinism suite of the sharded
// pipeline: across seeds × modes × parallelism, RunParallel must reproduce
// the serial Run bit for bit — selections, profit, dual bound, λ, the full
// dual assignment, every schedule counter, and the raise trace.
func TestRunParallelBitIdentical(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for seed := int64(0); seed < 10; seed++ {
			for name, items := range shardedCases(t, mode, seed) {
				cfg := engine.Config{Mode: mode, Epsilon: 0.1, Seed: seed, RecordTrace: true}
				serial, err := engine.Run(items, cfg)
				if err != nil {
					t.Fatalf("%v/%s seed %d: serial: %v", mode, name, seed, err)
				}
				for _, workers := range []int{1, 4, 8} {
					par, err := engine.RunParallel(items, cfg, workers)
					if err != nil {
						t.Fatalf("%v/%s seed %d p=%d: %v", mode, name, seed, workers, err)
					}
					tag := func(field string) string {
						return mode.String() + "/" + name + " seed " + string(rune('0'+seed)) + " " + field
					}
					if !reflect.DeepEqual(par.Selected, serial.Selected) {
						t.Errorf("%s: selected %v != serial %v (p=%d)", tag("selected"), par.Selected, serial.Selected, workers)
					}
					if par.Profit != serial.Profit {
						t.Errorf("%s: profit %v != serial %v (p=%d)", tag("profit"), par.Profit, serial.Profit, workers)
					}
					if par.Bound != serial.Bound {
						t.Errorf("%s: bound %v != serial %v (p=%d)", tag("bound"), par.Bound, serial.Bound, workers)
					}
					if par.Lambda != serial.Lambda {
						t.Errorf("%s: lambda %v != serial %v (p=%d)", tag("lambda"), par.Lambda, serial.Lambda, workers)
					}
					if !reflect.DeepEqual(par.Dual.AlphaMap(), serial.Dual.AlphaMap()) || !reflect.DeepEqual(par.Dual.BetaMap(), serial.Dual.BetaMap()) {
						t.Errorf("%s: dual assignment diverged (p=%d)", tag("dual"), workers)
					}
					if par.Steps != serial.Steps || par.MISIters != serial.MISIters ||
						par.Raised != serial.Raised || par.MaxStageSteps != serial.MaxStageSteps ||
						par.Epochs != serial.Epochs || par.Stages != serial.Stages ||
						par.CommRounds != serial.CommRounds || par.Delta != serial.Delta {
						t.Errorf("%s: counters diverged (p=%d): par %+v serial %+v", tag("counters"), workers, par, serial)
					}
					if !reflect.DeepEqual(par.Trace, serial.Trace) {
						t.Errorf("%s: raise trace diverged (p=%d)", tag("trace"), workers)
					}
				}
			}
		}
	}
}

// chainItems builds one large sparse conflict component: item i occupies
// edges {e_i, e_{i+1}}, so it conflicts exactly with its chain neighbors.
// The component is as large as the instance and every MIS is ~half of the
// unsatisfied set, so steps are wide while sharding has nothing to split.
func chainItems(n int, height float64) []engine.Item {
	items := make([]engine.Item, n)
	for i := range items {
		e := func(k int) model.EdgeKey { return model.MakeEdgeKey(0, graph.EdgeID(k)) }
		items[i] = engine.Item{
			ID: i, Demand: i, Owner: i, Resource: 0, Group: 1 + i%2,
			Profit: 1 + float64(i%7), Height: height,
			Edges:    []model.EdgeKey{e(i), e(i + 1)},
			Critical: []model.EdgeKey{e(i)},
		}
	}
	return items
}

// widthCases enumerates the decomposition shapes of the width suite: a
// single sparse component (chain, which runs serially at every width), a
// contended tree workload (few components), and a pinned fleet (many
// components, one shard worker each up to the width).
func widthCases(t *testing.T, mode engine.Mode, seed int64) map[string][]engine.Item {
	t.Helper()
	height := 1.0
	heights := workload.UnitHeights
	if mode == engine.Narrow {
		height = 0.4
		heights = workload.NarrowHeights
	}
	treeIn, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 48, Trees: 2, Demands: 72, ProfitRatio: 8, Heights: heights,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := engine.BuildTreeItems(treeIn, engine.IdealDecomp)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]engine.Item{
		"chain": chainItems(64, height),
		"tree":  tree,
		"fleet": engine.WarmPoolItems(t, seed, 48, heights),
	}
}

// TestParallelWidthsMatchSerial is the bitwise property of the shard pool:
// across widths {1,2,3,4,8} × seeds × unit/narrow modes × single/multi-
// component decompositions × traced/untraced runs, a Prepared built and
// solved at that width equals the serial Prepared.Run exactly.
func TestParallelWidthsMatchSerial(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for seed := int64(0); seed < 3; seed++ {
			for name, items := range widthCases(t, mode, seed) {
				for _, trace := range []bool{false, true} {
					cfg := engine.Config{Mode: mode, Epsilon: 0.1, Seed: seed, RecordTrace: trace}
					want, err := engine.Prepare(slices.Clone(items)).Run(cfg)
					if err != nil {
						t.Fatalf("%v/%s/seed=%d serial: %v", mode, name, seed, err)
					}
					for _, w := range []int{1, 2, 3, 4, 8} {
						p := engine.PrepareWorkers(slices.Clone(items), w)
						got, err := p.RunParallel(cfg, w)
						if err != nil {
							t.Fatalf("%v/%s/seed=%d w=%d: %v", mode, name, seed, w, err)
						}
						engine.SameResult(t, fmt.Sprintf("%v/%s/seed=%d/trace=%v/w=%d", mode, name, seed, trace, w), got, want)
					}
				}
			}
		}
	}
}

// TestShardWarmReplayAcrossWidths pins the warm-replay interaction: shard
// outcomes cached by a solve at one width must replay bitwise for solves
// at any other width — the worker count may not leak into the cache.
func TestShardWarmReplayAcrossWidths(t *testing.T) {
	items := engine.WarmPoolItems(t, 11, 48, workload.UnitHeights)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 11, RecordTrace: true}
	want, err := engine.Prepare(slices.Clone(items)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.PrepareWorkers(slices.Clone(items), 8)
	warm.EnableWarmStart()
	for i, w := range []int{8, 1, 3, 2, 4} {
		got, err := warm.RunParallel(cfg, w)
		if err != nil {
			t.Fatalf("solve %d (w=%d): %v", i, w, err)
		}
		engine.SameResult(t, fmt.Sprintf("warm solve %d (w=%d)", i, w), got, want)
	}
	ws := warm.WarmStats()
	if ws.ColdSolves != 1 || ws.WarmSolves != 4 {
		t.Fatalf("worker-count changes broke replay: %+v", ws)
	}
}

// TestReshardAllocs pins that rebuilding the component decomposition costs
// allocations per component, not per item: a component is a list of ids
// over the prepared layout, never a copy of its items or a layout of its
// own. Two pinned fleets with the same component count, one with 4× the
// demands per component, stay under one bound.
func TestReshardAllocs(t *testing.T) {
	const bound = 32
	comps := -1
	for _, demands := range []int{128, 512} {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 8, Trees: 8, Demands: demands, ProfitRatio: 8,
			AccessMin: 1, AccessMax: 1,
		}, 1)
		n := len(engine.ItemComponents(items))
		if comps >= 0 && n != comps {
			t.Fatalf("%d demands: %d components, want %d like the smaller fleet", demands, n, comps)
		}
		comps = n
		p := engine.Prepare(items)
		allocs := testing.AllocsPerRun(20, func() { engine.Reshard(p) })
		t.Logf("%d demands, %d items, %d components: %.0f allocs per reshard", demands, len(items), n, allocs)
		if allocs > bound {
			t.Errorf("%d demands: %.0f allocs per reshard, want ≤ %d", demands, allocs, bound)
		}
	}
}

// TestRunArbitraryParallelBitIdentical covers the §6 wide/narrow split
// under the sharded pipeline with mixed heights.
func TestRunArbitraryParallelBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 40, Trees: 4, Demands: 48, ProfitRatio: 8,
			Heights: workload.MixedHeights, AccessMin: 1, AccessMax: 1,
		}, seed)
		cfg := engine.Config{Epsilon: 0.1, Seed: seed}
		serial, err := engine.RunArbitrary(items, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{4, 8} {
			par, err := engine.RunArbitraryParallel(items, cfg, workers)
			if err != nil {
				t.Fatalf("seed %d p=%d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(par.Selected, serial.Selected) || par.Profit != serial.Profit || par.Bound != serial.Bound {
				t.Errorf("seed %d p=%d: diverged: profit %v vs %v", seed, workers, par.Profit, serial.Profit)
			}
		}
	}
}

// TestConflictComponents checks the component decomposition: a partition of
// the item ids, no conflict edge crossing components, sorted members.
func TestConflictComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		cfg := workload.TreeConfig{
			Vertices: 12 + rng.Intn(30), Trees: 1 + rng.Intn(5),
			Demands: 5 + rng.Intn(40), ProfitRatio: 4,
			AccessMin: 1, AccessMax: 1 + rng.Intn(3),
		}
		items := treeItems(t, cfg, int64(trial))
		adj := engine.BuildConflicts(items)
		comps := engine.ConflictComponents(adj)
		which := make([]int, len(items))
		for i := range which {
			which[i] = -1
		}
		total := 0
		for c, comp := range comps {
			for i, id := range comp {
				if i > 0 && comp[i-1] >= id {
					t.Fatalf("trial %d: component %d not strictly ascending", trial, c)
				}
				if which[id] != -1 {
					t.Fatalf("trial %d: item %d in two components", trial, id)
				}
				which[id] = c
				total++
			}
		}
		if total != len(items) {
			t.Fatalf("trial %d: components cover %d of %d items", trial, total, len(items))
		}
		for v := range adj {
			for _, w := range adj[v] {
				if which[v] != which[w] {
					t.Fatalf("trial %d: conflict edge %d-%d crosses components", trial, v, w)
				}
			}
		}
	}
}

// TestPreparedConflictsMatchBuild pins the adjacency a Prepared builds — at
// any worker budget, after the shard pipeline has run — to the standalone
// construction.
func TestPreparedConflictsMatchBuild(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		items := treeItems(t, workload.TreeConfig{
			Vertices: 64, Trees: 3, Demands: 80, ProfitRatio: 16,
		}, seed)
		want := engine.BuildConflicts(items)
		for _, workers := range []int{1, 2, 4, 7} {
			p := engine.PrepareWorkers(items, workers)
			if _, err := p.RunParallel(engine.Config{Epsilon: 0.1, Seed: seed}, workers); err != nil {
				t.Fatal(err)
			}
			if got := p.Conflicts(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: adjacency diverged", seed, workers)
			}
		}
	}
}

// TestSolvePathAdjacencyFree pins that the pairwise adjacency is derived
// state, not kept state: after a cold sharded solve, an Apply and the
// re-solves after it (sharded with warm replay, and serial), Conflicts
// still equals the standalone construction over the current items.
func TestSolvePathAdjacencyFree(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 32, Trees: 4, Demands: 48, ProfitRatio: 8, AccessMin: 1, AccessMax: 1,
	}, 4)
	cfg := engine.Config{Epsilon: 0.1, Seed: 4}
	for _, w := range []int{1, 4} {
		p := engine.PrepareWorkers(slices.Clone(items), w)
		p.EnableWarmStart()
		check := func(stage string) {
			t.Helper()
			if got, want := p.Conflicts(), engine.BuildConflicts(p.Items()); !reflect.DeepEqual(got, want) {
				t.Fatalf("w=%d: adjacency after %s diverged from BuildConflicts", w, stage)
			}
		}
		if _, err := p.RunParallel(cfg, w); err != nil {
			t.Fatal(err)
		}
		check("the cold solve")
		if err := p.Apply(engine.Delta{Remove: []int{0, 5}, Add: []engine.Item{items[0]}}); err != nil {
			t.Fatal(err)
		}
		check("Apply")
		if _, err := p.RunParallel(cfg, w); err != nil {
			t.Fatal(err)
		}
		check("the sharded re-solve")
		if _, err := p.Run(cfg); err != nil {
			t.Fatal(err)
		}
		check("the serial re-solve")
	}
}

// TestConflictsConcurrentFirstUse races calls to Conflicts on one shared
// Prepared: every caller gets the reference adjacency (run under -race to
// check that the build only reads the Prepared).
func TestConflictsConcurrentFirstUse(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 32, Trees: 3, Demands: 48, ProfitRatio: 8}, 8)
	want := engine.BuildConflicts(items)
	p := engine.Prepare(items)
	got := make([][][]int, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = p.Conflicts()
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("caller %d: adjacency diverged from BuildConflicts", g)
		}
	}
}
