package dist

import (
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/engine"
	"treesched/internal/simnet"
	"treesched/internal/workload"
)

// nextActiveRoundRef is NextActiveRound read straight off the schedule,
// kept as its oracle: from the first step after now it visits that step
// and then every later (epoch, stage) start in schedule order, recomputing
// the node's satisfaction at each, and returns the first step at which
// some owned item of the step's epoch misses the stage's threshold.
func (n *node) nextActiveRoundRef(now int) int {
	if n.done {
		return -1
	}
	if len(n.live) > 0 {
		return now + 1
	}
	ctx := n.ctx
	t := 0
	if now >= 1 {
		t = (now-1)/ctx.period + 1 // first step starting strictly after now
	}
	for t < ctx.totalSteps {
		epoch, _, iter, thresh := ctx.plan.StepAt(t)
		if n.hasUnsatisfied(epoch, thresh) {
			return 1 + t*ctx.period
		}
		t += ctx.plan.StepCap - iter // state is frozen: skip the rest of the stage
	}
	if ctx.lastRound > now {
		return ctx.lastRound
	}
	return now + 1
}

// refCheckNode wraps a node and, on every fast-forward query, asserts that
// the closed form agrees with the reference walk — at the asked round and
// at probes further out, which land mid-stage, on stage and epoch starts
// and past the schedule's end.
type refCheckNode struct {
	*node
	tb    testing.TB
	calls *int
}

func (w refCheckNode) NextActiveRound(now int) int {
	ctx := w.ctx
	perEpoch := ctx.plan.Stages * ctx.plan.StepCap * ctx.period
	for _, d := range []int{0, 1, ctx.period - 1, ctx.period, ctx.plan.StepCap * ctx.period, perEpoch, ctx.lastRound} {
		if got, want := w.node.NextActiveRound(now+d), w.nextActiveRoundRef(now+d); got != want {
			w.tb.Fatalf("node %d at round %d: NextActiveRound = %d, reference %d", w.id, now+d, got, want)
		}
	}
	*w.calls++
	return w.node.NextActiveRound(now)
}

// runChecked runs items with every node wrapped in refCheckNode and
// returns the Stats and the number of checked queries.
func runChecked(tb testing.TB, items []engine.Item, cfg engine.Config) (simnet.Stats, int) {
	tb.Helper()
	plan, err := engine.PlanFor(items, &cfg)
	if err != nil {
		tb.Fatal(err)
	}
	budget := LubyBudgetFor(len(items))
	ctx, err := buildContext(engine.Prepare(items), cfg, plan, budget)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := ctx.newNodes()
	calls := 0
	simNodes := make([]simnet.Node, len(nodes))
	for i := range nodes {
		simNodes[i] = refCheckNode{node: &nodes[i], tb: tb, calls: &calls}
	}
	nw, err := simnet.New(simNodes, ctx.topology)
	if err != nil {
		tb.Fatal(err)
	}
	maxRounds := ScheduleLength(plan.TotalSteps(), budget) + 2
	stats, err := nw.RunBatched(maxRounds, simnet.BatchConfig{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return stats, calls
}

func refItems(tb testing.TB, wcfg workload.TreeConfig, seed int64, kind engine.DecompKind) []engine.Item {
	tb.Helper()
	in, err := workload.RandomTreeInstance(wcfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, kind)
	if err != nil {
		tb.Fatal(err)
	}
	return items
}

// TestNextActiveRoundMatchesReference checks the closed-form
// NextActiveRound against the reference walk on every query of full runs:
// both raise modes, the single-stage schedule, every
// decomposition, and demands reaching up to three networks, so nodes own
// several items spread over several epochs. The wrapped run must also
// produce the unwrapped run's Stats.
func TestNextActiveRoundMatchesReference(t *testing.T) {
	decomps := []engine.DecompKind{engine.IdealDecomp, engine.BalancingDecomp, engine.RootFixingDecomp}
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for _, single := range []bool{false, true} {
			for _, kind := range decomps {
				for seed := int64(1); seed <= 5; seed++ {
					wcfg := workload.TreeConfig{Vertices: 18, Trees: 3, Demands: 14, ProfitRatio: 6, AccessMin: 1, AccessMax: 3}
					if mode == engine.Narrow {
						wcfg.Heights = workload.NarrowHeights
						wcfg.HMin = 0.2
					}
					items := refItems(t, wcfg, seed, kind)
					cfg := engine.Config{Mode: mode, Epsilon: 0.3, Seed: seed, SingleStage: single}
					want, err := RunOpts(items, cfg, Options{})
					if err != nil {
						t.Fatal(err)
					}
					stats, calls := runChecked(t, items, cfg)
					if calls == 0 {
						t.Fatalf("%v/%v/single=%v/seed %d: no fast-forward queries", mode, kind, single, seed)
					}
					if stats != want.Stats {
						t.Errorf("%v/%v/single=%v/seed %d: wrapped Stats %+v, want %+v",
							mode, kind, single, seed, stats, want.Stats)
					}
				}
			}
		}
	}
}

// FuzzNextActiveRound runs the reference check on random instances: the
// demand count and the number of networks a demand may reach vary, and
// with them the items per node and the epochs they fall in.
func FuzzNextActiveRound(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1))
	f.Add(int64(7), uint8(14), uint8(3))
	f.Add(int64(42), uint8(20), uint8(2))
	f.Add(int64(1205), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, demands, access uint8) {
		wcfg := workload.TreeConfig{
			Vertices: 14, Trees: 3, Demands: 1 + int(demands)%20, ProfitRatio: 5,
			AccessMin: 1, AccessMax: 1 + int(access)%3,
		}
		in, err := workload.RandomTreeInstance(wcfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip()
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			t.Skip()
		}
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: seed}
		if _, err := engine.PlanFor(items, &cfg); err != nil {
			t.Skip()
		}
		runChecked(t, items, cfg)
	})
}

// topologyRef is the adjacency-walking topology builder, kept as the
// oracle of buildTopology: two processors are connected iff some pair of
// their items is adjacent in adj. Rows are sorted and deduplicated.
func (ctx *runContext) topologyRef(adj [][]int) [][]int {
	rows := make([][]int, len(ctx.nodeItems))
	for v := range adj {
		a := ctx.itemNode[v]
		for _, w := range adj[v] {
			if b := ctx.itemNode[w]; b != a {
				rows[a] = append(rows[a], int(b))
			}
		}
	}
	for a := range rows {
		slices.Sort(rows[a])
		rows[a] = slices.Compact(rows[a])
	}
	return rows
}

// targetsRef is the adjacency-walking targets builder, kept as the oracle
// of buildTopology: item v's targets are the other nodes holding an item
// adjacent to v, as ascending positions in the owner's row of topology.
func (ctx *runContext) targetsRef(adj [][]int, topology [][]int) [][]int32 {
	targets := make([][]int32, len(adj))
	for v := range adj {
		a := ctx.itemNode[v]
		var nodes []int
		for _, w := range adj[v] {
			if b := ctx.itemNode[w]; b != a {
				nodes = append(nodes, int(b))
			}
		}
		slices.Sort(nodes)
		for _, b := range slices.Compact(nodes) {
			pos, ok := slices.BinarySearch(topology[a], b)
			if !ok {
				panic("dist: conflicting neighbor missing from topology row")
			}
			targets[v] = append(targets[v], int32(pos))
		}
	}
	return targets
}

// equalRows reports whether a and b hold equal rows, an empty row equal to
// a nil one.
func equalRows[T comparable](a, b [][]T) bool {
	return slices.EqualFunc(a, b, func(x, y []T) bool { return slices.Equal(x, y) })
}

// FuzzContextTopology checks the run context's incidence-derived structure
// against the pairwise adjacency BuildConflicts returns: the processor
// topology and every item's targets equal the adjacency-walking oracles,
// and conflict(x, w) holds for exactly the adjacent pairs. Demands reach
// up to three networks, so nodes own several items, in both raise modes.
func FuzzContextTopology(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), false)
	f.Add(int64(7), uint8(20), uint8(2), false)
	f.Add(int64(42), uint8(14), uint8(1), true)
	f.Add(int64(1205), uint8(23), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, demands, access uint8, narrow bool) {
		wcfg := workload.TreeConfig{
			Vertices: 14, Trees: 3, Demands: 1 + int(demands)%24, ProfitRatio: 5,
			AccessMin: 1, AccessMax: 1 + int(access)%3,
		}
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: seed}
		if narrow {
			wcfg.Heights = workload.NarrowHeights
			wcfg.HMin = 0.2
			cfg.Mode = engine.Narrow
		}
		in, err := workload.RandomTreeInstance(wcfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip()
		}
		items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
		if err != nil {
			t.Skip()
		}
		plan, err := engine.PlanFor(items, &cfg)
		if err != nil {
			t.Skip()
		}
		ctx, err := buildContext(engine.Prepare(items), cfg, plan, LubyBudgetFor(len(items)))
		if err != nil {
			t.Fatal(err)
		}
		adj := engine.BuildConflicts(items)
		topology := ctx.topologyRef(adj)
		if !equalRows(ctx.topology, topology) {
			t.Fatalf("topology %v, reference %v", ctx.topology, topology)
		}
		if targets := ctx.targetsRef(adj, topology); !equalRows(ctx.targets, targets) {
			t.Fatalf("targets %v, reference %v", ctx.targets, targets)
		}
		for x := range adj {
			for w := range adj {
				if w == x {
					continue
				}
				if got, want := ctx.conflict(int32(x), int32(w)), slices.Contains(adj[x], w); got != want {
					t.Fatalf("conflict(%d, %d) = %v, adjacency says %v", x, w, got, want)
				}
			}
		}
	})
}
