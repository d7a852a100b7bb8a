package dist_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/graph"
	"treesched/internal/model"
	"treesched/internal/workload"
)

func treeItems(t testing.TB, wcfg workload.TreeConfig, instSeed int64, kind engine.DecompKind) []engine.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(instSeed))
	in, err := workload.RandomTreeInstance(wcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, kind)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestEngineEquivalence is the headline invariant: dist and engine.Run
// return identical results for identical (items, Config) — selection,
// profit, λ, dual bound, dual variables and raise trace — swept over
// seeds × modes × decompositions.
func TestEngineEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	decomps := []engine.DecompKind{engine.IdealDecomp, engine.BalancingDecomp, engine.RootFixingDecomp}
	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		for _, kind := range decomps {
			wcfg := workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 11, ProfitRatio: 6}
			if mode == engine.Narrow {
				wcfg.Heights = workload.NarrowHeights
				wcfg.HMin = 0.2
			}
			items := treeItems(t, wcfg, 42+int64(mode), kind)
			for _, seed := range seeds {
				cfg := engine.Config{Mode: mode, Epsilon: 0.3, Seed: seed, RecordTrace: true}
				eres, err := engine.Run(items, cfg)
				if err != nil {
					t.Fatalf("%v/%v/seed %d: engine: %v", mode, kind, seed, err)
				}
				dres, err := dist.Run(items, cfg)
				if err != nil {
					t.Fatalf("%v/%v/seed %d: dist: %v", mode, kind, seed, err)
				}
				if !reflect.DeepEqual(eres.Selected, dres.Selected) {
					t.Errorf("%v/%v/seed %d: selections differ:\nengine %v\ndist   %v",
						mode, kind, seed, eres.Selected, dres.Selected)
				}
				if eres.Profit != dres.Profit {
					t.Errorf("%v/%v/seed %d: profit differs: engine %v dist %v",
						mode, kind, seed, eres.Profit, dres.Profit)
				}
				if eres.Lambda != dres.Lambda || eres.Bound != dres.Bound {
					t.Errorf("%v/%v/seed %d: λ/bound differ: engine (%v, %v) dist (%v, %v)",
						mode, kind, seed, eres.Lambda, eres.Bound, dres.Lambda, dres.Bound)
				}
				if !reflect.DeepEqual(eres.Trace, dres.Trace) {
					t.Errorf("%v/%v/seed %d: traces differ:\nengine %+v\ndist   %+v",
						mode, kind, seed, eres.Trace.Events, dres.Trace.Events)
				}
				if !reflect.DeepEqual(eres.Dual.AlphaMap(), dres.Dual.AlphaMap()) ||
					!reflect.DeepEqual(eres.Dual.BetaMap(), dres.Dual.BetaMap()) {
					t.Errorf("%v/%v/seed %d: replayed dual differs from engine dual", mode, kind, seed)
				}
			}
		}
	}
}

// TestEquivalenceLineItems covers the §7 line reduction path.
func TestEquivalenceLineItems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, err := workload.RandomLineInstance(workload.LineConfig{
		Slots: 24, Resources: 2, Demands: 10, ProcMin: 2, ProcMax: 6,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	items, err := engine.BuildLineItems(in)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.2, Seed: seed}
		eres, err := engine.Run(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := dist.Run(items, cfg)
		if err != nil {
			t.Fatalf("line/seed %d: dist: %v", seed, err)
		}
		if !reflect.DeepEqual(eres.Selected, dres.Selected) || eres.Profit != dres.Profit {
			t.Errorf("seed %d: engine (%v, %v) vs dist (%v, %v)",
				seed, eres.Selected, eres.Profit, dres.Selected, dres.Profit)
		}
	}
}

// TestEquivalenceSingleStage covers the A2 Panconesi–Sozio-style schedule.
func TestEquivalenceSingleStage(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 14, Trees: 2, Demands: 9, ProfitRatio: 4}, 5, engine.IdealDecomp)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 3, SingleStage: true}
	eres, err := engine.Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dist.Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eres.Selected, dres.Selected) || eres.Profit != dres.Profit {
		t.Errorf("engine (%v, %v) vs dist (%v, %v)", eres.Selected, eres.Profit, dres.Selected, dres.Profit)
	}
}

// TestRoundAccounting pins the fixed-schedule identity: the simulator walks
// exactly the 1 + T·(2B+1) scheduled rounds (skipping idle ones but still
// counting them), and the caller-facing fields are consistent.
func TestRoundAccounting(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 4}, 9, engine.IdealDecomp)
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantLen := dist.ScheduleLength(res.Plan.TotalSteps(), res.LubyBudget)
	if res.ScheduleRounds != wantLen {
		t.Errorf("ScheduleRounds = %d, want %d", res.ScheduleRounds, wantLen)
	}
	if res.Stats.Rounds != res.ScheduleRounds {
		t.Errorf("Stats.Rounds = %d, want the full schedule %d", res.Stats.Rounds, res.ScheduleRounds)
	}
	if res.Stats.SkippedRounds == 0 {
		t.Error("no rounds fast-forwarded; idle-skip path untested")
	}
	if res.Stats.BusyRounds == 0 || res.Stats.BusyRounds > res.Stats.Rounds-res.Stats.SkippedRounds {
		t.Errorf("BusyRounds = %d out of %d executed", res.Stats.BusyRounds, res.Stats.Rounds-res.Stats.SkippedRounds)
	}
	if res.Stats.Messages == 0 {
		t.Error("protocol moved no messages")
	}
	if res.Processors == 0 {
		t.Error("no processors")
	}
}

// TestMaxMessageSize verifies the §5 O(M) bound as implemented: the largest
// message is one processor's setup descriptor list, at most its item count.
func TestMaxMessageSize(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 20, Trees: 3, Demands: 12, ProfitRatio: 4}, 11, engine.IdealDecomp)
	perOwner := make(map[int]int)
	maxOwn := 0
	for _, it := range items {
		perOwner[it.Owner]++
		if perOwner[it.Owner] > maxOwn {
			maxOwn = perOwner[it.Owner]
		}
	}
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageSize > maxOwn {
		t.Errorf("max message %d exceeds largest per-processor item count %d", res.Stats.MaxMessageSize, maxOwn)
	}
}

// TestEmptyItems: the degenerate instance runs and matches the engine.
func TestEmptyItems(t *testing.T) {
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3}
	eres, err := engine.Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dist.Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eres.Selected, dres.Selected) || dres.Profit != 0 {
		t.Errorf("empty run: engine %v vs dist %v (profit %v)", eres.Selected, dres.Selected, dres.Profit)
	}
}

// TestGreedyMISRejected: the deterministic MIS is an engine-only ablation.
func TestGreedyMISRejected(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 8, Trees: 1, Demands: 4, ProfitRatio: 2}, 1, engine.IdealDecomp)
	_, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, MIS: engine.GreedyMIS})
	if err == nil || !strings.Contains(err.Error(), "Luby") {
		t.Fatalf("want Luby-only error, got %v", err)
	}
}

// TestInvalidConfigRejected: PlanFor's validation surfaces unchanged.
func TestInvalidConfigRejected(t *testing.T) {
	if _, err := dist.Run(nil, engine.Config{Epsilon: 2}); err == nil {
		t.Fatal("epsilon 2 accepted")
	}
}

// TestOwnerDemandBijectionEnforced: the nodes' conflict bookkeeping assumes
// the paper's one-processor-per-demand model in both directions; violating
// items must be rejected rather than silently executed on a different
// conflict graph than the engine's.
func TestOwnerDemandBijectionEnforced(t *testing.T) {
	mk := func(id, demand, owner, edge int) engine.Item {
		e := model.MakeEdgeKey(0, graph.EdgeID(edge))
		return engine.Item{ID: id, Demand: demand, Owner: owner, Group: 1, Profit: 1, Height: 1,
			Edges: []model.EdgeKey{e}, Critical: []model.EdgeKey{e}}
	}
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3}

	twoOwners := []engine.Item{mk(0, 0, 0, 0), mk(1, 0, 1, 1)}
	if _, err := dist.Run(twoOwners, cfg); err == nil || !strings.Contains(err.Error(), "owned by both") {
		t.Errorf("demand with two owners: got %v", err)
	}

	twoDemands := []engine.Item{mk(0, 0, 0, 0), mk(1, 1, 0, 1)}
	if _, err := dist.Run(twoDemands, cfg); err == nil || !strings.Contains(err.Error(), "one demand per processor") {
		t.Errorf("owner with two demands: got %v", err)
	}
}

// TestLubyBudgetMonotone: the budget grows with n and stays positive.
func TestLubyBudgetMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{0, 1, 2, 10, 100, 1000, 100000} {
		b := dist.LubyBudgetFor(n)
		if b <= 0 {
			t.Fatalf("LubyBudgetFor(%d) = %d", n, b)
		}
		if b < prev {
			t.Fatalf("budget not monotone at n=%d: %d < %d", n, b, prev)
		}
		prev = b
	}
	if got := dist.ScheduleLength(0, 5); got != 1 {
		t.Errorf("ScheduleLength(0, 5) = %d, want 1", got)
	}
	if got := dist.ScheduleLength(3, 2); got != 16 {
		t.Errorf("ScheduleLength(3, 2) = %d, want 16", got)
	}
}

// TestBudgetOverrunIsTyped forces the Luby budget to one iteration on a
// conflict chain (item i shares edge i+1 with item i+1), where a single
// Luby iteration leaves items undecided: the overrun must come back as a *dist.BudgetError naming the node, step and live count.
func TestBudgetOverrunIsTyped(t *testing.T) {
	dist.ForceLubyBudgetForTest(t, 1)
	e := func(k int) model.EdgeKey { return model.MakeEdgeKey(0, graph.EdgeID(k)) }
	items := make([]engine.Item, 32)
	for i := range items {
		items[i] = engine.Item{ID: i, Demand: i, Owner: i, Group: 1, Profit: 1, Height: 1,
			Edges: []model.EdgeKey{e(i), e(i + 1)}, Critical: []model.EdgeKey{e(i)}}
	}
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.2, Seed: 5}
	_, err := dist.Run(items, cfg)
	var be *dist.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *dist.BudgetError, got %v", err)
	}
	if be.Budget != 1 || be.Live <= 0 || be.Node < 0 || be.Step < 0 {
		t.Fatalf("implausible budget error %+v", be)
	}
	if !strings.Contains(err.Error(), "Luby budget 1") {
		t.Fatalf("message lost the budget: %v", err)
	}
}

// TestDualBoundsAgree sanity-checks that the distributed selection respects
// the engine's certified bound (it must, being identical).
func TestDualBoundsAgree(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 10, ProfitRatio: 8}, 21, engine.IdealDecomp)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.2, Seed: 6}
	eres, err := engine.Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dist.Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Profit > eres.Bound+1e-9 {
		t.Errorf("distributed profit %v exceeds certified bound %v", dres.Profit, eres.Bound)
	}
	if math.IsNaN(dres.Profit) {
		t.Error("NaN profit")
	}
}

// TestCompactNodeState pins the tentpole memory claim: per-node private
// state stays a small constant number of bytes per demand on a fleet
// workload (many small trees, one accessible tree per demand — the shape
// million-demand runs use), with all layout data accounted to the shared
// read-only context. A node that starts copying critical sets or conflict
// maps again blows through the bound immediately (the pre-compaction
// runtime sat in the tens of kilobytes per demand on this workload).
// What remains per node is dominated by the per-neighbor outbox buckets —
// a small constant per conflict-graph neighbor — plus the dense local
// dual; ~4.2KB/demand at this workload's conflict degree (~60).
func TestCompactNodeState(t *testing.T) {
	items := treeItems(t, workload.TreeConfig{
		Vertices: 64, Trees: 32, Demands: 2048, ProfitRatio: 8,
		AccessMin: 1, AccessMax: 1,
	}, 13, engine.IdealDecomp)
	res, err := dist.Run(items, engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processors == 0 || res.NodeStateBytes == 0 || res.SharedStateBytes == 0 {
		t.Fatalf("accounting missing: processors %d, node bytes %d, shared bytes %d",
			res.Processors, res.NodeStateBytes, res.SharedStateBytes)
	}
	perDemand := res.NodeStateBytes / int64(res.Processors)
	const maxPerDemand = 6144
	if perDemand > maxPerDemand {
		t.Errorf("node state regressed: %d bytes/demand, budget %d (total %d over %d processors)",
			perDemand, int64(maxPerDemand), res.NodeStateBytes, res.Processors)
	}
	t.Logf("node state: %d bytes/demand private, %d bytes shared context", perDemand, res.SharedStateBytes)
}

// TestSharedCoreBetaGain pins the β-replay rule against the dual raise
// rules, the invariant that keeps remote β copies bit-identical.
func TestSharedCoreBetaGain(t *testing.T) {
	e1 := model.MakeEdgeKey(0, 1)
	e2 := model.MakeEdgeKey(0, 2)
	it := engine.Item{Demand: 0, Profit: 3, Height: 0.4,
		Edges: []model.EdgeKey{e1, e2}, Critical: []model.EdgeKey{e1, e2}}

	for _, mode := range []engine.Mode{engine.Unit, engine.Narrow} {
		raiser := engine.NewCore(mode)
		observer := engine.NewCore(mode)
		v := raiser.Intern(&it)
		delta := raiser.Raise(&v)
		if delta <= 0 {
			t.Fatalf("%v: delta = %v", mode, delta)
		}
		observer.ApplyRaise(observer.Dual.Index().Path(it.Critical), delta)
		for _, e := range it.Critical {
			if raiser.Dual.BetaOf(e) != observer.Dual.BetaOf(e) {
				t.Errorf("%v: β(%v) raiser %v observer %v", mode, e, raiser.Dual.BetaOf(e), observer.Dual.BetaOf(e))
			}
		}
	}
}
