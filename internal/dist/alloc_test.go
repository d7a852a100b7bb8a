package dist

import (
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"treesched/internal/dual"
	"treesched/internal/engine"
	"treesched/internal/simnet"
	"treesched/internal/workload"
)

// fleetContext builds the shared run context of a fleet instance with
// the given number of networks; fewer networks means denser conflicts.
func fleetContext(tb testing.TB, trees int) *runContext {
	tb.Helper()
	in, err := workload.RandomTreeInstance(workload.TreeConfig{
		Vertices: 64, Trees: trees, Demands: 512, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	items, err := engine.BuildTreeItems(in, engine.IdealDecomp)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 1}
	plan, err := engine.PlanFor(items, &cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, err := buildContext(engine.Prepare(items), cfg, plan, LubyBudgetFor(len(items)))
	if err != nil {
		tb.Fatal(err)
	}
	return ctx
}

// TestNodeConstructionAllocs guards the arena-built nodes: constructing
// every node and running its setup broadcast costs a fixed number of
// allocations, whatever the node count or the Σdeg of the topology; the
// two instances share a node count and differ eightfold in Σdeg.
func TestNodeConstructionAllocs(t *testing.T) {
	const maxAllocs = 10 // one per arena, plus slack for the runtime
	for _, trees := range []int{32, 4} {
		ctx := fleetContext(t, trees)
		deg := 0
		for _, row := range ctx.topology {
			deg += len(row)
		}
		allocs := testing.AllocsPerRun(5, func() {
			nodes := ctx.newNodes()
			for i := range nodes {
				nodes[i].Round(0, nil)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%d networks: %d nodes, Σdeg %d: %.0f allocs, want ≤ %d",
				trees, len(ctx.nodeItems), deg, allocs, maxAllocs)
		}
	}
}

// TestStateAccountingSizes pins stateBytes' and accountShared's per-entry
// constants, which state 64-bit struct sizes, to the structs themselves:
// a field added to a node, a message or an entry must move the accounting
// with it.
func TestStateAccountingSizes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the accounting constants state 64-bit sizes")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"messageBytes", messageBytes, unsafe.Sizeof(simnet.Message{})},
		{"entryBytes/drawEntry", entryBytes, unsafe.Sizeof(drawEntry{})},
		{"entryBytes/raiseEntry", entryBytes, unsafe.Sizeof(raiseEntry{})},
		{"entryBytes/raiseRec", entryBytes, unsafe.Sizeof(raiseRec{})},
		{"itemViewBytes", itemViewBytes, unsafe.Sizeof(engine.ItemView{})},
		{"sliceHeaderBytes", sliceHeaderBytes, unsafe.Sizeof([]int32(nil))},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, struct is %d bytes", c.name, c.got, c.want)
		}
	}
	if fixed := unsafe.Sizeof(node{}) + unsafe.Sizeof(dual.Assignment{}); nodeFixedBytes < fixed {
		t.Errorf("nodeFixedBytes = %d, below the node struct plus its dual's headers (%d bytes)", nodeFixedBytes, fixed)
	}
}
