package dist

import (
	"fmt"
	"maps"
	"slices"

	"treesched/internal/engine"
)

// runContext is the read-only state one distributed run shares across all
// of its processor nodes: the schedule, the engine's interned dense layout
// (items and views), and the node-level projections of it
// (ownership, topology, per-node edge numberings and local views). It is
// built once per run from an engine.Prepared and never mutated afterwards,
// so a million nodes can read it concurrently — this is what lets per-node
// state shrink to a few slots: everything shape-like lives here, exactly
// once, instead of being copied into every node as the pre-compaction
// runtime did.
//
// All variable-length rows are subslices of per-field arenas (one backing
// array per field, not one allocation per node), so building the context
// for n nodes costs O(total content) allocations, not O(n).
type runContext struct {
	mode       engine.Mode
	seed       int64
	plan       *engine.Plan
	budget     int // B: Luby iterations per step
	period     int // 2B+1 rounds per step
	totalSteps int // T
	lastRound  int // ScheduleLength-1

	items []engine.Item     // shared with the Prepared; read-only
	views []engine.ItemView // global dense views, aligned with items

	itemNode  []int32   // item id -> owning node
	nodeItems [][]int32 // node -> own item ids, ascending
	nodeOwner []int     // node -> external owner id (PRNG stream seeding)
	topology  [][]int   // node -> neighbor node ids, sorted ascending
	// targets[x] lists, for item x, the positions (into the owner's sorted
	// topology row) of the neighbors holding an item conflicting with x —
	// the recipients of x's draws and raise announcements.
	targets [][]int32
	// nodeEdges[a] is node a's sorted set of global β indices: the union of
	// its items' path edges. Each node's dual assignment is dense over this
	// local numbering.
	nodeEdges [][]int32
	// local[a] holds node a's items' views re-addressed to its local dual:
	// Slot 0 (one demand per processor), Edges/Critical as indices into
	// nodeEdges[a].
	local [][]engine.ItemView

	sharedBytes int64 // resident bytes of the context-owned arenas
}

// buildContext projects the prepared global layout onto the processor
// model: one node per demand owner, validated as a bijection exactly as the
// paper's model requires.
func buildContext(prep *engine.Prepared, cfg engine.Config, plan *engine.Plan, budget int) (*runContext, error) {
	items := prep.Items()
	ctx := &runContext{
		mode:       cfg.Mode,
		seed:       cfg.Seed,
		plan:       plan,
		budget:     budget,
		period:     2*budget + 1,
		totalSteps: plan.TotalSteps(),
		items:      items,
		views:      prep.Views(),
	}
	ctx.lastRound = ScheduleLength(ctx.totalSteps, budget) - 1

	// Owner/demand bijection (§2: one processor per demand, one demand per
	// processor); nodes are ordered by ascending owner id.
	demandOwner := make(map[int]int)
	ownerDemand := make(map[int]int)
	for i := range items {
		it := &items[i]
		if prev, ok := demandOwner[it.Demand]; ok && prev != it.Owner {
			return nil, fmt.Errorf("dist: demand %d owned by both processor %d and %d", it.Demand, prev, it.Owner)
		}
		if prev, ok := ownerDemand[it.Owner]; ok && prev != it.Demand {
			return nil, fmt.Errorf("dist: processor %d owns both demand %d and %d; the model has one demand per processor", it.Owner, prev, it.Demand)
		}
		demandOwner[it.Demand] = it.Owner
		ownerDemand[it.Owner] = it.Demand
	}
	ctx.nodeOwner = slices.Sorted(maps.Keys(ownerDemand))
	n := len(ctx.nodeOwner)
	ownerNode := make(map[int]int32, n)
	for idx, o := range ctx.nodeOwner {
		ownerNode[o] = int32(idx)
	}

	// Ownership rows: items are scanned in id order, so each node's row is
	// ascending by construction.
	m := len(items)
	ctx.itemNode = make([]int32, m)
	counts := make([]int32, n)
	for i := range items {
		nd := ownerNode[items[i].Owner]
		ctx.itemNode[i] = nd
		counts[nd]++
	}
	ctx.nodeItems = fillRows32(counts, func(emit func(node int32, v int32)) {
		for i := range items {
			emit(ctx.itemNode[i], int32(i))
		}
	})

	ctx.buildTopology(prep.EdgeMembers())
	ctx.buildLocalViews(n)
	ctx.accountShared()
	return ctx, nil
}

// fillRows32 builds [][]int32 rows over a single arena: counts gives each
// row's length, fill emits (row, value) pairs in row-internal order.
func fillRows32(counts []int32, fill func(emit func(node int32, v int32))) [][]int32 {
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	arena := make([]int32, total)
	rows := make([][]int32, len(counts))
	off := 0
	for i, c := range counts {
		rows[i] = arena[off : off : off+int(c)]
		off += int(c)
	}
	fill(func(node int32, v int32) {
		rows[node] = append(rows[node], v)
	})
	return rows
}

// buildTopology derives the processor topology and every item's targets
// from the edge member lists in one scan of the incidence. Distinct
// processors own distinct demands, so across nodes two items conflict
// exactly when they share an edge:
//
//   - the targets of item x are the owners of the items on x's edges, less
//     x's own node, deduplicated by a per-node stamp and sorted;
//   - node a's topology row is the sorted union of its items' target sets
//     (already sorted and distinct when a holds one item);
//   - each target is then rewritten as its position in the owner's row,
//     the per-neighbor outbox bucket x's draws and raises go to.
//
// Two processors are thus connected iff they hold conflicting items (the §2
// conflict graph projected onto processors): exactly the pairs that ever
// need to exchange draws or raise announcements.
func (ctx *runContext) buildTopology(edgeMembers [][]int32) {
	n, m := len(ctx.nodeItems), len(ctx.items)
	stamp := make([]int32, n) // the last item whose targets took each node
	for i := range stamp {
		stamp[i] = -1
	}
	// Targets are appended node by node, each node's items in order, so
	// item x's run ends at ends[x] and starts where the run before it ended.
	ends := make([]int32, m)
	arena := make([]int32, 0, m)
	for a, own := range ctx.nodeItems {
		for _, x := range own {
			start := len(arena)
			for _, e := range ctx.views[x].Edges {
				for _, w := range edgeMembers[e] {
					if b := ctx.itemNode[w]; b != int32(a) && stamp[b] != x {
						stamp[b] = x
						arena = append(arena, b)
					}
				}
			}
			slices.Sort(arena[start:])
			ends[x] = int32(len(arena))
		}
	}

	// A row is at most its items' targets, so one arena of the targets'
	// total holds every row.
	rowArena := make([]int, 0, len(arena))
	ctx.topology = make([][]int, n)
	ctx.targets = make([][]int32, m)
	off := int32(0)
	for a, own := range ctx.nodeItems {
		start := len(rowArena)
		for _, b := range arena[off:ends[own[len(own)-1]]] {
			rowArena = append(rowArena, int(b))
		}
		row := rowArena[start:]
		if len(own) > 1 {
			slices.Sort(row)
			row = slices.Compact(row)
			rowArena = rowArena[:start+len(row)]
		}
		row = row[:len(row):len(row)]
		ctx.topology[a] = row
		for _, x := range own {
			seg := arena[off:ends[x]:ends[x]]
			off = ends[x]
			j := 0
			for i, b := range seg {
				for row[j] != int(b) {
					j++
				}
				seg[i] = int32(j)
			}
			ctx.targets[x] = seg
		}
	}
}

// buildLocalViews numbers each node's β-edges densely (sorted union of its
// items' paths) and re-addresses its items' views to that numbering, with
// the single α slot 0. The raise/satisfaction arithmetic over these local
// views is operand-for-operand the arithmetic the engine performs over the
// global layout — only the addressing differs — which is the heart of the
// bitwise dist ≡ engine argument.
func (ctx *runContext) buildLocalViews(n int) {
	edgeCounts := make([]int32, n)
	viewLens := 0
	for i := range ctx.views {
		v := &ctx.views[i]
		edgeCounts[ctx.itemNode[i]] += int32(len(v.Edges))
		viewLens += len(v.Edges) + len(v.Critical)
	}
	ctx.nodeEdges = fillRows32(edgeCounts, func(emit func(node int32, v int32)) {
		for i := range ctx.views {
			nd := ctx.itemNode[i]
			for _, e := range ctx.views[i].Edges {
				emit(nd, e)
			}
		}
	})
	for a := range ctx.nodeEdges {
		slices.Sort(ctx.nodeEdges[a])
		ctx.nodeEdges[a] = slices.Compact(ctx.nodeEdges[a])
	}

	viewArena := make([]engine.ItemView, len(ctx.items))
	ixArena := make([]int32, 0, viewLens)
	ctx.local = make([][]engine.ItemView, n)
	off := 0
	for a := 0; a < n; a++ {
		own := ctx.nodeItems[a]
		ctx.local[a] = viewArena[off : off+len(own)]
		off += len(own)
		edges := ctx.nodeEdges[a]
		for k, g := range own {
			gv := &ctx.views[g]
			lv := &ctx.local[a][k]
			lv.Slot = 0
			lv.Profit = gv.Profit
			lv.Height = gv.Height
			lv.Edges, ixArena = localizeIdx(gv.Edges, edges, ixArena)
			lv.Critical, ixArena = localizeIdx(gv.Critical, edges, ixArena)
		}
	}
}

// localizeIdx translates global β indices to positions in the node's sorted
// edge set, appending into the shared arena (pre-sized, so subslices stay
// valid).
func localizeIdx(global, sorted []int32, arena []int32) ([]int32, []int32) {
	start := len(arena)
	for _, g := range global {
		li, ok := findIdx(sorted, g)
		if !ok {
			panic("dist: item edge missing from its node's edge set")
		}
		arena = append(arena, li)
	}
	return arena[start:len(arena):len(arena)], arena
}

// findIdx binary-searches a sorted []int32.
//
//schedvet:hot
func findIdx(sorted []int32, g int32) (int32, bool) {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == g {
		return int32(lo), true
	}
	return 0, false
}

// conflict reports whether items x and w conflict (§2): they share a
// demand slot or an edge. Paths are short, so a nested scan of the two
// edge lists beats any per-node conflict set, at zero per-node bytes.
//
//schedvet:hot
func (ctx *runContext) conflict(x, w int32) bool {
	vx, vw := &ctx.views[x], &ctx.views[w]
	if vx.Slot == vw.Slot {
		return true
	}
	for _, e := range vx.Edges {
		if slices.Contains(vw.Edges, e) {
			return true
		}
	}
	return false
}

// accountShared sums the resident bytes of the context-owned arenas (the
// engine-owned items and views are accounted to the Prepared, not here).
func (ctx *runContext) accountShared() {
	b := int64(len(ctx.itemNode))*4 + int64(len(ctx.nodeOwner))*8
	b += rowBytes32(ctx.nodeItems) + rowBytes32(ctx.targets) + rowBytes32(ctx.nodeEdges)
	for _, r := range ctx.topology {
		b += int64(sliceHeaderBytes) + int64(len(r))*8
	}
	for _, vs := range ctx.local {
		b += int64(sliceHeaderBytes)
		for i := range vs {
			b += itemViewBytes + int64(len(vs[i].Edges)+len(vs[i].Critical))*4
		}
	}
	ctx.sharedBytes = b
}

func rowBytes32(rows [][]int32) int64 {
	b := int64(0)
	for _, r := range rows {
		b += int64(sliceHeaderBytes) + int64(len(r))*4
	}
	return b
}

const (
	sliceHeaderBytes = 24
	itemViewBytes    = 72 // ItemView struct: slot+pads, 2 float64, 2 slice headers
)
