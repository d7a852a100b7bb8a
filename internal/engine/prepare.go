package engine

import (
	"slices"
	"sync"

	"treesched/internal/dual"
)

// This file implements run preparation: everything about an item set that
// is independent of the Config and can therefore be built once and reused
// across solves — the dense dual layout (interned demand slots and edge
// indices plus per-item views), the demand/edge group member lists that
// complete the §2 conflict incidence, and, for the sharded pipeline, the
// conflict components as id lists over that one layout. The root Solver
// caches Prepared values keyed by instance content, so the steady state of
// a scheduling service re-solving a fixed network set skips interning
// entirely and goes straight into the schedule.
// For churning workloads — demands arriving and departing on an unchanged
// network — Prepared.Apply (delta.go) updates the same state incrementally.

// layout is the dense dual addressing of one item set: a frozen dual.Index
// plus per-item views and per-owner stream bookkeeping. Built once; strictly
// read-only during runs, so any number of concurrent runs may share it.
// Prepared.Apply extends it in place between runs: removed items leave their
// interned slots behind (stale slots hold zero and are never referenced by a
// view, so they cannot affect results), and added items intern at the end.
type layout struct {
	ix        *dual.Index
	views     []ItemView // dense view per item, aligned with items
	ownerID   []int      // owner slot -> external owner id (stream seeding)
	ownerSlot []int32    // item -> owner slot
	owners    map[int]int32
}

// buildLayout interns every item of the set into a fresh index.
func buildLayout(items []Item) *layout {
	lay := &layout{
		ix:        dual.NewIndexSized(len(items)),
		owners:    make(map[int]int32, len(items)),
		views:     make([]ItemView, len(items)),
		ownerSlot: make([]int32, len(items)),
	}
	for i := range items {
		it := &items[i]
		lay.views[i] = internItem(lay.ix, it)
		lay.ownerSlot[i] = lay.internOwner(it.Owner)
	}
	return lay
}

// internOwner returns the stream slot of an external owner id, interning it
// when new.
func (lay *layout) internOwner(owner int) int32 {
	s, ok := lay.owners[owner]
	if !ok {
		s = int32(len(lay.ownerID))
		lay.owners[owner] = s
		lay.ownerID = append(lay.ownerID, owner)
	}
	return s
}

// Prepared is an item set with its Config-independent run state: dense
// layout, dense group member lists, and (lazily) the connected components
// of the sharded pipeline. A Prepared is immutable during runs apart from
// the lazily-built components (guarded by shardMu), so it is safe for
// concurrent Run/RunParallel calls — the property the root Solver's
// cross-solve cache relies on. Apply (delta.go) mutates the state between
// runs; it must never overlap a run or another Apply on the same Prepared.
type Prepared struct {
	items []Item
	lay   *layout
	// demandMembers[s] / edgeMembers[e] list the item ids (ascending) whose
	// demand interned to slot s / whose path contains edge index e: the
	// group side of the conflict incidence, which Apply patches in place
	// and the component decomposition runs over.
	demandMembers [][]int32
	edgeMembers   [][]int32

	shardMu     sync.Mutex
	shardsBuilt bool
	shardsStale bool   // an Apply ran since the last shard build
	touched     []bool // items whose neighbors/content/id changed since then
	comps       [][]int
	shards      []*preShard

	// warm is the per-component outcome cache of the sharded pipeline
	// (warm.go); off unless EnableWarmStart was called.
	warm warmState

	// applyScr is Apply's pooled bookkeeping (delta.go); lazily allocated on
	// the first Apply and reused since Applies never overlap.
	applyScr *applyScratch

	// rec observes phase spans and counters (recorder.go); nil = no-op.
	// Set before the Prepared is shared, read-only during runs.
	rec Recorder
}

// preShard is one conflict component: a view over the Prepared's layout
// named by its item ids. Its pointer identity is the warm cache's key.
type preShard struct {
	comp []int // global item ids, ascending
}

// Prepare builds the Config-independent run state of an item set: the
// dense layout and the group member lists, in O(Σ|path|). The layout's
// interned demand slots and edge indices double as the conflict grouping,
// so the items are traversed and hashed exactly once.
func Prepare(items []Item) *Prepared {
	lay := buildLayout(items)
	dm, em := buildMembers(lay.views, lay.ix.NumDemands(), lay.ix.NumEdges())
	return &Prepared{
		items:         items,
		lay:           lay,
		demandMembers: dm,
		edgeMembers:   em,
	}
}

// PrepareWorkers is Prepare. Preparation is linear and serial, so the
// worker budget is ignored; the function remains for callers written
// against the budgeted signature.
func PrepareWorkers(items []Item, workers int) *Prepared { return Prepare(items) }

// Items returns the prepared item set. Callers must not mutate it.
func (p *Prepared) Items() []Item { return p.items }

// Conflicts builds the pairwise conflict adjacency of the prepared items
// from their member lists: sorted, deduplicated rows, as BuildConflicts
// returns them. Every call builds afresh and returns a slice the caller
// owns; no solve path and no dist run calls it.
func (p *Prepared) Conflicts() [][]int {
	return conflictsSerial(len(p.items), p.lay.views, p.demandMembers, p.edgeMembers, dedupEdgeGroups(p.edgeMembers))
}

// Run executes the serial engine over the prepared state on the calling
// goroutine — the ground truth every shard-worker count is pinned bitwise
// against.
func (p *Prepared) Run(cfg Config) (*Result, error) {
	plan, err := PlanFor(p.items, &cfg)
	if err != nil {
		return nil, err
	}
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseSolve)
		rec.Count(CounterItems, int64(len(p.items)))
	}
	res, err := p.runSerial(cfg, plan)
	if rec != nil && err == nil {
		rec.EndSpan(PhaseSolve, tok)
	}
	return res, err
}

// ensureShards builds the component decomposition, reusing it across runs.
// After an Apply, the components are recomputed over the incidence (linear
// in Σ|path|), and every component untouched by any delta since the last
// build — same member ids, no member's groups, content or id changed —
// keeps its preShard, and with it its warm-cache entry; only components the
// churn actually reached get fresh ones.
func (p *Prepared) ensureShards() {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	if p.shardsBuilt && !p.shardsStale {
		return
	}
	var tok int64
	if p.rec != nil {
		tok = p.rec.StartSpan(PhaseComponents)
	}
	scr := scratchPool.Get().(*solveScratch)
	comps := incidenceComponents(len(p.items), p.demandMembers, p.edgeMembers, scr)
	scratchPool.Put(scr)
	var reusable map[int]*preShard // previous shards by smallest member id
	if p.shardsStale && len(p.shards) > 0 {
		reusable = make(map[int]*preShard, len(p.shards))
		for _, sh := range p.shards {
			if len(sh.comp) > 0 {
				reusable[sh.comp[0]] = sh
			}
		}
	}
	p.comps = comps
	p.shards = nil
	p.shardsBuilt = true
	p.shardsStale = false
	touched := p.touched
	p.touched = nil
	if len(comps) <= 1 {
		if p.rec != nil {
			p.rec.EndSpan(PhaseComponents, tok)
		}
		return
	}
	p.shards = make([]*preShard, len(comps))
	for s, comp := range comps {
		if sh := reusable[comp[0]]; sh != nil && slices.Equal(sh.comp, comp) && !anyTouched(touched, comp) {
			p.shards[s] = sh
			continue
		}
		p.shards[s] = &preShard{comp: comp}
	}
	if p.rec != nil {
		p.rec.EndSpan(PhaseComponents, tok)
	}
}

// knownSingleComponent reports whether the last shard build found at most
// one conflict component, without refreshing a stale decomposition. It is a
// heuristic gate for the warm path at workers ≤ 1: a contended instance
// whose items all conflict stays one component across churn, and paying a
// fresh component decomposition every round just to discover that again
// would regress the serial hot path. The answer may be stale after an
// Apply — the cost is only a missed warm opportunity, never a wrong result,
// because the serial engine is exact on any instance.
func (p *Prepared) knownSingleComponent() bool {
	p.shardMu.Lock()
	defer p.shardMu.Unlock()
	return p.shardsBuilt && len(p.comps) <= 1
}

func anyTouched(touched []bool, comp []int) bool {
	for _, id := range comp {
		if id < len(touched) && touched[id] {
			return true
		}
	}
	return false
}
