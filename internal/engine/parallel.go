package engine

import (
	"runtime"
	"slices"
	"sync"

	"treesched/internal/dual"
)

// This file implements the sharded parallel solve pipeline. The conflict
// graph of §2 decomposes into connected components that never exchange
// messages: items in different components share no demand and no edge, so
// their dual variables are disjoint, their raise rules never read each
// other's state, and — because priorities come from per-owner PRNG streams
// (NewStream) and every item of a demand lives in one component — their
// Luby draws are shard-independent. RunParallel therefore runs the full
// epoch/stage/step schedule per component on a worker pool and reassembles
// the global serial execution exactly:
//
//   - a serial step at schedule position (epoch, stage, iter) raises the
//     union over components of the items each component raises at that same
//     position, so merging shard stacks by position reproduces the serial
//     stack bit for bit;
//   - a serial Luby election runs until every active component is decided,
//     with decided vertices drawing nothing, so the serial iteration count
//     at a position is the max over the shards active there;
//   - the merged stack feeds the same greedy second phase, and the dual
//     needs no merge at all: every component raises into the solve's one
//     global dense dual, at demand slots and edge indices no other
//     component touches, so λ and the bound are the serial ones.
//
// A component is only a list of item ids over the Prepared's layout, and
// the serial engine is the one-component case of the same first phase
// (runSerial). The result is bit-identical to Run for every worker count.
// Because each shard's execution is self-contained, it is also replayable:
// with the warm-start cache enabled (warm.go), shards untouched by churn
// reuse their previous outcome instead of re-running the schedule.

// ConflictComponents returns the connected components of a conflict
// adjacency (as produced by BuildConflicts): each component is an ascending
// slice of item ids, and components are ordered by smallest member. The
// engine itself decomposes over the incidence instead (ItemComponents,
// incidenceComponents), with identical output.
func ConflictComponents(adj [][]int) [][]int {
	comp := make([]int, len(adj))
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	var stack []int
	for v := range adj {
		if comp[v] >= 0 {
			continue
		}
		id := len(out)
		members := []int{v}
		comp[v] = id
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[x] {
				if comp[w] < 0 {
					comp[w] = id
					members = append(members, w)
					stack = append(stack, w)
				}
			}
		}
		slices.Sort(members)
		out = append(out, members)
	}
	return out
}

// shardOut is one conflict component's completed first-phase execution:
// exactly what mergeShards consumes and nothing transient — the raise stack
// (global item ids) with schedule stamps, the trace (when recorded), λ over
// the component's items, and the per-shard counters. The warm-start cache
// retains these across solves and replays them verbatim for untouched
// components, so a shardOut must never alias pooled scratch.
type shardOut struct {
	stack         []step
	trace         *Trace
	lambda        float64 // min(1, min LHS/p) over this shard's items
	raised        int
	maxStageSteps int

	// With the warm cache on, the component's final dual: α at the demand
	// slots and β at the edge indices its items reference, each listed
	// once. Replay writes them into a later solve's fresh global dual; the
	// addresses stay valid for the Prepared's lifetime because interning is
	// append-only — Apply never renumbers existing slots — and the
	// component is unchanged for as long as its preShard is reused.
	slots []int32
	alpha []float64
	edges []int32
	beta  []float64
}

// RunParallel executes the same algorithm as Run, sharded over the
// connected components of the conflict graph on `workers` goroutines. The
// Result is bit-identical to Run(items, cfg) at every worker count; with
// workers ≤ 1 the serial engine runs directly.
func RunParallel(items []Item, cfg Config, workers int) (*Result, error) {
	return Prepare(items).RunParallel(cfg, workers)
}

// RunParallel executes the sharded pipeline over the prepared state: the
// conflict components run their schedules on up to `workers` shard
// goroutines (whole schedules, zero per-step synchronization) and merge
// back into the serial execution. Inside one component the schedule runs
// serially. workers < 1 resolves to runtime.GOMAXPROCS(0), matching
// Options.Parallelism at the root. With the warm-start cache enabled it
// also shards at workers ≤ 1 (replay needs per-component outcomes), except
// on instances known to be one single component, where sharding can never
// pay for itself.
func (p *Prepared) RunParallel(cfg Config, workers int) (*Result, error) {
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseSolve)
		rec.Count(CounterItems, int64(len(p.items)))
	}
	res, err := p.runParallel(cfg, workers)
	if rec != nil && err == nil {
		rec.EndSpan(PhaseSolve, tok)
	}
	return res, err
}

func (p *Prepared) runParallel(cfg Config, workers int) (*Result, error) {
	plan, err := PlanFor(p.items, &cfg) // resolves ξ and defaults globally
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	warm := p.warm.on()
	if workers <= 1 && (!warm || p.knownSingleComponent()) {
		p.warm.noteCold()
		return p.runSerial(cfg, plan)
	}
	p.ensureShards()
	if len(p.comps) <= 1 {
		// One giant component: sharding cannot help, so it runs serially
		// at every width.
		p.warm.noteCold()
		return p.runSerial(cfg, plan)
	}
	d := dual.NewWithIndex(p.lay.ix)
	outs, err := p.runShards(cfg, plan, workers, warm, d)
	if err != nil {
		return nil, err
	}
	return p.mergeShards(cfg, plan, outs, d), nil
}

// runShard executes one component's first phase over (pooled) scratch,
// raising into the solve's global dual d, and captures its outcome. The
// component writes only the slots of d its own items reference, so shards
// may run concurrently over one d. The outcome depends on the component
// alone, never on which worker ran it, which is what keeps warm-start
// replays valid at any worker count.
func (p *Prepared) runShard(ids []int, d *dual.Assignment, cfg Config, plan *Plan, scr *solveScratch) (*shardOut, error) {
	st := p.newState(ids, d, cfg, plan, scr)
	if err := st.firstPhase(); err != nil {
		return nil, err
	}
	return &shardOut{
		stack:         st.stack,
		trace:         st.trace,
		lambda:        st.core.lambdaOnly(p.lay.views, ids),
		raised:        st.raised,
		maxStageSteps: st.maxStageSteps,
	}, nil
}

// keepDual records the component's final values in d for warm replay,
// listing each demand slot and edge index its items reference once.
func (out *shardOut) keepDual(d *dual.Assignment, lay *layout, ids []int, scr *solveScratch) {
	nd := scr.growGroups(lay)
	mark := scr.nextStamp()
	for _, id := range ids {
		v := &lay.views[id]
		if scr.gStamp[v.Slot] != mark {
			scr.gStamp[v.Slot] = mark
			out.slots = append(out.slots, v.Slot)
		}
		for _, e := range v.Edges {
			if scr.gStamp[nd+e] != mark {
				scr.gStamp[nd+e] = mark
				out.edges = append(out.edges, e)
			}
		}
	}
	out.alpha = make([]float64, len(out.slots))
	for i, s := range out.slots {
		out.alpha[i] = d.Alpha(s)
	}
	out.beta = make([]float64, len(out.edges))
	for i, e := range out.edges {
		out.beta[i] = d.Beta(e)
	}
}

// runShards produces every shard's first-phase outcome over the global
// dual d: cached outcomes are replayed (their kept values written into d)
// for shards whose preShard survived since the last solve under the same
// configuration, the rest run on a worker pool with per-worker pooled
// scratch. When warm, the full outcome set is recorded for the next round.
func (p *Prepared) runShards(cfg Config, plan *Plan, workers int, warm bool, d *dual.Assignment) ([]*shardOut, error) {
	var key warmKey
	var cached map[*preShard]*shardOut
	if warm {
		key = warmKeyFor(&cfg, plan)
		cached = p.warm.lookup(key)
	}
	outs := make([]*shardOut, len(p.shards))
	todo := make([]int, 0, len(p.shards))
	for s, pre := range p.shards {
		if out := cached[pre]; out != nil {
			d.Restore(out.slots, out.alpha, out.edges, out.beta)
			outs[s] = out
			continue
		}
		todo = append(todo, s)
	}
	rec := p.rec
	if rec != nil {
		rec.Count(CounterComponents, int64(len(p.shards)))
		rec.Count(CounterComponentsReplayed, int64(len(p.shards)-len(todo)))
		rec.Count(CounterComponentsResolved, int64(len(todo)))
	}

	if len(todo) > 0 {
		errs := make([]error, len(todo))
		run := func(i int, scr *solveScratch) {
			var stok int64
			if rec != nil {
				stok = rec.StartSpan(PhaseShardSolve)
			}
			comp := p.shards[todo[i]].comp
			out, err := p.runShard(comp, d, cfg, plan, scr)
			if err != nil {
				errs[i] = err
				return
			}
			if warm {
				out.keepDual(d, p.lay, comp, scr)
			}
			outs[todo[i]] = out
			if rec != nil {
				rec.EndSpan(PhaseShardSolve, stok)
			}
		}
		// One shard worker per runnable component, up to workers. The
		// per-shard outcome is bitwise fixed, so the worker count is a pure
		// performance knob.
		compWorkers := min(workers, len(todo))
		if rec != nil {
			rec.Count(CounterShardWorkers, int64(compWorkers))
		}
		if compWorkers <= 1 {
			scr := scratchPool.Get().(*solveScratch)
			for i := range todo {
				run(i, scr)
			}
			scratchPool.Put(scr)
		} else {
			work := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < compWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scr := scratchPool.Get().(*solveScratch)
					defer scratchPool.Put(scr)
					for i := range work {
						run(i, scr)
					}
				}()
			}
			for i := range todo {
				work <- i
			}
			close(work)
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if warm {
		p.warm.record(key, p.shards, outs, len(p.shards)-len(todo))
	}
	return outs, nil
}

// stamped is one shard step tagged with its schedule position.
type stamped struct {
	epoch, stage, iter int
	shard              int
	pos                int // position in the shard's stack (= step - 1)
	items              []int
}

// mergeScratch pools mergeShards' transient state: the stamped step
// collection, the per-group structures, and one shared backing array for
// the merged step id lists. Nothing in it survives the merge — steps are
// consumed by the greedy second phase and the per-group records by the
// trace merge, both inside mergeShards — so steady-state re-merges (the
// warm replay path runs one every solve) allocate next to nothing.
type mergeScratch struct {
	all     []stamped
	steps   [][]int
	perStep [][]stamped
	ids     []int
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// mergeShards reassembles the serial execution from per-shard first phases
// whose raises all landed in the global dual d.
//
//schedvet:hot
func (p *Prepared) mergeShards(cfg Config, plan *Plan, outs []*shardOut, d *dual.Assignment) *Result {
	res := p.newResult(plan)
	rec := p.rec
	var mtok int64
	if rec != nil {
		mtok = rec.StartSpan(PhaseMerge)
	}

	scr := mergePool.Get().(*mergeScratch)
	//schedvet:ok hotpath one pool-restore defer per merge, not per item; keeps the scratch returned on every path
	defer func() {
		scr.all = scr.all[:0]
		scr.steps = scr.steps[:0]
		scr.perStep = scr.perStep[:0]
		scr.ids = scr.ids[:0]
		mergePool.Put(scr)
	}()

	// Collect every shard step with its schedule stamp. λ is a min —
	// order-independent and arithmetic-free — so the min of the cached
	// per-shard minima is bitwise the serial global λ, and warm replays
	// skip the full constraint scan.
	all := scr.all[:0]
	lambda := 1.0
	for s, out := range outs {
		res.Raised += out.raised
		res.MaxStageSteps = max(res.MaxStageSteps, out.maxStageSteps)
		if out.lambda < lambda {
			lambda = out.lambda
		}
		for pos := range out.stack {
			st := &out.stack[pos]
			all = append(all, stamped{st.epoch, st.stage, st.iter, s, pos, st.items})
		}
	}
	scr.all = all
	slices.SortFunc(all, func(a, b stamped) int {
		if a.epoch != b.epoch {
			return a.epoch - b.epoch
		}
		if a.stage != b.stage {
			return a.stage - b.stage
		}
		if a.iter != b.iter {
			return a.iter - b.iter
		}
		return a.shard - b.shard
	})

	// Group equal stamps into global steps: the serial step at a stamp
	// raises the union of the shard steps there (ids ascending) and spends
	// max-over-shards Luby iterations electing it. The merged id lists all
	// live in one pooled backing array (a group's view stays valid when a
	// later append reallocates it — reuse only converges faster).
	steps := scr.steps[:0]
	perStep := scr.perStep[:0] // contributing shard records, for the trace
	idbuf := scr.ids[:0]
	for i := 0; i < len(all); {
		j := i
		start := len(idbuf)
		iters := 0
		for ; j < len(all) && all[j].epoch == all[i].epoch && all[j].stage == all[i].stage && all[j].iter == all[i].iter; j++ {
			idbuf = append(idbuf, all[j].items...)
			iters = max(iters, outs[all[j].shard].stack[all[j].pos].misIters)
		}
		ids := idbuf[start:]
		slices.Sort(ids)
		steps = append(steps, ids)
		perStep = append(perStep, all[i:j])
		res.MISIters += iters
		i = j
	}
	scr.steps, scr.perStep, scr.ids = steps, perStep, idbuf
	if cfg.RecordTrace {
		res.Trace = mergeTraces(outs, perStep)
	}
	if rec != nil {
		rec.EndSpan(PhaseMerge, mtok)
	}
	p.finish(res, cfg, steps, d, lambda)
	return res
}

// mergeTraces rebuilds the serial raise trace: shard events carry global
// item ids but shard-local step indices; the merged trace renumbers them to
// global step indices and interleaves same-step raises in ascending item
// order.
func mergeTraces(outs []*shardOut, perStep [][]stamped) *Trace {
	// Group each shard's events by local step index (events are appended in
	// step order, so the grouping is a single scan).
	events := make([]map[int][]RaiseEvent, len(outs))
	for s, out := range outs {
		events[s] = make(map[int][]RaiseEvent)
		if out.trace == nil {
			continue
		}
		for _, ev := range out.trace.Events {
			events[s][ev.Step] = append(events[s][ev.Step], ev)
		}
	}
	tr := &Trace{}
	for g, group := range perStep {
		var evs []RaiseEvent
		for _, rec := range group {
			for _, ev := range events[rec.shard][rec.pos+1] {
				ev.Step = g + 1
				evs = append(evs, ev)
			}
		}
		slices.SortFunc(evs, func(a, b RaiseEvent) int { return a.Item - b.Item })
		tr.Events = append(tr.Events, evs...)
	}
	return tr
}
