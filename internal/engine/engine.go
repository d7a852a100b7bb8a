// Package engine implements the paper's two-phase primal–dual framework
// (§3.2) and the epoch/stage/step schedule of the distributed algorithm
// (Figure 7), for both the unit-height raise rule (§5) and the
// narrow-instance rule (§6.1).
//
// The engine is written over abstract Items (demand instance id, demand id,
// owning processor, resource, edge set, critical set π, group index, profit,
// height), so tree networks, line networks, and windows all reduce to the
// same code: the decomposition packages produce Items, the engine schedules
// them. It runs in-process but follows the distributed schedule exactly —
// package dist executes the same schedule over a message-passing simulator
// and produces bit-identical results for identical seeds.
package engine

import (
	"fmt"
	"math"
	"sync"

	"treesched/internal/dual"
	"treesched/internal/model"
)

// Mode selects the raise rule.
type Mode int

const (
	// Unit is the unit-height rule of §3.2/§5: δ = s/(|π|+1), every raised
	// variable gains δ. Also used for wide instances (§6).
	Unit Mode = iota
	// Narrow is the §6.1 rule for heights ≤ 1/2: δ = s/(1+2h|π|²),
	// β-variables gain 2|π|δ.
	Narrow
)

func (m Mode) String() string {
	switch m {
	case Unit:
		return "unit"
	case Narrow:
		return "narrow"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MISKind selects the maximal-independent-set subroutine.
type MISKind int

const (
	// LubyMIS is the randomized O(log N)-round algorithm the paper cites.
	LubyMIS MISKind = iota
	// GreedyMIS is the deterministic lexicographically-first MIS; it is not
	// a polylog-round distributed algorithm and exists for ablations.
	GreedyMIS
)

// Item is one demand instance as seen by the framework.
type Item struct {
	ID       int // dense index into the item slice
	Demand   int // mutual-exclusion group: at most one instance per demand
	Owner    int // owning processor (= demand id in the paper's model)
	Resource int // tree-network / line resource id
	Group    int // layered-decomposition group, 1-based; group 1 raises first
	Profit   float64
	Height   float64
	Edges    []model.EdgeKey // full path
	Critical []model.EdgeKey // π(d) ⊆ Edges
}

// Config controls a run. Zero values select paper defaults.
type Config struct {
	Mode    Mode
	Epsilon float64 // ε > 0; slackness target λ = 1-ε
	// Xi overrides the stage decay ξ. 0 selects the paper's value:
	// 2∆′/(2∆′+1) with ∆′ = ∆+1 for Unit mode (14/15 for trees with ∆ = 6,
	// 8/9 for lines with ∆ = 3), and C/(C+hmin) with C = 1+∆² for Narrow.
	Xi float64
	// HMin is the minimum height (narrow mode); 0 means derive from items.
	HMin float64
	Seed int64
	MIS  MISKind
	// SingleStage reproduces the Panconesi–Sozio-style schedule for
	// ablation A2: one stage per epoch with a fixed satisfaction threshold
	// of 1/(5+ε) instead of the (1-ξ^j) ladder, giving λ = 1/(5+ε).
	SingleStage bool
	// RecordTrace captures the raise order for interference-property
	// verification. Costs memory; intended for tests and experiments.
	RecordTrace bool
}

// RaiseEvent records one raise for trace verification.
type RaiseEvent struct {
	Step  int // global step counter at which the raise happened
	Item  int
	Delta float64
}

// Trace is the phase-1 raise history.
type Trace struct {
	Events []RaiseEvent
}

// Result reports the outcome of a run.
type Result struct {
	Selected []int   // item IDs chosen by the second phase, ascending
	Profit   float64 // Σ profit of selected items
	Dual     *dual.Assignment
	Lambda   float64 // measured slackness min LHS/p over all items
	Bound    float64 // weak-duality upper bound on Opt: Value/λ

	Delta         int // max |π(d)| over raised items
	Epochs        int // number of epochs executed (= number of groups)
	Stages        int // stages per epoch
	Steps         int // total steps (framework iterations) with non-empty U
	MaxStageSteps int // most steps taken by any single (epoch, stage) — Lemma 5.1's quantity
	Raised        int // items raised in phase 1
	MISIters      int // total Luby iterations across all steps
	CommRounds    int // estimated communication rounds: 2·MISIters + Steps (phase 1) + Steps (phase 2)

	Trace *Trace // nil unless Config.RecordTrace
}

// state is the mutable first-phase state of one component (the whole item
// set when there is one). The dual raises, coefficient handling and
// threshold checks live in the shared Core so the in-process run and the
// dist protocol cannot drift; all dual addressing goes through the
// Prepared's global dense views, and the Core's assignment is the solve's
// one global dual, which concurrent components write at disjoint slots.
type state struct {
	items []Item // the whole prepared set; ids selects the component
	ids   []int  // the component's item ids, ascending
	lay   *layout
	cfg   Config
	plan  *Plan
	core  *Core
	scr   *solveScratch
	stack []step
	trace *Trace
	steps int

	raised        int // items raised
	maxStageSteps int // most steps taken by one (epoch, stage)
}

// solveScratch bundles a state's reusable per-run buffers, split out so the
// serial path and the shard workers can pool them across runs instead of
// reallocating per solve. Nothing in a scratch outlives the run that used
// it: everything a Result (or the warm cache) retains — duals, stacks,
// traces — is allocated elsewhere, so returning a scratch to the pool while
// the Result lives is safe.
type solveScratch struct {
	// streams holds one splitmix64 priority stream per owner slot of the
	// global layout; newState re-seeds the component's own slots exactly as
	// the dist nodes seed theirs (NewStream).
	streams []Stream
	// uBuf is per-step scratch for the unsatisfied set.
	uBuf []int
	// all holds the ids 0..n−1 runSerial solves as one component.
	all []int
	// Election scratch (conflicts.go): per-position priorities and live /
	// membership flags over the current unsatisfied set, and per-group
	// stamps and minima over the layout's groups (demand slots first, then
	// edge indices). A group entry counts only while its stamp equals the
	// current pass's stamp, so passes never reset the group arrays.
	prio   []float64
	live   []bool
	in     []bool
	gStamp []uint32
	gMin   []int32
	stamp  uint32
	// parent and label are incidenceComponents' union-find forest and
	// component numbering.
	parent []int32
	label  []int32
}

// growGroups sizes the per-group scratch to the layout's group universe and
// returns the index of the first edge group (the demand-slot count). New
// entries carry stamp 0, which nextStamp never hands out.
func (scr *solveScratch) growGroups(lay *layout) int32 {
	nd := lay.ix.NumDemands()
	if n := nd + lay.ix.NumEdges(); len(scr.gStamp) < n {
		scr.gStamp = append(scr.gStamp, make([]uint32, n-len(scr.gStamp))...)
		scr.gMin = append(scr.gMin, make([]int32, n-len(scr.gMin))...)
	}
	return int32(nd)
}

// nextStamp returns a stamp no group entry carries yet. On wrap-around it
// clears every stamp first, so a stale entry can never read as current.
func (scr *solveScratch) nextStamp() uint32 {
	scr.stamp++
	if scr.stamp == 0 {
		clear(scr.gStamp)
		scr.stamp = 1
	}
	return scr.stamp
}

// scratchPool recycles solve scratch across runs; steady-state churn/serve
// rounds allocate no per-step buffers at all.
var scratchPool = sync.Pool{New: func() any { return &solveScratch{} }}

// step is one pushed independent set with its schedule stamp.
type step struct {
	epoch, stage, iter int
	items              []int // raised item ids, ascending
	misIters           int   // Luby iterations spent electing this step's set
}

// Plan is the globally-known schedule of the distributed algorithm: every
// processor derives it locally from quantities the paper assumes are common
// knowledge (ε, ∆, hmin, pmax/pmin, and the decomposition depths). The
// in-process engine and the simnet protocol execute the same Plan, which is
// what makes their outputs bit-identical.
type Plan struct {
	Xi         float64   // stage decay ξ
	Stages     int       // b = number of stages per epoch
	Thresholds []float64 // stage j targets (1-ξ^j)-satisfaction; len = Stages
	StepCap    int       // fixed steps per stage (Lemma 5.1 bound + slack)
	MaxGroup   int       // ℓmax = number of epochs
	Delta      int       // max |π(d)|
	PMin, PMax float64
}

// PlanFor validates the items and configuration and computes the schedule.
// cfg's zero-valued fields are resolved to paper defaults in place.
func PlanFor(items []Item, cfg *Config) (*Plan, error) {
	if err := validate(items, cfg); err != nil {
		return nil, err
	}
	p := &Plan{Xi: cfg.Xi, Delta: MaxCritical(items)}
	for i := range items {
		if items[i].Group > p.MaxGroup {
			p.MaxGroup = items[i].Group
		}
	}
	p.PMin, p.PMax = profitRange(items)
	p.StepCap = stepCap(p.PMin, p.PMax)
	if cfg.SingleStage {
		p.Stages = 1
		p.Thresholds = []float64{1 / (5 + cfg.Epsilon)}
		return p, nil
	}
	b := 1
	for x := p.Xi; x > cfg.Epsilon; x *= p.Xi {
		b++
	}
	p.Stages = b
	p.Thresholds = make([]float64, b)
	x := 1.0
	for j := 0; j < b; j++ {
		x *= p.Xi
		p.Thresholds[j] = 1 - x
	}
	return p, nil
}

// Run executes both phases and returns the result.
func Run(items []Item, cfg Config) (*Result, error) {
	return Prepare(items).Run(cfg)
}

// newState assembles the first-phase state of the component ids over the
// prepared layout, raising into d. The layout is read-only and the
// components of one solve write disjoint slots of d, so concurrent states
// (shard workers, concurrent solves) may share both. Only the component's
// owner slots are re-seeded — once per member item, before any draw, which
// is idempotent — so a recycled scratch starts every run from the same
// stream positions a fresh one would, at O(|ids|) cost.
func (p *Prepared) newState(ids []int, d *dual.Assignment, cfg Config, plan *Plan, scr *solveScratch) *state {
	lay := p.lay
	st := &state{
		items: p.items,
		ids:   ids,
		lay:   lay,
		cfg:   cfg,
		plan:  plan,
		core:  &Core{Mode: cfg.Mode, Dual: d},
		scr:   scr,
	}
	scr.streams = scratch(&scr.streams, len(lay.ownerID), false)
	for _, id := range ids {
		o := lay.ownerSlot[id]
		scr.streams[o] = NewStream(cfg.Seed, lay.ownerID[o])
	}
	if cfg.RecordTrace {
		st.trace = &Trace{}
	}
	return st
}

// runSerial solves the whole item set as one component: the same first
// phase every shard runs, over ids 0..n−1, then the shared tail. It takes
// no component decomposition.
func (p *Prepared) runSerial(cfg Config, plan *Plan) (*Result, error) {
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseSerialSolve)
	}
	d := dual.NewWithIndex(p.lay.ix)
	scr := scratchPool.Get().(*solveScratch)
	out, err := p.runShard(allIDs(&scr.all, len(p.items)), d, cfg, plan, scr)
	scratchPool.Put(scr)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.EndSpan(PhaseSerialSolve, tok)
	}
	res := p.newResult(plan)
	res.Raised, res.MaxStageSteps, res.Trace = out.raised, out.maxStageSteps, out.trace
	steps := make([][]int, len(out.stack))
	for i := range out.stack {
		steps[i] = out.stack[i].items
		res.MISIters += out.stack[i].misIters
	}
	p.finish(res, cfg, steps, d, out.lambda)
	return res, nil
}

// allIDs reslices *buf to the ids 0..n−1 and returns it.
func allIDs(buf *[]int, n int) []int {
	ids := scratch(buf, n, false)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// newResult returns a Result carrying the plan-level fields of a solve.
func (p *Prepared) newResult(plan *Plan) *Result {
	return &Result{Delta: MaxCritical(p.items), Epochs: plan.MaxGroup, Stages: plan.Stages}
}

// finish is the tail every solve shares once its raise stack is known:
// steps lists the raised ids of each global step in execution order, d is
// the final global dual and lambda the min over components of their
// per-component λ. It runs the greedy second phase and scores the dual.
func (p *Prepared) finish(res *Result, cfg Config, steps [][]int, d *dual.Assignment, lambda float64) {
	res.Steps = len(steps)
	res.CommRounds = 2*res.MISIters + 2*res.Steps
	rec := p.rec
	var tok int64
	if rec != nil {
		tok = rec.StartSpan(PhaseGreedy)
	}
	res.Selected, res.Profit = selectGreedyViews(p.lay.views, cfg.Mode, steps,
		p.lay.ix.NumDemands(), p.lay.ix.NumEdges())
	if rec != nil {
		rec.EndSpan(PhaseGreedy, tok)
	}
	res.Dual = d
	if len(p.items) > 0 {
		res.Lambda, res.Bound = lambda, boundAt(d, lambda)
	}
}

func validate(items []Item, cfg *Config) error {
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return fmt.Errorf("engine: epsilon must be in (0,1), got %v", cfg.Epsilon)
	}
	for i := range items {
		it := &items[i]
		if it.ID != i {
			return fmt.Errorf("engine: item %d has ID %d", i, it.ID)
		}
		if it.Group < 1 {
			return fmt.Errorf("engine: item %d has group %d < 1", i, it.Group)
		}
		if len(it.Edges) == 0 || len(it.Critical) == 0 {
			return fmt.Errorf("engine: item %d has empty path or critical set", i)
		}
		if !(it.Profit > 0) {
			return fmt.Errorf("engine: item %d has profit %v", i, it.Profit)
		}
		if !(it.Height > 0) || it.Height > 1 {
			return fmt.Errorf("engine: item %d has height %v", i, it.Height)
		}
		if cfg.Mode == Narrow && it.Height > 0.5+dual.Tolerance {
			return fmt.Errorf("engine: item %d has height %v > 1/2 in narrow mode", i, it.Height)
		}
	}
	if cfg.Xi == 0 {
		cfg.Xi = DefaultXi(cfg.Mode, MaxCritical(items), hmin(items, cfg.HMin))
	}
	if cfg.Xi <= 0 || cfg.Xi >= 1 {
		return fmt.Errorf("engine: xi must be in (0,1), got %v", cfg.Xi)
	}
	return nil
}

func hmin(items []Item, override float64) float64 {
	if override > 0 {
		return override
	}
	h := 1.0
	for i := range items {
		if items[i].Height < h {
			h = items[i].Height
		}
	}
	return h
}

// DefaultXi returns the paper's stage-decay parameter: for the unit rule,
// ξ = 2∆′/(2∆′+1) with ∆′ = ∆+1 (§5: 14/15 for ∆ = 6; §7: 8/9 for ∆ = 3);
// for the narrow rule, ξ = C/(C+hmin) with C = 1+∆², which makes every
// kill double the victim's profit (the Claim 5.2 analogue of §6.1).
func DefaultXi(mode Mode, delta int, hm float64) float64 {
	if delta < 1 {
		delta = 1
	}
	if mode == Narrow {
		c := float64(1 + delta*delta)
		return c / (c + hm)
	}
	dp := float64(delta + 1)
	return 2 * dp / (2*dp + 1)
}

// MaxCritical returns ∆ = max |π(d)| over the items (0 if none).
func MaxCritical(items []Item) int {
	d := 0
	for i := range items {
		if len(items[i].Critical) > d {
			d = len(items[i].Critical)
		}
	}
	return d
}

// firstPhase runs the epoch/stage/step schedule of Figure 7 over the
// state's component.
func (st *state) firstPhase() error {
	groups := make(map[int][]int)
	for _, id := range st.ids {
		g := st.items[id].Group
		groups[g] = append(groups[g], id)
	}
	for k := 1; k <= st.plan.MaxGroup; k++ {
		members := groups[k]
		if len(members) == 0 {
			continue
		}
		for j := 0; j < st.plan.Stages; j++ {
			thresh := st.plan.Thresholds[j]
			for iter := 0; ; iter++ {
				if iter >= st.plan.StepCap {
					return fmt.Errorf("engine: epoch %d stage %d exceeded %d steps (pmax/pmin=%v); Lemma 5.1 cap violated",
						k, j+1, st.plan.StepCap, st.plan.PMax/st.plan.PMin)
				}
				u := st.unsatisfied(members, thresh)
				if len(u) == 0 {
					st.maxStageSteps = max(st.maxStageSteps, iter)
					break
				}
				st.steps++
				chosen, iters := st.independentSet(u)
				for _, id := range chosen {
					st.raise(id)
				}
				st.raised += len(chosen)
				st.stack = append(st.stack, step{epoch: k, stage: j + 1, iter: iter, items: chosen, misIters: iters})
			}
		}
	}
	return nil
}

//
//schedvet:hot
func (st *state) unsatisfied(members []int, thresh float64) []int {
	u := st.scr.uBuf[:0]
	views := st.lay.views
	for _, id := range members {
		if st.core.Unsatisfied(&views[id], thresh) {
			u = append(u, id)
		}
	}
	st.scr.uBuf = u
	return u
}

// independentSet computes a maximal independent set within u (item ids) and
// returns the selected ids ascending plus the number of Luby iterations.
// Both elections run over the conflict incidence (conflicts.go); Luby draws
// from the owner-slot streams newState seeded from the external owner ids,
// exactly as the dist nodes seed theirs.
func (st *state) independentSet(u []int) ([]int, int) {
	if st.cfg.MIS == GreedyMIS {
		return pick(u, electGreedy(st.lay, u, st.scr)), 1
	}
	in, iters := electLuby(st.lay, u, st.scr)
	return pick(u, in), iters
}

func pick(u []int, in []bool) []int {
	var out []int
	for i, id := range u {
		if in[i] {
			out = append(out, id)
		}
	}
	return out
}

//
//schedvet:hot
func (st *state) raise(id int) {
	delta := st.core.Raise(&st.lay.views[id])
	if st.trace != nil {
		st.trace.Events = append(st.trace.Events, RaiseEvent{Step: st.steps, Item: id, Delta: delta})
	}
}

func profitRange(items []Item) (pmin, pmax float64) {
	pmin, pmax = 1, 1
	for i := range items {
		p := items[i].Profit
		if i == 0 {
			pmin, pmax = p, p
			continue
		}
		if p < pmin {
			pmin = p
		}
		if p > pmax {
			pmax = p
		}
	}
	return pmin, pmax
}

// stepCap bounds the steps per stage: Lemma 5.1 proves at most
// 1 + log₂(pmax/pmin) steps; we allow generous slack for floating point and
// treat exceeding the cap as an internal error.
func stepCap(pmin, pmax float64) int {
	if pmin <= 0 {
		return 64
	}
	return 8 + 2*int(math.Ceil(math.Log2(pmax/pmin+1)))
}
