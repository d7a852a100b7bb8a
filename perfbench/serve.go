package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	treesched "treesched"
	"treesched/internal/obs"
	"treesched/internal/serve"
)

// serveFleet: Writes (Apply) sit beside reads (Solve) on the steady state
// schedserve serves. Warm replay, the delta path, component merge and the
// serve queue do most of the work. Decomposition is cached and conflict
// construction touches only the churned network.
//
// One operation is one serve.Actor.Submit, from the call until it returns:
// queue wait plus the coalesced Session.Update, Solve and publish, after
// which the churn is visible at the returned epoch. A run cycles through
// serveFleets fleets, one at a time, each for an equal share of the
// budget, so no one fleet's networks set the run's figures.
func runServeFleet(rc runConfig) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	arm := rc.budget / serveFleets
	var rec *obs.Recorder
	if rc.trace {
		// Each fleet runs an untraced arm, then the same fleet afresh with
		// the recorder on its solver (fixed when the solver is made), each
		// for half the fleet's share.
		arm /= 2
		rec = obs.NewRecorder()
	}
	var setups, lat, ratios, traced []float64
	var done int
	var elapsed time.Duration
	var alloc, live float64
	var verifyTotal time.Duration
	var ctr serveCounters
	tr := newLayerTotals()
	for p := int64(0); p < serveFleets; p++ {
		seed := rc.seed*serveFleets + p
		var st *serveState
		setup, err := timeSetup(func() error {
			var err error
			st, err = newServeState(seed, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(setup))
		minOps := minTracedOps
		if !rc.trace {
			minOps = (minTailSamples + serveFleets - 1) / serveFleets
		}
		a, err := st.runArm(arm, minOps, nil)
		if err != nil {
			return nil, err
		}
		out.attempted += a.done + a.failed
		out.failed += a.failed
		lat, ratios = append(lat, a.lat...), append(ratios, a.ratios...)
		done += a.done
		elapsed += a.elapsed
		alloc += a.mem.allocPerOp * float64(a.done)
		live += a.mem.live / serveFleets
		if !rc.trace {
			continue
		}

		tst, err := newServeState(seed, rec)
		if err != nil {
			return nil, err
		}
		rec.Take() // drop the set-up's prepare and initial solve
		s0, h0 := tst.actor.Stats(), tst.actor.Hists()
		b, err := tst.runArm(arm, minTracedOps, &verifyTotal)
		if err != nil {
			return nil, err
		}
		ctr.add(s0, tst.actor.Stats(), h0, tst.actor.Hists())
		recorderSpans(rec, tr.spans, false)
		out.attempted += b.done + b.failed
		out.failed += b.failed
		traced = append(traced, b.lat...)
	}
	if !rc.trace {
		mem := memUse{allocPerOp: alloc / float64(max(done, 1)), live: live}
		if err := out.endToEnd(time.Duration(median(setups)), lat, elapsed, ratios, mem); err != nil {
			return nil, err
		}
		return out, nil
	}

	rounds := float64(ctr.rounds)
	if rounds == 0 {
		return nil, fmt.Errorf("serve-fleet: traced arms ran no rounds")
	}
	tr.spans["op"] = ctr.roundTime
	if err := checkCoverage(tr.spans, "op", serveCoverageTol); err != nil {
		return nil, err
	}
	m := out.metrics
	tr.reportSolve(m, rounds)
	self := selfTimes(tr.spans)
	m["engine.prepare_ms"] = ms(tr.spans["reprepare"]) / rounds
	m["engine.update_ms"] = ms(tr.spans["update"]) / rounds
	m["engine.update_self_ms"] = ms(self["update"]) / rounds
	m["engine.apply_ms"] = ms(tr.spans["apply"]) / rounds
	m["engine.warm_hit_ratio"] = float64(ctr.replayed) / math.Max(1, float64(ctr.replayed+ctr.resolved))
	m["engine.components"] = float64(ctr.replayed+ctr.resolved) / rounds
	m["engine.reprepares"] = float64(ctr.reprepares) / rounds
	m["serve.round_ms"] = ms(ctr.roundTime) / rounds
	m["serve.solve_ms"] = ctr.solveSum / math.Max(1, float64(ctr.solveN)) * 1000
	m["serve.queue_wait_ms"] = ctr.waitSum / math.Max(1, float64(ctr.waitN)) * 1000
	m["serve.batch_size"] = float64(ctr.submissions) / rounds
	m["serve.failed"] = float64(ctr.failed)
	m["verify.verify_ms"] = ms(verifyTotal) / float64(len(traced))
	m["trace_overhead"] = median(traced)/median(lat) - 1
	// Not reached by a serve round: layouts are cached and the session
	// prepares at set-up; the session does not expose the engine's step
	// counts or conflict structure.
	m.zero("decomp.", "engine.prepare_alloc_mb", "engine.conflict_entries",
		"engine.steps", "engine.mis_iters", "engine.raised", "dist.", "simnet.", "messages_per_op")
	return out, nil
}

// serveFleets is how many fleets one serve-fleet run cycles through.
const serveFleets = 4

// armResult is one measured phase on one fleet.
type armResult struct {
	lat, ratios  []float64
	done, failed int
	elapsed      time.Duration
	mem          memUse
}

// runArm measures one phase on st, then settles and verifies it and
// releases the state's ledgers. Failures include snapshots that fail
// verification and the actor's own Failed count.
func (st *serveState) runArm(budget time.Duration, minOps int, verifyTotal *time.Duration) (armResult, error) {
	ph := startPhase()
	books, done, failed, elapsed := st.drive(budget, minOps)
	mem := ph.end(done)
	lat, epochs, demands := st.settle(books)
	ratios, bad := st.verify(epochs, demands, verifyTotal)
	var err error
	release(&err, append(books, &st.log.ledger)...)
	return armResult{
		lat: lat, ratios: ratios, done: done,
		failed:  failed + bad + int(st.actor.Stats().Failed),
		elapsed: elapsed, mem: mem,
	}, err
}

// serveCounters sums the traced arms' actor and session counters.
type serveCounters struct {
	rounds, submissions, failed    uint64
	roundTime                      time.Duration
	solveSum, waitSum              float64
	solveN, waitN                  int64
	replayed, resolved, reprepares int
}

func (c *serveCounters) add(s0, s1 serve.ActorStats, h0, h1 serve.ActorHists) {
	c.rounds += s1.Rounds - s0.Rounds
	c.submissions += s1.Submissions - s0.Submissions
	c.failed += s1.Failed - s0.Failed
	c.roundTime += s1.TotalLatency - s0.TotalLatency
	c.solveSum += h1.SolveSeconds.Sum - h0.SolveSeconds.Sum
	c.solveN += h1.SolveSeconds.Count - h0.SolveSeconds.Count
	c.waitSum += h1.QueueWait.Sum - h0.QueueWait.Sum
	c.waitN += h1.QueueWait.Count - h0.QueueWait.Count
	c.replayed += s1.Session.ComponentsReplayed - s0.Session.ComponentsReplayed
	c.resolved += s1.Session.ComponentsResolved - s0.Session.ComponentsResolved
	c.reprepares += s1.Session.Reprepares - s0.Session.Reprepares
}

// serveCoverageTol bounds the share of a serve round outside the
// session's update and solve spans: the item-set copy, result assembly and
// snapshot publication.
const serveCoverageTol = 0.15

// serveState is one serve-fleet set-up: the generated fleet, its session
// behind a standalone actor, and the log of every snapshot it publishes.
type serveState struct {
	seed  int64 // the fleet's seed; the churn scripts derive from it
	gen   genInstance
	sess  *treesched.Session
	actor *serve.Actor
	log   *resultLog
	trees [][][2]int // network edge lists, for rebuilding instances to verify
}

// demandLife is one demand and the epochs during which it was live.
type demandLife struct {
	u, v           int
	profit         float64
	net            int
	added, removed uint64 // live at epochs [added, removed)
}

func newServeState(seed int64, rec *obs.Recorder) (*serveState, error) {
	pool, err := genPool(serveShape, 1, seed)
	if err != nil {
		return nil, err
	}
	opts := treesched.Options{}
	if rec != nil {
		opts.Recorder = rec
	}
	sess, err := treesched.NewSolver(opts).Session(pool[0].inst)
	if err != nil {
		return nil, err
	}
	actor, err := serve.NewActor("perfbench", sess)
	if err != nil {
		return nil, err
	}
	st := &serveState{seed: seed, gen: pool[0], sess: sess, actor: actor, log: &resultLog{}}
	actor.SetPublishHook(func(s *serve.Snapshot) { st.log.add(int(s.Epoch), s.Result) })
	for _, t := range pool[0].model.Trees {
		var edges [][2]int
		for _, e := range t.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		st.trees = append(st.trees, edges)
	}
	return st, nil
}

// drive runs serveSubmitters closed-loop clients until the budget is spent,
// at least minOps submissions completed, and the session has since
// compacted (re-prepared its accreted layout state). Ending just past a
// compaction keeps the end-of-phase live heap from depending on where in
// the compaction cycle the clock ran out; a cycle is a few hundred
// submissions. Submitter k follows
// newChurnScript(st.seed, k) and records each completed submission in
// books[k]: latency, visible epoch, removal count, removed ids, then the
// ids its arrivals were given. It returns the books, the completed and
// failed submission counts and the phase's wall time.
func (st *serveState) drive(budget time.Duration, minOps int) ([]*ledger, int, int, time.Duration) {
	var done, failed atomic.Int64
	var once sync.Once
	reprepares := 0 // the session's count when the budget ran out
	start := time.Now()
	hardStop := start.Add(hardStopFactor * budget)
	stop := func() bool {
		now := time.Now()
		if now.After(hardStop) {
			return true
		}
		if now.Sub(start) < budget || done.Load() < int64(minOps) {
			return false
		}
		once.Do(func() { reprepares = st.sess.Stats().Reprepares })
		return st.sess.Stats().Reprepares > reprepares
	}
	books := make([]*ledger, serveSubmitters)
	var wg sync.WaitGroup
	for k := range books {
		book := &ledger{}
		books[k] = book
		owned := map[int][]int{} // network -> owned live ids, oldest first
		for id, d := range st.gen.model.Demands {
			if q := d.Access[0]; q%serveSubmitters == k {
				owned[q] = append(owned[q], id)
			}
		}
		script := newChurnScript(st.seed, k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				s := script.nextStep()
				q := owned[s.net]
				n := min(serveChurn, len(q))
				c := treesched.Churn{Remove: q[:n:n], Add: s.add}
				t0 := time.Now()
				ids, epoch, err := st.actor.Submit(c)
				lat := time.Since(t0)
				if err != nil {
					// The churn may or may not have been applied, so the
					// ownership bookkeeping is no longer known: stop.
					failed.Add(1)
					warnf("submitter %d: %v", k, err)
					return
				}
				done.Add(1)
				book.write(3+n+len(ids), func(rec []int64) {
					rec[0], rec[1], rec[2] = int64(lat), int64(epoch), int64(n)
					for i, id := range c.Remove {
						rec[3+i] = int64(id)
					}
					for i, id := range ids {
						rec[3+n+i] = int64(id)
					}
				})
				owned[s.net] = append(q[n:], ids...)
			}
		}()
	}
	wg.Wait()
	return books, int(done.Load()), int(failed.Load()), time.Since(start)
}

// settle replays the books drive kept against freshly generated churn
// scripts — the same arrivals the submitters sent — and returns the
// submission latencies in ms, the epoch each submission became visible at,
// and every demand of the phase by session id with its live epochs.
func (st *serveState) settle(books []*ledger) ([]float64, []uint64, map[int]*demandLife) {
	demands := map[int]*demandLife{}
	for id, d := range st.gen.model.Demands {
		demands[id] = &demandLife{u: d.U, v: d.V, profit: d.Profit, net: d.Access[0], removed: math.MaxUint64}
	}
	var lat []float64
	var epochs []uint64
	for k, book := range books {
		script := newChurnScript(st.seed, k)
		book.each(func(rec []int64) {
			s := script.nextStep()
			epoch := uint64(rec[1])
			lat = append(lat, ms(time.Duration(rec[0])))
			epochs = append(epochs, epoch)
			for j, id := range rec[3+rec[2]:] {
				nd := s.add[j]
				demands[int(id)] = &demandLife{u: nd.U, v: nd.V, profit: nd.Profit, net: s.net, added: epoch, removed: math.MaxUint64}
			}
		})
	}
	for _, book := range books {
		book.each(func(rec []int64) {
			for _, id := range rec[3 : 3+rec[2]] {
				if d := demands[int(id)]; d != nil {
					d.removed = uint64(rec[1])
				}
			}
		})
	}
	return lat, epochs, demands
}

// verify checks every logged snapshot (see checkSnapshot) and returns the
// DualBound/Profit ratio of each submission's epoch and the failure count.
// With verifyTotal set, every snapshot is verified whole and the time spent
// in treesched.Verify is accumulated.
func (st *serveState) verify(epochs []uint64, demands map[int]*demandLife, verifyTotal *time.Duration) ([]float64, int) {
	ratio := map[int]float64{}
	failed := 0
	verified := map[string]bool{}
	st.log.each(func(epoch int, res *treesched.Result) {
		var err error
		if verifyTotal != nil {
			err = st.verifyWhole(res, demands, verifyTotal)
		} else {
			err = st.verifyByNetwork(res, demands, verified)
		}
		if err == nil {
			err = checkSnapshot(uint64(epoch), res, demands)
		}
		if err != nil {
			failed++
			warnf("epoch %d: %v", epoch, err)
			return
		}
		ratio[epoch] = res.DualBound / res.Profit
	})
	ratios := make([]float64, 0, len(epochs))
	for _, e := range epochs {
		if r, ok := ratio[int(e)]; ok { // a failed snapshot is counted above
			ratios = append(ratios, r)
		}
	}
	return ratios, failed
}

// checkSnapshot checks what the per-network Verify calls cannot see: each
// scheduled demand exists, was live at the snapshot's epoch, sits on its
// pinned network and is scheduled once, and the certificate holds.
func checkSnapshot(epoch uint64, res *treesched.Result, demands map[int]*demandLife) error {
	seen := make(map[int]bool, len(res.Assignments))
	for _, a := range res.Assignments {
		d := demands[a.Demand]
		switch {
		case d == nil:
			return fmt.Errorf("demand %d was never created", a.Demand)
		case epoch < d.added || epoch >= d.removed:
			return fmt.Errorf("demand %d is not live at epoch %d (live over [%d,%d))", a.Demand, epoch, d.added, d.removed)
		case a.Network != d.net:
			return fmt.Errorf("demand %d scheduled on network %d, pinned to %d", a.Demand, a.Network, d.net)
		case seen[a.Demand]:
			return fmt.Errorf("demand %d scheduled twice", a.Demand)
		}
		seen[a.Demand] = true
	}
	return checkCertificate(res, func(id int) float64 { return demands[id].profit })
}

// verifyWhole runs treesched.Verify over an instance holding every network
// and the snapshot's scheduled demands, timing the Verify call.
func (st *serveState) verifyWhole(res *treesched.Result, demands map[int]*demandLife, verifyTotal *time.Duration) error {
	in := treesched.NewInstance(serveShape.Vertices)
	for _, edges := range st.trees {
		if _, err := in.AddTree(edges); err != nil {
			return err
		}
	}
	dense := &treesched.Result{Profit: res.Profit, DualBound: res.DualBound}
	for i, a := range res.Assignments {
		d := demands[a.Demand]
		if d == nil {
			return fmt.Errorf("demand %d was never created", a.Demand)
		}
		in.AddDemand(d.u, d.v, d.profit, treesched.Access(d.net))
		dense.Assignments = append(dense.Assignments, treesched.Assignment{Demand: i, Network: a.Network})
	}
	start := time.Now()
	err := treesched.Verify(in, dense)
	*verifyTotal += time.Since(start)
	return err
}

// verifyByNetwork runs treesched.Verify once per network over that
// network's share of the schedule. Capacity is per network, so the parts
// are feasible exactly when the whole is (checkSnapshot covers demands
// scheduled twice across networks). A round churns one network, so most
// parts repeat the previous epoch's; verified holds the parts already
// checked, keyed by network and sorted demand ids.
func (st *serveState) verifyByNetwork(res *treesched.Result, demands map[int]*demandLife, verified map[string]bool) error {
	parts := make(map[int][]int)
	for _, a := range res.Assignments {
		parts[a.Network] = append(parts[a.Network], a.Demand)
	}
	for q, ids := range parts {
		if q < 0 || q >= len(st.trees) {
			return fmt.Errorf("assignment to unknown network %d", q)
		}
		slices.Sort(ids)
		key := fmt.Sprint(q, ids)
		if verified[key] {
			continue
		}
		in := treesched.NewInstance(serveShape.Vertices)
		if _, err := in.AddTree(st.trees[q]); err != nil {
			return err
		}
		part := &treesched.Result{}
		for i, id := range ids {
			d := demands[id]
			if d == nil {
				return fmt.Errorf("demand %d was never created", id)
			}
			in.AddDemand(d.u, d.v, d.profit)
			part.Assignments = append(part.Assignments, treesched.Assignment{Demand: i, Network: 0})
		}
		if err := treesched.Verify(in, part); err != nil {
			return fmt.Errorf("network %d: %w", q, err)
		}
		verified[key] = true
	}
	return nil
}
