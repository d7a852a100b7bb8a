package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	treesched "treesched"
	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/obs"
	"treesched/internal/workload"
)

// solveWorkload is a single-client closed loop over a pool of generated
// instances: operation i solves pool[i mod len(pool)] with Options{Seed: i}.
type solveWorkload struct {
	shape    workload.TreeConfig
	pool     int
	simulate bool // dist-fleet: Solve with Simulate, and dist.RunOpts when traced
}

// coverageTol is how far the children of a traced span may fall short of
// it. The op's children run back to back with only timer and counter reads
// between them; dist.RunOpts plans its schedule outside its three phases.
const coverageTol = 0.05

// coldContended: Everything is one conflict component, so conflict
// construction (engine.PrepareWorkers, ≈68%) and decomposition (≈24%) do
// most of the work. The delta, warm, serve and dist layers do none. This is
// the shape the conflict-construction item of the roadmap targets.
var coldContended = solveWorkload{shape: coldShape, pool: coldPool}

// distFleet: The message-passing runtime (dist setup plus simnet rounds)
// does most of the work, with small components for the engine half. Serve
// and delta do none. This is the shape of the million-demand runtime.
var distFleet = solveWorkload{shape: distShape, pool: distPool, simulate: true}

func (w solveWorkload) run(rc runConfig) (_ *outcome, err error) {
	var pool []genInstance
	setup, err := medianSetup(func() error {
		var err error
		pool, err = genPool(w.shape, w.pool, rc.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	log := &resultLog{}
	defer release(&err, &log.ledger)
	out := &outcome{metrics: metricSet{}}

	untraced := func(i int) (time.Duration, error) {
		g := pool[i%len(pool)]
		start := time.Now()
		res, err := treesched.Solve(g.inst, treesched.Options{Seed: int64(i), Simulate: w.simulate})
		lat := time.Since(start)
		if err != nil {
			return 0, err
		}
		log.add(i, res)
		return lat, nil
	}

	if !rc.trace {
		latLog := &ledger{}
		defer release(&err, latLog)
		ph := startPhase()
		ok, failed, elapsed := closedLoop(rc.budget, minTailSamples, latLog, untraced)
		mem := ph.end(ok)
		runtime.KeepAlive(pool)
		lat := latencies(latLog)
		out.attempted, out.failed = len(lat)+failed, failed
		ratios, bad := w.verify(pool, log, nil)
		out.failed += bad
		if err := out.endToEnd(setup, lat, elapsed, ratios, mem); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Traced run: untraced and traced operations alternate, so both see the
	// same machine state and trace_overhead is a paired comparison.
	rec := obs.NewRecorder()
	tr := newLayerTotals()
	var plain, traced []float64
	_, failed, _ := closedLoop(rc.budget, 2*minTracedOps, nil, func(i int) (time.Duration, error) {
		if i%2 == 0 {
			lat, err := untraced(i)
			if err == nil {
				plain = append(plain, ms(lat))
			}
			return lat, err
		}
		lat, err := w.tracedOp(pool[i%len(pool)], i, rec, tr, log)
		if err == nil {
			traced = append(traced, ms(lat))
		}
		return lat, err
	})
	out.attempted, out.failed = len(plain)+len(traced)+failed, failed
	verifyTotal := time.Duration(0)
	_, bad := w.verify(pool, log, &verifyTotal)
	out.failed += bad
	if err := checkCoverage(tr.spans, "op", coverageTol); err != nil {
		return nil, err
	}
	if w.simulate {
		if err := checkCoverage(tr.spans, "dist", coverageTol); err != nil {
			return nil, err
		}
	}
	m := out.metrics
	tr.report(m, len(traced))
	m["verify.verify_ms"] = ms(verifyTotal) / float64(len(plain)+len(traced))
	m["trace_overhead"] = median(traced)/median(plain) - 1
	m.zero("engine.update", "engine.apply", "engine.warm", "engine.reprepares", "serve.")
	if !w.simulate {
		m.zero("dist.", "simnet.", "messages_per_op")
	}
	return out, nil
}

// allocBytes reads the runtime's cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedOp runs the pipeline Solve runs — engine.BuildTreeItems,
// engine.PrepareWorkers, Prepared.RunParallel, and on dist-fleet
// dist.RunOpts — timing each call, with the recorder attached to the
// engine and dist layers. It returns the op's wall time.
func (w solveWorkload) tracedOp(g genInstance, i int, rec *obs.Recorder, tr *layerTotals, log *resultLog) (time.Duration, error) {
	workers := runtime.GOMAXPROCS(0)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: int64(i)}

	t0 := time.Now()
	items, err := engine.BuildTreeItems(g.model, engine.IdealDecomp)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	a0 := allocBytes()
	t2 := time.Now()
	prep := engine.PrepareWorkers(items, workers)
	t3 := time.Now()
	a1 := allocBytes()
	prep.SetRecorder(rec)
	t4 := time.Now()
	eres, err := prep.RunParallel(cfg, workers)
	if err != nil {
		return 0, err
	}
	t5 := time.Now()
	selected := eres.Selected
	var dres *dist.Result
	if w.simulate {
		dres, err = dist.RunOpts(items, cfg, dist.Options{Recorder: rec})
		if err != nil {
			return 0, err
		}
		selected = dres.Selected
	}
	t6 := time.Now()
	lat := t6.Sub(t0)

	tr.spans["op"] += lat
	tr.spans["decomp"] += t1.Sub(t0)
	tr.spans["prepare"] += t3.Sub(t2)
	tr.spans["solve"] += t5.Sub(t4)
	if w.simulate {
		tr.spans["dist"] += t6.Sub(t5)
	}
	recorderSpans(rec, tr.spans, true)
	tr.items += len(items)
	tr.prepareAlloc += a1 - a0
	adj := prep.Conflicts()
	for _, row := range adj {
		tr.conflictEntries += len(row)
	}
	tr.components += len(engine.ConflictComponents(adj))
	tr.steps += eres.Steps
	tr.misIters += eres.MISIters
	tr.raised += eres.Raised
	if dres != nil {
		if !slices.Equal(dres.Selected, eres.Selected) || dres.Profit != eres.Profit {
			return 0, fmt.Errorf("dist.RunOpts selected %d items for profit %v, the engine %d for %v",
				len(dres.Selected), dres.Profit, len(eres.Selected), eres.Profit)
		}
		tr.addDist(dres)
	}

	res := &treesched.Result{Profit: eres.Profit, DualBound: eres.Bound}
	for _, id := range selected {
		res.Assignments = append(res.Assignments, treesched.Assignment{Demand: items[id].Demand, Network: items[id].Resource})
	}
	log.add(i, res)
	return lat, nil
}

// verify checks every logged result against the instance it solved and
// returns the per-operation DualBound/Profit ratios and the failure count.
// With verifyTotal set, it also accumulates the time spent in Verify.
func (w solveWorkload) verify(pool []genInstance, log *resultLog, verifyTotal *time.Duration) ([]float64, int) {
	var ratios []float64
	failed := 0
	log.each(func(i int, res *treesched.Result) {
		g := pool[i%len(pool)]
		start := time.Now()
		err := treesched.Verify(g.inst, res)
		if verifyTotal != nil {
			*verifyTotal += time.Since(start)
		}
		if err == nil {
			err = checkCertificate(res, func(d int) float64 { return g.model.Demands[d].Profit })
		}
		if err != nil {
			failed++
			warnf("operation %d: %v", i, err)
			return
		}
		ratios = append(ratios, res.DualBound/res.Profit)
	})
	return ratios, failed
}
