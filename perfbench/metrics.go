package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a caller of the system sees. Every workload reports
// every one of them from the untraced run (--trace 0).
var endToEnd = []metricDef{
	// Instance generation, plus session creation and the initial published
	// solve on serve-fleet; the median of several set-ups in one run.
	{"setup_s", "s"},
	// Median and 90th-percentile operation latency.
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	// Operations completed per second of the measured phase.
	{"ops_per_s", "1/s"},
	// Operations that returned, verified and certified, over operations
	// attempted. A failure is an error return, a Verify rejection, a profit
	// that disagrees with the schedule, a weak-duality violation, or an
	// actor Failed count. Reported as a success share so it is never zero.
	{"success_rate", "fraction"},
	// Mean of DualBound/Profit over operations: the paper's quality
	// certificate, lower is better.
	{"certified_ratio", "ratio"},
	// runtime.MemStats.TotalAlloc growth over the measured phase per
	// operation, excluding the benchmark's own verification log.
	{"alloc_mb_per_op", "MB"},
	// HeapAlloc after runtime.GC() at the end of the measured phase with the
	// workload's state referenced, excluding the verification log.
	{"live_heap_mb", "MB"},
}

// perLayer lists the traced run's metrics (--trace 1). Each workload
// reports all of them; a layer its operation does not reach reads 0. Times
// are means per traced operation unless they say per round. Beside each
// group: the end-to-end metric it should move, and on which workload.
var perLayer = []metricDef{
	// decomp, timed around engine.BuildTreeItems. Moves op_ms_p50 on
	// cold-contended and dist-fleet; ≈0 on serve-fleet, whose session
	// caches the layouts at set-up.
	{"decomp.build_ms", "ms"},
	{"decomp.items", "count"},

	// engine prepare, timed around engine.PrepareWorkers; conflict entries
	// from Prepared.Conflicts, components from engine.ConflictComponents.
	// Moves op_ms_p50, op_ms_p90 and alloc_mb_per_op on cold-contended; on
	// serve-fleet only setup_s (and compaction, counted under
	// engine.update_ms).
	{"engine.prepare_ms", "ms"},
	{"engine.prepare_alloc_mb", "MB"},
	{"engine.conflict_entries", "count"},
	{"engine.components", "count"},

	// engine solve with mis and dual, timed around Prepared.RunParallel;
	// the split comes from the recorder's phases, the counts from
	// engine.Result. Moves op_ms_p50 on serve-fleet (most of a round) and
	// cold-contended (≈8%). shard_solve is busy time summed over workers
	// and can exceed wall time.
	{"engine.solve_ms", "ms"},
	{"engine.solve_self_ms", "ms"},
	{"engine.components_ms", "ms"},
	{"engine.serial_solve_ms", "ms"},
	{"engine.shard_solve_busy_ms", "ms"},
	{"engine.merge_ms", "ms"},
	{"engine.greedy_ms", "ms"},
	{"engine.steps", "count"},
	{"engine.mis_iters", "count"},
	{"engine.raised", "count"},

	// engine delta and warm start behind Session, per serve round: the
	// recorder's update and apply phases, Session.Stats for the warm-hit
	// share and compaction re-prepares. Moves op_ms_p50, and op_ms_p90
	// through compaction spikes, on serve-fleet only.
	{"engine.update_ms", "ms"},
	{"engine.update_self_ms", "ms"},
	{"engine.apply_ms", "ms"},
	{"engine.warm_hit_ratio", "ratio"},
	{"engine.reprepares", "count"},

	// serve, per round, from Actor.Stats and Actor.Hists. Moves op_ms_p90
	// and ops_per_s on serve-fleet only.
	{"serve.round_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.failed", "count"},

	// dist, timed around dist.RunOpts; the split from the recorder's dist
	// phases, state sizes from dist.Result. Moves op_ms_p50 and
	// alloc_mb_per_op on dist-fleet only.
	{"dist.run_ms", "ms"},
	{"dist.run_self_ms", "ms"},
	{"dist.setup_ms", "ms"},
	{"dist.sim_ms", "ms"},
	{"dist.assemble_ms", "ms"},
	{"dist.node_bytes_per_demand", "bytes"},
	{"dist.shared_mb", "MB"},

	// simnet, from dist.Result.Stats. Moves messages_per_op and op_ms_p50
	// on dist-fleet only.
	{"simnet.busy_rounds", "count"},
	{"simnet.skipped_rounds", "count"},
	{"simnet.schedule_rounds", "count"},
	{"simnet.payload_units", "count"},
	{"simnet.max_message_size", "count"},
	// Mean messages per simulated solve. Zero off dist-fleet, so it is kept
	// here rather than among the end-to-end metrics.
	{"messages_per_op", "messages"},

	// verify, timed around treesched.Verify outside the operation. Moves no
	// end-to-end metric today; it is the baseline for an in-solve audit.
	{"verify.verify_ms", "ms"},

	// The traced operation's own time: traced op minus its child layers.
	{"op.self_ms", "ms"},
	// Traced op_ms_p50 over untraced op_ms_p50, minus 1.
	{"trace_overhead", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's values and renders exactly the metrics of a
// catalogue.
type metricSet map[string]float64

// render returns the catalogue's metrics with their units. A catalogue
// metric the run did not set is an error, as is a value the run set that the
// catalogue does not list.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !validName(d.name) {
			return nil, fmt.Errorf("invalid metric name %q", d.name)
		}
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return out, nil
}
