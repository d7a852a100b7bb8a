package main

import (
	"strings"
	"time"

	"treesched/internal/dist"
)

// minTracedOps is the fewest operations each arm of a traced run makes:
// the traced run reports means and a median, not a tail percentile.
const minTracedOps = 20

// layerTotals accumulates a traced run's span totals and layer counts.
type layerTotals struct {
	spans map[string]time.Duration

	items, conflictEntries, components int
	steps, misIters, raised            int
	prepareAlloc                       uint64

	distOps                                    int
	nodeBytes, sharedBytes                     int64
	processors                                 int
	busy, skipped, schedule, payload, messages int
	maxMessage                                 int
}

func newLayerTotals() *layerTotals {
	return &layerTotals{spans: map[string]time.Duration{}}
}

func (tr *layerTotals) addDist(res *dist.Result) {
	tr.distOps++
	tr.nodeBytes += res.NodeStateBytes
	tr.sharedBytes += res.SharedStateBytes
	tr.processors += res.Processors
	tr.busy += res.Stats.BusyRounds
	tr.skipped += res.Stats.SkippedRounds
	tr.schedule += res.ScheduleRounds
	tr.payload += res.Stats.TotalSize
	tr.messages += res.Stats.Messages
	tr.maxMessage = max(tr.maxMessage, res.Stats.MaxMessageSize)
}

// reportSolve sets the engine solve split and the op's self-time, per
// operation (n operations or rounds).
func (tr *layerTotals) reportSolve(m metricSet, n float64) {
	self := selfTimes(tr.spans)
	m["engine.solve_ms"] = ms(tr.spans["solve"]) / n
	m["engine.solve_self_ms"] = ms(self["solve"]) / n
	m["engine.components_ms"] = ms(tr.spans["components"]) / n
	m["engine.serial_solve_ms"] = ms(tr.spans["serial_solve"]) / n
	m["engine.shard_solve_busy_ms"] = ms(tr.spans["shard_solve"]) / n
	m["engine.merge_ms"] = ms(tr.spans["merge"]) / n
	m["engine.greedy_ms"] = ms(tr.spans["greedy"]) / n
	m["op.self_ms"] = ms(self["op"]) / n
}

// report sets every metric the single-client pipeline measures, per traced
// operation.
func (tr *layerTotals) report(m metricSet, ops int) {
	n := float64(ops)
	tr.reportSolve(m, n)
	m["decomp.build_ms"] = ms(tr.spans["decomp"]) / n
	m["decomp.items"] = float64(tr.items) / n
	m["engine.prepare_ms"] = ms(tr.spans["prepare"]) / n
	m["engine.prepare_alloc_mb"] = float64(tr.prepareAlloc) / mib / n
	m["engine.conflict_entries"] = float64(tr.conflictEntries) / n
	m["engine.components"] = float64(tr.components) / n
	m["engine.steps"] = float64(tr.steps) / n
	m["engine.mis_iters"] = float64(tr.misIters) / n
	m["engine.raised"] = float64(tr.raised) / n
	if tr.distOps == 0 {
		return
	}
	d := float64(tr.distOps)
	self := selfTimes(tr.spans)
	m["dist.run_ms"] = ms(tr.spans["dist"]) / d
	m["dist.run_self_ms"] = ms(self["dist"]) / d
	m["dist.setup_ms"] = ms(tr.spans["dist_setup"]) / d
	m["dist.sim_ms"] = ms(tr.spans["dist_sim"]) / d
	m["dist.assemble_ms"] = ms(tr.spans["dist_assemble"]) / d
	m["dist.node_bytes_per_demand"] = float64(tr.nodeBytes) / float64(tr.processors)
	m["dist.shared_mb"] = float64(tr.sharedBytes) / mib / d
	m["simnet.busy_rounds"] = float64(tr.busy) / d
	m["simnet.skipped_rounds"] = float64(tr.skipped) / d
	m["simnet.schedule_rounds"] = float64(tr.schedule) / d
	m["simnet.payload_units"] = float64(tr.payload) / d
	m["simnet.max_message_size"] = float64(tr.maxMessage)
	m["messages_per_op"] = float64(tr.messages) / d
}

// zero sets to 0 every per-layer metric under one of the prefixes that the
// run left unset: layers the workload's operation does not reach.
func (m metricSet) zero(prefixes ...string) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				m[d.name] = 0
				break
			}
		}
	}
}
