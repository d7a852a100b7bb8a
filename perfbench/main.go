// Command perfbench is the repository's benchmark. It drives the public
// entry points from one process — treesched.Solve, a Solver.Session behind
// serve.Actor, and Solve with Simulate — on three workloads, checks every
// result, and prints one JSON object as its last line of output.
//
//	python3 perfbench/run.py --workload cold-contended --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer metrics of a traced run (see
// metrics.go). Every workload is a closed loop with Options at their
// defaults and GOMAXPROCS left as the runtime sets it. The command exits
// non-zero when any operation fails or a check does not hold.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	budget time.Duration // measured phase length
	trace  bool
}

// outcome is one workload run: operation counts and the metric values.
type outcome struct {
	attempted, failed int
	metrics           metricSet
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"cold-contended": coldContended.run,
	"serve-fleet":    runServeFleet,
	"dist-fleet":     distFleet.run,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-contended, serve-fleet or dist-fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		warnf("unknown workload %q or bad flags", *name)
		return 2
	}
	rc := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	out, err := w(rc)
	if err != nil {
		warnf("%s: %v", *name, err)
		return 1
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	metrics, err := out.metrics.render(defs)
	if err != nil {
		warnf("%s: %v", *name, err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		warnf("%s: %v", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

func medianSetup(setup func() error) (time.Duration, error) {
	times := make([]float64, setupReps)
	for i := range times {
		d, err := timeSetup(setup)
		if err != nil {
			return 0, err
		}
		times[i] = float64(d)
	}
	return time.Duration(median(times)), nil
}

// timeSetup times one set-up, starting from a collected heap.
func timeSetup(setup func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := setup()
	return time.Since(start), err
}

// hardStopFactor caps a measured phase at this multiple of its budget when
// operations are too slow to reach the minimum count; the run then fails
// for want of samples instead of overrunning.
const hardStopFactor = 3

// closedLoop calls op(0), op(1), … one after another until the budget is
// spent and at least minOps calls were made. op returns the latency of its
// timed region, which closedLoop records in lat unless lat is nil. It returns the successful
// and failed call counts and the phase's wall time.
func closedLoop(budget time.Duration, minOps int, lat *ledger, op func(i int) (time.Duration, error)) (int, int, time.Duration) {
	ok, failed := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= hardStopFactor*budget || el >= budget && i >= minOps {
			break
		}
		d, err := op(i)
		if err != nil {
			failed++
			warnf("operation %d: %v", i, err)
			continue
		}
		if lat != nil {
			lat.add(int64(d))
		}
		ok++
	}
	return ok, failed, time.Since(start)
}

// latencies returns the first word of each ledger record, a duration, in ms.
func latencies(l *ledger) []float64 {
	var out []float64
	l.each(func(rec []int64) { out = append(out, ms(time.Duration(rec[0]))) })
	return out
}

// release closes ledgers when a run returns, keeping the run's first
// error.
func release(err *error, ls ...*ledger) {
	for _, l := range ls {
		*err = cmp.Or(*err, l.close())
	}
}

// phase brackets a measured phase for the memory metrics.
type phase struct{ alloc0 uint64 }

// memUse is a phase's allocation per operation and end-of-phase live heap,
// in bytes.
type memUse struct{ allocPerOp, live float64 }

func startPhase() phase {
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return phase{alloc0: s.TotalAlloc}
}

// end reads TotalAlloc, then collects and reads the live heap.
func (p phase) end(ops int) memUse {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	alloc := float64(s.TotalAlloc-p.alloc0) / float64(max(ops, 1))
	runtime.GC()
	runtime.ReadMemStats(&s)
	return memUse{allocPerOp: alloc, live: float64(s.HeapAlloc)}
}

// endToEnd sets the untraced run's metrics. certified_ratio averages the
// operations that verified; it reads 0 when none did, and the run is then
// reported incorrect.
func (o *outcome) endToEnd(setup time.Duration, lat []float64, elapsed time.Duration, ratios []float64, mem memUse) error {
	tail, err := p90(lat)
	if err != nil {
		return err
	}
	m := o.metrics
	m["setup_s"] = setup.Seconds()
	m["op_ms_p50"] = median(lat)
	m["op_ms_p90"] = tail
	m["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	m["success_rate"] = 1 - float64(o.failed)/float64(o.attempted)
	m["certified_ratio"] = mean(ratios)
	m["alloc_mb_per_op"] = mem.allocPerOp / mib
	m["live_heap_mb"] = mem.live / mib
	return nil
}
