package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	treesched "treesched"
	"treesched/internal/obs"
)

func TestP90RefusesFewSamples(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	if _, err := p90(xs); err == nil {
		t.Fatalf("p90 accepted %d samples", len(xs))
	}
	xs = make([]float64, minTailSamples)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 100 … 1, unsorted
	}
	got, err := p90(xs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_lead", "a b", "ms/op", "x:y", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue and the
// repository's BENCHMARK.json in step: same names, same units, same order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var got []struct{ Name, Unit string }
		for _, d := range c.defs {
			got = append(got, struct{ Name, Unit string }{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, c.spec) {
			t.Errorf("catalogue %v\nBENCHMARK.json %v", got, c.spec)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
}

func TestRenderRejectsUnmeasuredAndUnknown(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	if _, err := (metricSet{"a": 1}).render(defs); err == nil {
		t.Error("render accepted an unmeasured metric")
	}
	if _, err := (metricSet{"a": 1, "b": 2, "c": 3}).render(defs); err == nil {
		t.Error("render accepted a metric outside the catalogue")
	}
	out, err := (metricSet{"a": 1, "b": 2}).render(defs)
	if err != nil || out["b"] != (metricValue{Value: 2, Unit: "s"}) {
		t.Errorf("render = %v, %v", out, err)
	}
}

func instanceDigest(t *testing.T, pool []genInstance) []any {
	t.Helper()
	var out []any
	for _, g := range pool {
		for _, tr := range g.model.Trees {
			out = append(out, tr.Edges())
		}
		out = append(out, g.model.Demands)
	}
	return out
}

func scriptDigest(seed int64, k, n int) []step {
	s := newChurnScript(seed, k)
	out := make([]step, n)
	for i := range out {
		out[i] = s.nextStep()
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	small := serveShape
	small.Demands = 64
	gen := func(seed int64) []any {
		pool, err := genPool(small, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		return instanceDigest(t, pool)
	}
	if !reflect.DeepEqual(gen(7), gen(7)) {
		t.Error("the same seed generated different instances")
	}
	if reflect.DeepEqual(gen(7), gen(8)) {
		t.Error("different seeds generated the same instances")
	}
	if !reflect.DeepEqual(scriptDigest(7, 1, 40), scriptDigest(7, 1, 40)) {
		t.Error("the same seed generated different churn scripts")
	}
	if reflect.DeepEqual(scriptDigest(7, 1, 40), scriptDigest(8, 1, 40)) {
		t.Error("different seeds generated the same churn script")
	}
	if reflect.DeepEqual(scriptDigest(7, 0, 40), scriptDigest(7, 1, 40)) {
		t.Error("two submitters share a churn script")
	}
	for _, st := range scriptDigest(7, 1, 40) {
		if st.net%serveSubmitters != 1 {
			t.Fatalf("submitter 1 churned network %d it does not own", st.net)
		}
		for _, nd := range st.add {
			if len(nd.Access) != 1 || nd.Access[0] != st.net || nd.U == nd.V {
				t.Fatalf("bad arrival %+v on network %d", nd, st.net)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := map[string]time.Duration{
		"op":         100 * ms,
		"decomp":     20 * ms,
		"prepare":    50 * ms,
		"solve":      28 * ms,
		"components": 5 * ms,
		"greedy":     3 * ms,
		"merge":      4 * ms,
		"update":     9 * ms, // no op-level parent span in a solve, still a child of op
		"apply":      6 * ms,
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op":         100*ms - 20*ms - 50*ms - 28*ms - 9*ms,
		"decomp":     20 * ms,
		"prepare":    50 * ms,
		"solve":      28*ms - 5*ms - 3*ms - 4*ms,
		"components": 5 * ms,
		"greedy":     3 * ms,
		"merge":      4 * ms,
		"update":     3 * ms,
		"apply":      6 * ms,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	spans["update"] = 0
	if err := checkCoverage(spans, "op", 0.05); err != nil {
		t.Errorf("children covering 98%% rejected: %v", err)
	}
	if err := checkCoverage(spans, "op", 0.01); err == nil {
		t.Error("children covering 98% accepted at 1% tolerance")
	}
	if err := checkCoverage(spans, "dist", 0.5); err == nil {
		t.Error("coverage of a span with no time accepted")
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	l := &resultLog{}
	res := &treesched.Result{Profit: 12.5, DualBound: 20.25}
	for d := 0; d < 3000; d++ {
		res.Assignments = append(res.Assignments, treesched.Assignment{Demand: d * 7, Network: d % 31})
	}
	for key := 0; key < 400; key++ { // more than one chunk
		l.add(key, res)
	}
	n := 0
	l.each(func(key int, got *treesched.Result) {
		if key != n || !reflect.DeepEqual(got, res) {
			t.Fatalf("record %d: key %d, result differs", n, key)
		}
		n++
	})
	if n != 400 {
		t.Fatalf("replayed %d records, want 400", n)
	}
	if len(l.chunks) < 2 {
		t.Fatalf("records fit in %d chunk; the test wants several", len(l.chunks))
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// solvedPool solves a small cold-contended pool and logs the results.
func solvedPool(t *testing.T) ([]genInstance, []*treesched.Result) {
	t.Helper()
	shape := coldShape
	shape.Vertices, shape.Demands = 64, 48
	pool, err := genPool(shape, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var results []*treesched.Result
	for i, g := range pool {
		res, err := treesched.Solve(g.inst, treesched.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return pool, results
}

func TestCorruptedResultFails(t *testing.T) {
	pool, results := solvedPool(t)
	check := func(mutate func(*treesched.Result)) int {
		log := &resultLog{}
		defer log.close()
		for i, res := range results {
			r := *res
			r.Assignments = append([]treesched.Assignment(nil), res.Assignments...)
			if i == 1 {
				mutate(&r)
			}
			log.add(i, &r)
		}
		ratios, failed := coldContended.verify(pool, log, nil)
		if len(ratios)+failed != len(results) {
			t.Fatalf("%d ratios and %d failures for %d results", len(ratios), failed, len(results))
		}
		return failed
	}
	if f := check(func(*treesched.Result) {}); f != 0 {
		t.Fatalf("untouched results: %d failures", f)
	}
	second := results[1].Assignments[0]
	for name, mutate := range map[string]func(*treesched.Result){
		"profit inflated":      func(r *treesched.Result) { r.Profit *= 1.01 },
		"bound below profit":   func(r *treesched.Result) { r.DualBound = r.Profit * 0.99 },
		"demand twice":         func(r *treesched.Result) { r.Assignments = append(r.Assignments, second) },
		"unknown demand":       func(r *treesched.Result) { r.Assignments[0].Demand = 1 << 20 },
		"inaccessible network": func(r *treesched.Result) { r.Assignments[0].Network = 9 },
		"zero profit":          func(r *treesched.Result) { r.Profit, r.Assignments = 0, nil },
	} {
		if f := check(mutate); f != 1 {
			t.Errorf("%s: %d failures, want 1", name, f)
		}
	}
}

func TestServeSnapshotChecks(t *testing.T) {
	demands := map[int]*demandLife{
		0: {u: 0, v: 1, profit: 2, net: 3, added: 0, removed: math.MaxUint64},
		1: {u: 1, v: 2, profit: 5, net: 3, added: 4, removed: 9},
	}
	res := &treesched.Result{Profit: 7, DualBound: 10, Assignments: []treesched.Assignment{{Demand: 0, Network: 3}, {Demand: 1, Network: 3}}}
	if err := checkSnapshot(5, res, demands); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, epoch := range []uint64{3, 9} {
		if err := checkSnapshot(epoch, res, demands); err == nil {
			t.Errorf("demand 1 accepted at epoch %d, outside its life [4,9)", epoch)
		}
	}
	res.Assignments[1].Network = 2
	if err := checkSnapshot(5, res, demands); err == nil {
		t.Error("demand off its pinned network accepted")
	}
}

// TestServeArm drives one fleet with both submitters at once, then settles
// and verifies every snapshot: the concurrent path of serve-fleet.
func TestServeArm(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full-size serve fleet")
	}
	st, err := newServeState(5, obs.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	var verifyTotal time.Duration
	a, err := st.runArm(50*time.Millisecond, 10, &verifyTotal)
	if err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 || a.done < 10 || len(a.lat) != a.done || len(a.ratios) != a.done {
		t.Fatalf("arm: %d done, %d failed, %d latencies, %d ratios", a.done, a.failed, len(a.lat), len(a.ratios))
	}
	if verifyTotal <= 0 {
		t.Error("no Verify time recorded")
	}
}
