package dist_test

import (
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/workload"
)

// BenchmarkDistFleet runs the protocol on the perfbench dist-fleet shape:
// 2048 one-access demands over 32 networks of 64 vertices, at the root
// API's default ε. Only the dist run is timed; items are built once.
func BenchmarkDistFleet(b *testing.B) {
	items := treeItems(b, workload.TreeConfig{
		Vertices: 64, Trees: 32, Demands: 2048, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}, 1, engine.IdealDecomp)
	cfg := engine.Config{Mode: engine.Unit, Epsilon: 0.1, Seed: 1}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dist.Run(items, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
