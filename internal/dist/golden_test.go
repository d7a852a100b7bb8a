package dist_test

import (
	"testing"

	"treesched/internal/dist"
	"treesched/internal/engine"
	"treesched/internal/simnet"
	"treesched/internal/workload"
)

// TestDistStatsGolden pins the full communication Stats — every counter and
// both histograms — and the schedule length of three fixed runs. The
// equivalence suites cannot catch a fast-forward answer that names a round
// too early: an early wake-up changes nothing in the Result. It does change
// which rounds execute, and so SkippedRounds and the busy-node histogram;
// this golden fails on it.
func TestDistStatsGolden(t *testing.T) {
	cases := []struct {
		name   string
		wcfg   workload.TreeConfig
		kind   engine.DecompKind
		cfg    engine.Config
		rounds int
		stats  simnet.Stats
	}{
		{
			name:   "fleet-unit",
			wcfg:   workload.TreeConfig{Vertices: 64, Trees: 32, Demands: 512, ProfitRatio: 16, AccessMin: 1, AccessMax: 1},
			kind:   engine.IdealDecomp,
			cfg:    engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 1},
			rounds: 181585,
			stats: simnet.Stats{
				Rounds: 181585, SkippedRounds: 181413, BusyRounds: 129, Messages: 8529, TotalSize: 8529, MaxMessageSize: 1,
				BusyNodeHist: [simnet.StatsHistBuckets]int{16, 13, 20, 34, 18, 15, 7, 3, 3},
				MsgSizeHist:  [simnet.StatsHistBuckets]int{8529},
			},
		},
		{
			name:   "narrow-balancing",
			wcfg:   workload.TreeConfig{Vertices: 16, Trees: 2, Demands: 11, ProfitRatio: 6, Heights: workload.NarrowHeights, HMin: 0.2},
			kind:   engine.BalancingDecomp,
			cfg:    engine.Config{Mode: engine.Narrow, Epsilon: 0.3, Seed: 3},
			rounds: 82321,
			stats: simnet.Stats{
				Rounds: 82321, SkippedRounds: 82293, BusyRounds: 20, Messages: 127, TotalSize: 152, MaxMessageSize: 2,
				BusyNodeHist: [simnet.StatsHistBuckets]int{4, 6, 7, 3},
				MsgSizeHist:  [simnet.StatsHistBuckets]int{102, 25},
			},
		},
		{
			name:   "multi-access-single-stage",
			wcfg:   workload.TreeConfig{Vertices: 20, Trees: 3, Demands: 24, ProfitRatio: 4, AccessMin: 1, AccessMax: 3},
			kind:   engine.RootFixingDecomp,
			cfg:    engine.Config{Mode: engine.Unit, Epsilon: 0.3, Seed: 5, SingleStage: true},
			rounds: 6371,
			stats: simnet.Stats{
				Rounds: 6371, SkippedRounds: 6349, BusyRounds: 14, Messages: 357, TotalSize: 571, MaxMessageSize: 3,
				BusyNodeHist: [simnet.StatsHistBuckets]int{1, 1, 3, 5, 4},
				MsgSizeHist:  [simnet.StatsHistBuckets]int{222, 135},
			},
		},
	}
	for _, tc := range cases {
		items := treeItems(t, tc.wcfg, 17, tc.kind)
		res, err := dist.Run(items, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.ScheduleRounds != tc.rounds {
			t.Errorf("%s: ScheduleRounds = %d, want %d", tc.name, res.ScheduleRounds, tc.rounds)
		}
		if res.Stats != tc.stats {
			t.Errorf("%s: Stats drifted:\ngot  %#v\nwant %#v", tc.name, res.Stats, tc.stats)
		}
	}
}
