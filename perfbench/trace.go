package main

import (
	"fmt"
	"time"

	"treesched/internal/engine"
	"treesched/internal/obs"
)

// parentOf is the traced run's static span tree. The benchmark times the
// op's direct children around their public calls; the recorder supplies
// the rest. A span's self-time is its total minus its children's totals.
// On serve-fleet the op is one actor round (update, then the session's
// solve), and the recorder's prepare spans are compaction re-prepares
// inside update.
var parentOf = map[string]string{
	"decomp":  "op",
	"prepare": "op",
	"update":  "op",
	"solve":   "op",
	"dist":    "op",

	"components":   "solve",
	"serial_solve": "solve",
	"shard_solve":  "solve", // busy time: shards run on several workers
	"merge":        "solve",
	"greedy":       "solve",

	"apply":     "update",
	"reprepare": "update",

	"dist_setup":    "dist",
	"dist_sim":      "dist",
	"dist_assemble": "dist",
}

// selfTimes returns each span's total minus the totals of its children in
// parentOf. Spans without children keep their total.
func selfTimes(totals map[string]time.Duration) map[string]time.Duration {
	self := make(map[string]time.Duration, len(totals))
	for name, d := range totals {
		self[name] += d
		if p, ok := parentOf[name]; ok {
			self[p] -= d
		}
	}
	return self
}

// checkCoverage checks that the children of parent account for its total
// to within tol of it: the layers the trace names sum to the time they
// claim to split. Children run one after another, so they cannot exceed
// the parent beyond timer noise.
func checkCoverage(totals map[string]time.Duration, parent string, tol float64) error {
	var sum time.Duration
	for name, d := range totals {
		if parentOf[name] == parent {
			sum += d
		}
	}
	total := totals[parent]
	if total <= 0 {
		return fmt.Errorf("trace: span %s has no time", parent)
	}
	share := float64(sum) / float64(total)
	if share < 1-tol || share > 1+tol {
		return fmt.Errorf("trace: children of %s sum to %.4f of it, outside 1±%.2f", parent, share, tol)
	}
	return nil
}

// recorderSpans moves one report window of the recorder into totals under
// the parentOf names. The recorder's solve phase is skipped when the
// benchmark times solve itself (timedSolve), and its prepare phase is
// named reprepare: the only prepare spans a traced run's recorder sees are
// a session's compactions.
func recorderSpans(rec *obs.Recorder, totals map[string]time.Duration, timedSolve bool) {
	rep := rec.Take()
	for _, ps := range rep.Phases {
		name := ps.Phase
		switch name {
		case engine.PhaseSolve.String():
			if timedSolve {
				continue
			}
		case engine.PhasePrepare.String():
			name = "reprepare"
		}
		totals[name] += ps.Total
	}
}
