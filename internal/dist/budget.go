package dist

import (
	"fmt"
	"math"
)

// LubyBudgetFor returns B, the fixed per-step Luby iteration budget a
// processor allocates when it derives the synchronous schedule locally.
// Luby's algorithm terminates in O(log N) iterations with high probability
// [14]; the budget adds generous constant slack so that exceeding it is a
// protocol error (surfaced by the run) rather than a plausible outcome.
// Every step reserves exactly 2B+1 rounds — two per Luby iteration (one to
// exchange draws, one to announce winners) plus one settle round in which
// the final winner announcements land — whether or not the elections finish
// early; unused rounds are idle and fast-forwarded by the simulator.
func LubyBudgetFor(n int) int {
	if n <= 1 {
		return 4
	}
	return 8 + 4*int(math.Ceil(math.Log2(float64(n)+1)))
}

// ScheduleLength returns the total number of rounds in the fixed synchronous
// schedule: one setup round plus (2B+1) rounds for each of the T =
// MaxGroup·Stages·StepCap steps. Every processor computes the same value
// locally, which is what lets the protocol run with no termination
// detection: round r's position in the schedule is a pure function of r.
func ScheduleLength(totalSteps, budget int) int {
	return 1 + totalSteps*(2*budget+1)
}

// BudgetError reports a Luby election that outran the per-step iteration
// budget B: at the settle round of step Step, node Node still had Live
// undecided items. The node panics with it, the simulator contains the
// panic and wraps it, so Run, RunOpts and the root Solve with Simulate
// return an error that errors.As matches against *BudgetError.
type BudgetError struct {
	Node   int // processor id
	Step   int // flat index of the step in the fixed schedule
	Live   int // items still undecided after B iterations
	Budget int // B
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("dist: node %d: step %d: %d items still live after Luby budget %d; raise LubyBudgetFor",
		e.Node, e.Step, e.Live, e.Budget)
}
