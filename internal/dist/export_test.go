package dist

import "testing"

// ForceLubyBudgetForTest pins every run's Luby budget to b until the test
// ends, so a test can drive an election past its budget.
func ForceLubyBudgetForTest(tb testing.TB, b int) {
	tb.Helper()
	old := budgetFor
	budgetFor = func(int) int { return b }
	tb.Cleanup(func() { budgetFor = old })
}
