package lint

// DetPackages is the deterministic package set: every package whose
// non-test code executes on the solve path of the bitwise-equivalence
// suites (serial ≡ parallel ≡ distributed ≡ warm-replay). maprange and
// detsource enforce their rules only inside this set.
//
// The list is exactly the module-local transitive import closure of the
// packages hosting the bitwise-equivalence fuzz/property suites
// (internal/engine, internal/dist, internal/seq) — a meta-test
// (detpkgs_test.go) derives that closure from `go list -deps` and fails
// if this list drifts, so a new package cannot silently escape
// enforcement. Test-support packages (graph/graphtest, and mis — the
// pairwise reference the engine's incidence elections are tested against)
// and layers above the solve path (serve, which legitimately reads
// wall-clock time for metrics) are outside the set by construction.
var DetPackages = []string{
	"treesched/internal/decomp",
	"treesched/internal/dist",
	"treesched/internal/dual",
	"treesched/internal/engine",
	"treesched/internal/graph",
	"treesched/internal/model",
	"treesched/internal/seq",
	"treesched/internal/simnet",
}

// EquivalenceSuiteHosts are the packages whose test suites assert the
// bitwise guarantee itself; DetPackages is derived from their imports.
var EquivalenceSuiteHosts = []string{
	"treesched/internal/engine",
	"treesched/internal/dist",
	"treesched/internal/seq",
}

// IsDeterministic reports whether the import path is in the enforced set.
func IsDeterministic(path string) bool {
	for _, p := range DetPackages {
		if p == path {
			return true
		}
	}
	return false
}
