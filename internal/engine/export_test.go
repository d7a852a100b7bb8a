package engine

// AdjacencyBuilt reports whether p currently holds a built pairwise
// conflict adjacency: the hook the adjacency-free solve-path test reads.
func AdjacencyBuilt(p *Prepared) bool { return p.adj != nil }

// Internal test helpers shared with the external engine_test package.
var (
	WarmPoolItems = warmPoolItems
	SameResult    = sameResult
)
