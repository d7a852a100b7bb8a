package engine

// Internal test helpers shared with the external engine_test package.
var (
	WarmPoolItems = warmPoolItems
	SameResult    = sameResult
)

// Reshard marks p's component decomposition stale with every item touched,
// then rebuilds it: every component gets a fresh preShard, as if churn had
// reached them all.
func Reshard(p *Prepared) {
	p.shardsStale = true
	p.touched = make([]bool, len(p.items))
	for i := range p.touched {
		p.touched[i] = true
	}
	p.ensureShards()
}
