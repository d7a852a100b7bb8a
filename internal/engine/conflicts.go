package engine

import "slices"

// This file implements the engine's conflict structure. Under §2 two items
// conflict iff they share a demand or share an edge (which implies the same
// resource, since edge keys embed the resource id), so the conflict graph
// is fully described by its incidence: each item belongs to one demand
// group (its interned demand slot) and one edge group per path edge (its
// interned edge indices), and the conflict graph is the union of the
// cliques those groups induce. The engine never materializes the cliques.
// Incidence grows linearly in Σ|path|, while the pairwise adjacency grows
// quadratically in group size — on contended instances the adjacency is
// tens of times larger, and building it would dominate a cold solve.
//
// The groups of an item are read straight off its ItemView (Slot and
// Edges), so the per-step kernels below need no structure beyond the dense
// layout. Every graph algorithm the solve needs is a rewriting over groups:
//
//   - Luby: an item beats every live neighbor iff it is the (priority,
//     index)-minimum live member of each of its groups, so an election
//     round is one per-group-min pass, one winner pass, and one kill pass
//     over the winners' groups (electLuby);
//   - greedy MIS: an ascending scan with a per-group taken mark
//     (electGreedy);
//   - components: union-find over the group member lists
//     (incidenceComponents).
//
// The member lists (buildMembers) are the group → items direction of the
// incidence. Prepared keeps them as the incremental-update index of Apply
// and as the input of the component decomposition, and package dist builds
// its processor topology from the edge side (Prepared.EdgeMembers). The
// pairwise adjacency is built only on request, for tests and measurements
// that need explicit neighbor lists (Prepared.Conflicts, BuildConflicts);
// no solve path and no dist run builds it.

// buildMembers groups items by demand slot and by edge index: members[g] is
// the ascending list of item ids in dense group g. Exact-sized in two passes
// over the views (count, then fill) so the backing arrays never regrow.
func buildMembers(views []ItemView, numDemands, numEdges int) (demandMembers, edgeMembers [][]int32) {
	dCounts := make([]int32, numDemands)
	eCounts := make([]int32, numEdges)
	total := 0
	for i := range views {
		v := &views[i]
		dCounts[v.Slot]++
		for _, e := range v.Edges {
			eCounts[e]++
		}
		total += 1 + len(v.Edges)
	}
	flat := make([]int32, total)
	demandMembers = make([][]int32, numDemands)
	edgeMembers = make([][]int32, numEdges)
	off := 0
	for s, c := range dCounts {
		demandMembers[s] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for e, c := range eCounts {
		edgeMembers[e] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for i := range views {
		v := &views[i]
		demandMembers[v.Slot] = append(demandMembers[v.Slot], int32(i))
		for _, e := range v.Edges {
			edgeMembers[e] = append(edgeMembers[e], int32(i))
		}
	}
	return demandMembers, edgeMembers
}

// electLuby runs Luby's algorithm on the conflict graph restricted to u
// (ascending item ids) and returns membership by position in u plus the
// number of iterations: bitwise what mis.Luby returns over the restricted
// adjacency when position i draws from the stream of u[i]'s owner slot.
// Each iteration draws one priority per live position in ascending order
// (the per-owner draw order is the bit-compatibility contract with package
// dist), then makes three passes over the live positions' groups:
//
//   - min: every group records its (priority, position)-minimum live
//     member. Positions ascend, so a later member displaces the current
//     minimum only with a strictly smaller priority — ties go to the
//     smaller index, as in mis.Luby;
//   - win: a position wins iff it is the minimum of each of its groups,
//     i.e. it beats every live neighbor. Winners join the set and stamp
//     their groups taken (no two winners share a group);
//   - kill: every live position with a taken group is a winner's neighbor
//     and leaves the live set.
//
// An iteration costs O(Σ|path|) over the live positions, where the
// pairwise win check costs O(Σ degree).
//
//schedvet:hot
func electLuby(lay *layout, u []int, scr *solveScratch) (in []bool, iters int) {
	views := lay.views
	nd := scr.growGroups(lay)
	gStamp, gMin := scr.gStamp, scr.gMin
	prio := scratch(&scr.prio, len(u), false)
	live := scratch(&scr.live, len(u), false)
	in = scratch(&scr.in, len(u), true)
	for i := range live {
		live[i] = true
	}
	for left := len(u); left > 0; {
		iters++
		for i, id := range u {
			if live[i] {
				prio[i] = scr.streams[lay.ownerSlot[id]].Float64()
			}
		}
		mark := scr.nextStamp()
		for i, id := range u {
			if !live[i] {
				continue
			}
			v, p := &views[id], int32(i)
			offerMin(gStamp, gMin, prio, v.Slot, p, mark)
			for _, e := range v.Edges {
				offerMin(gStamp, gMin, prio, nd+e, p, mark)
			}
		}
		taken := scr.nextStamp()
		for i, id := range u {
			if live[i] && minOfGroups(gMin, &views[id], nd, int32(i)) {
				in[i], live[i] = true, false
				left--
				stampGroups(gStamp, &views[id], nd, taken)
			}
		}
		for i, id := range u {
			if live[i] && hasStamp(gStamp, &views[id], nd, taken) {
				live[i] = false
				left--
			}
		}
	}
	return in, iters
}

// electGreedy computes the lexicographically-first maximal independent set
// of the conflict graph restricted to u (ascending item ids), by position:
// bitwise mis.Greedy over the restricted adjacency. A position joins iff
// none of its groups was taken by an earlier member.
//
//schedvet:hot
func electGreedy(lay *layout, u []int, scr *solveScratch) []bool {
	nd := scr.growGroups(lay)
	in := scratch(&scr.in, len(u), true)
	taken := scr.nextStamp()
	for i, id := range u {
		v := &lay.views[id]
		if !hasStamp(scr.gStamp, v, nd, taken) {
			in[i] = true
			stampGroups(scr.gStamp, v, nd, taken)
		}
	}
	return in
}

// offerMin makes position p the minimum of group g when g has no minimum
// in the current pass yet or p's priority is strictly smaller.
func offerMin(gStamp []uint32, gMin []int32, prio []float64, g, p int32, mark uint32) {
	if gStamp[g] != mark || prio[p] < prio[gMin[g]] {
		gStamp[g] = mark
		gMin[g] = p
	}
}

// minOfGroups reports whether position p is the recorded minimum of every
// group of v (edge group e lives at index nd+e).
func minOfGroups(gMin []int32, v *ItemView, nd, p int32) bool {
	if gMin[v.Slot] != p {
		return false
	}
	for _, e := range v.Edges {
		if gMin[nd+e] != p {
			return false
		}
	}
	return true
}

// stampGroups stamps every group of v.
func stampGroups(gStamp []uint32, v *ItemView, nd int32, stamp uint32) {
	gStamp[v.Slot] = stamp
	for _, e := range v.Edges {
		gStamp[nd+e] = stamp
	}
}

// hasStamp reports whether any group of v carries the stamp.
func hasStamp(gStamp []uint32, v *ItemView, nd int32, stamp uint32) bool {
	if gStamp[v.Slot] == stamp {
		return true
	}
	for _, e := range v.Edges {
		if gStamp[nd+e] == stamp {
			return true
		}
	}
	return false
}

// incidenceComponents returns the connected components of the conflict
// graph over items 0..n-1 from its group member lists, exactly as
// ConflictComponents returns them from the adjacency: ascending members,
// components ordered by smallest member. It is union-find over groups:
// each group's members join the tree of its first (smallest) member, and a
// union links the larger root under the smaller, so every parent pointer
// points to a smaller id. One ascending pass therefore compresses the
// forest completely and numbers the components by smallest member, and
// filling them in ascending id order leaves every member list sorted.
//
//schedvet:hot
func incidenceComponents(n int, demandMembers, edgeMembers [][]int32, scr *solveScratch) [][]int {
	parent := scratch(&scr.parent, n, false)
	for i := range parent {
		parent[i] = int32(i)
	}
	for _, m := range demandMembers {
		unionGroup(parent, m)
	}
	for _, m := range edgeMembers {
		unionGroup(parent, m)
	}
	label := scratch(&scr.label, n, false)
	k := int32(0)
	for v, p := range parent {
		if p == int32(v) {
			label[v] = k
			k++
			continue
		}
		root := parent[p] // p < v is already compressed to its root
		parent[v] = root
		label[v] = label[root]
	}
	sizes := parent[:k] // the forest is no longer needed
	clear(sizes)
	for _, c := range label {
		sizes[c]++
	}
	comps := make([][]int, k)
	for c := range comps {
		comps[c] = make([]int, 0, sizes[c])
	}
	for v, c := range label {
		comps[c] = append(comps[c], v)
	}
	return comps
}

// unionGroup joins every member of one group into a single tree whose root
// is the smallest id of the merged sets.
func unionGroup(parent []int32, members []int32) {
	if len(members) < 2 {
		return
	}
	r := find(parent, members[0])
	for _, x := range members[1:] {
		if s := find(parent, x); s < r {
			parent[r] = s
			r = s
		} else if s > r {
			parent[s] = r
		}
	}
}

// find returns the root of x, halving the path on the way.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// ItemComponents returns the connected components of the items' conflict
// graph — identical to ConflictComponents(BuildConflicts(items)) — computed
// over the demand/edge incidence without building the pairwise adjacency.
func ItemComponents(items []Item) [][]int {
	lay := buildLayout(items)
	dm, em := buildMembers(lay.views, lay.ix.NumDemands(), lay.ix.NumEdges())
	return incidenceComponents(len(items), dm, em, &solveScratch{})
}

// dedupEdgeGroups maps every edge index to a representative with the exact
// same member list, or to -1 when the group can produce no pairs (fewer than
// two members). Series edges — consecutive tree edges traversed by exactly
// the same paths — are common in practice and make the quadratic scans
// re-discover the same pairs once per duplicate group; skipping everything
// but the representative is sound because an item whose path contains a
// duplicate edge necessarily contains the representative too (their member
// lists are identical), so the pair is still discovered there. The dedup
// itself is one linear hashing pass over the member lists.
func dedupEdgeGroups(edgeMembers [][]int32) []int32 {
	rep := make([]int32, len(edgeMembers))
	buckets := make(map[uint64][]int32)
	for e := range edgeMembers {
		m := edgeMembers[e]
		if len(m) < 2 {
			rep[e] = -1
			continue
		}
		h := uint64(len(m))
		for _, v := range m {
			h ^= uint64(uint32(v))
			h *= 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		r := int32(-1)
		for _, cand := range buckets[h] {
			if slices.Equal(edgeMembers[cand], m) {
				r = cand
				break
			}
		}
		if r < 0 {
			r = int32(e)
			buckets[h] = append(buckets[h], r)
		}
		rep[e] = r
	}
	return rep
}

// conflictsSerial is the half-scan build: each unordered conflicting pair is
// discovered exactly once, at its larger member. A row is laid out as the
// ascending prefix of its smaller neighbors followed by the ascending suffix
// of its larger neighbors. The suffix fills directly during the half-scan
// (row v gains w in ascending w order), and the prefix never needs a sort:
// it is the mirror of the suffixes — u is a smaller neighbor of w exactly
// when w sits in u's suffix — so one linear sweep over the filled suffix
// regions in ascending u emits every prefix already sorted.
func conflictsSerial(n int, views []ItemView, demandMembers, edgeMembers [][]int32, rep []int32) [][]int {
	adj := make([][]int, n)
	last := make([]int32, n) // last w that saw each smaller member (dedup)
	for i := range last {
		last[i] = -1
	}
	// Count pass: pair (v < w) adds w to v's suffix and v to w's prefix.
	counts := make([]int32, n)    // total degree
	prefixCnt := make([]int32, n) // smaller-neighbor count
	for w := 0; w < n; w++ {
		vw := &views[w]
		w32 := int32(w)
		for _, v := range demandMembers[vw.Slot] {
			if v >= w32 {
				break
			}
			if last[v] != w32 {
				last[v] = w32
				counts[v]++
				counts[w]++
				prefixCnt[w]++
			}
		}
		for _, e := range vw.Edges {
			if rep[e] != e {
				continue
			}
			for _, v := range edgeMembers[e] {
				if v >= w32 {
					break
				}
				if last[v] != w32 {
					last[v] = w32
					counts[v]++
					counts[w]++
					prefixCnt[w]++
				}
			}
		}
	}
	offsets := make([]int, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int(counts[v])
	}
	flat := make([]int, offsets[n])
	next := make([]int, n) // suffix write cursor per row
	for v := 0; v < n; v++ {
		next[v] = offsets[v] + int(prefixCnt[v])
	}
	for i := range last {
		last[i] = -1
	}
	// Suffix fill: the outer loop runs w ascending, so each row's larger
	// neighbors arrive — and land — in ascending order.
	for w := 0; w < n; w++ {
		vw := &views[w]
		w32 := int32(w)
		for _, v := range demandMembers[vw.Slot] {
			if v >= w32 {
				break
			}
			if last[v] != w32 {
				last[v] = w32
				flat[next[v]] = w
				next[v]++
			}
		}
		for _, e := range vw.Edges {
			if rep[e] != e {
				continue
			}
			for _, v := range edgeMembers[e] {
				if v >= w32 {
					break
				}
				if last[v] != w32 {
					last[v] = w32
					flat[next[v]] = w
					next[v]++
				}
			}
		}
	}
	// Prefix fill by mirroring: sweeping u ascending appends u to each
	// suffix partner's prefix in ascending order. The prefix cursors reuse
	// next[]: row v's suffix is complete, so its cursor is rewound to the
	// row start and counts up through the prefix region.
	copy(next, offsets[:n])
	for u := 0; u < n; u++ {
		for _, w := range flat[offsets[u]+int(prefixCnt[u]) : offsets[u+1]] {
			flat[next[w]] = u
			next[w]++
		}
	}
	for v := 0; v < n; v++ {
		adj[v] = flat[offsets[v]:offsets[v+1]:offsets[v+1]]
	}
	return adj
}

// BuildConflicts constructs the conflict adjacency of §2 over the items:
// two items conflict iff they share a demand or they share an edge (which
// implies the same resource, since edge keys embed the resource id). Rows
// are sorted and deduplicated. It is the pairwise reference the incidence
// kernels are tested against; the solve path never builds it.
func BuildConflicts(items []Item) [][]int {
	lay := buildLayout(items)
	dm, em := buildMembers(lay.views, lay.ix.NumDemands(), lay.ix.NumEdges())
	return conflictsSerial(len(items), lay.views, dm, em, dedupEdgeGroups(em))
}
