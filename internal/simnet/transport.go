package simnet

// memTransport is the in-process delivery of the simulator: it moves one
// round's committed outboxes into the next round's inboxes. RunBatched
// drives it strictly by round from its coordinator goroutine — Send
// enqueues a message for delivery after the next Flip, Inbox exposes the
// messages delivered to a node in the current round (valid until the next
// Flip), and Flip advances the round boundary, recycling the buffers that
// were just read. Delivery order per recipient is the Send order, which
// RunBatched makes (ascending sender, emission order) by committing
// outboxes in ascending node order.
//
// The inboxes are double-buffered per-recipient slices reused across
// rounds. A dirty list records which recipients were touched, so a Flip
// clears O(touched) slices, not O(nodes) — on a million-node network where
// only one conflict component is awake, the delivery machinery costs only
// as much as the mail actually moving.
type memTransport struct {
	cur, nxt           [][]Message
	curDirty, nxtDirty []int
}

// newMemTransport returns the in-process double-buffered transport for a
// network with the given topology. Each recipient's row in both buffers is
// presized to its in-degree and carved from one arena per buffer: a round
// in which every neighbor sends once — the setup broadcast — fills the rows
// without growing them. A sender that sends a recipient more than one
// message in a round still works; that row grows by append.
func newMemTransport(topology [][]int) *memTransport {
	n := len(topology)
	t := &memTransport{cur: make([][]Message, n), nxt: make([][]Message, n)}
	indeg := make([]int, n)
	total := 0
	for _, row := range topology {
		for _, j := range row {
			indeg[j]++
		}
		total += len(row)
	}
	curArena := make([]Message, total)
	nxtArena := make([]Message, total)
	off := 0
	for i, d := range indeg {
		t.cur[i] = curArena[off : off : off+d]
		t.nxt[i] = nxtArena[off : off : off+d]
		off += d
	}
	return t
}

//schedvet:hot
func (t *memTransport) Send(m Message) {
	if len(t.nxt[m.To]) == 0 {
		t.nxtDirty = append(t.nxtDirty, m.To)
	}
	t.nxt[m.To] = append(t.nxt[m.To], m)
}

//schedvet:hot
func (t *memTransport) Inbox(node int) []Message { return t.cur[node] }

//schedvet:hot
func (t *memTransport) Flip() {
	for _, i := range t.curDirty {
		t.cur[i] = t.cur[i][:0]
	}
	t.curDirty = t.curDirty[:0]
	t.cur, t.nxt = t.nxt, t.cur
	t.curDirty, t.nxtDirty = t.nxtDirty, t.curDirty
}
