package simnet

import (
	"reflect"
	"testing"
)

// TestMemTransportPastInDegree sends a recipient more messages in one round
// than it has topology in-edges. Its presized row must grow by append
// without writing into the next recipient's row, which is carved from the
// same arena, and both inboxes must keep send order.
func TestMemTransportPastInDegree(t *testing.T) {
	tr := newMemTransport([][]int{{1, 2}, {0}, {0}})
	for r := 0; r < 2; r++ {
		// Node 2's row follows node 1's: fill it first, so an overflowing
		// row 1 would overwrite it.
		tr.Send(Message{From: 0, To: 2, Payload: intPayload(100 + r)})
		for k := 0; k < 3; k++ {
			tr.Send(Message{From: 0, To: 1, Payload: intPayload(10*r + k)})
		}
		tr.Send(Message{From: 1, To: 0, Payload: intPayload(200 + r)})
		tr.Flip()
		for node, want := range [][]int{{200 + r}, {10 * r, 10*r + 1, 10*r + 2}, {100 + r}} {
			var got []int
			for _, m := range tr.Inbox(node) {
				got = append(got, int(m.Payload.(intPayload)))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d: node %d inbox %v, want %v", r, node, got, want)
			}
		}
	}
}
