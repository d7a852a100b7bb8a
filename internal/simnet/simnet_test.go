package simnet

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// intPayload is a trivial payload for tests.
type intPayload int

func (p intPayload) Size() int { return 1 }

// echoNode sends its id to all neighbors in round 0 and records what it
// hears; done after round 1.
type echoNode struct {
	id        int
	neighbors []int
	heard     []int
	round     int
}

func (n *echoNode) Round(round int, inbox []Message) []Message {
	n.round = round
	for _, m := range inbox {
		n.heard = append(n.heard, int(m.Payload.(intPayload)))
	}
	if round == 0 {
		return Broadcast(n.id, n.neighbors, intPayload(n.id))
	}
	return nil
}

func (n *echoNode) Done() bool { return n.round >= 1 }

func TestRoundTripDelivery(t *testing.T) {
	// Triangle topology: everyone hears everyone.
	topo := [][]int{{1, 2}, {0, 2}, {0, 1}}
	nodes := make([]Node, 3)
	echoes := make([]*echoNode, 3)
	for i := range nodes {
		echoes[i] = &echoNode{id: i, neighbors: topo[i]}
		nodes[i] = echoes[i]
	}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 6 {
		t.Errorf("messages = %d, want 6", stats.Messages)
	}
	if stats.Rounds < 2 {
		t.Errorf("rounds = %d, want ≥ 2", stats.Rounds)
	}
	for i, e := range echoes {
		if len(e.heard) != 2 {
			t.Errorf("node %d heard %v, want 2 messages", i, e.heard)
		}
		// Delivery is sorted by sender.
		for j := 1; j < len(e.heard); j++ {
			if e.heard[j] < e.heard[j-1] {
				t.Errorf("node %d inbox out of order: %v", i, e.heard)
			}
		}
	}
}

// violatorNode tries to message a non-neighbor.
type violatorNode struct{ sent bool }

func (n *violatorNode) Round(round int, inbox []Message) []Message {
	if !n.sent {
		n.sent = true
		return []Message{{From: 0, To: 1, Payload: intPayload(0)}}
	}
	return nil
}
func (n *violatorNode) Done() bool { return n.sent }

type idleNode struct{ rounds int }

func (n *idleNode) Round(round int, inbox []Message) []Message { n.rounds++; return nil }
func (n *idleNode) Done() bool                                 { return true }

func TestTopologyEnforced(t *testing.T) {
	nodes := []Node{&violatorNode{}, &idleNode{}}
	nw, err := New(nodes, [][]int{{}, {}}) // no links
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(5); err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("expected topology violation, got %v", err)
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	// A node that never finishes.
	n := &neverDone{}
	nw, err := New([]Node{n}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(7); err == nil || !strings.Contains(err.Error(), "7 rounds") {
		t.Fatalf("expected round-limit error, got %v", err)
	}
}

type neverDone struct{}

func (n *neverDone) Round(round int, inbox []Message) []Message { return nil }
func (n *neverDone) Done() bool                                 { return false }

func TestNewValidation(t *testing.T) {
	if _, err := New([]Node{&idleNode{}}, nil); err == nil {
		t.Error("mismatched topology rows accepted")
	}
	if _, err := New([]Node{&idleNode{}}, [][]int{{0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New([]Node{&idleNode{}}, [][]int{{5}}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

// chainNode forwards a token down a path; node i sends to i+1 when it
// receives the token (node 0 starts with it).
type chainNode struct {
	id, n    int
	received atomic.Bool
	lastSeen int
}

func (c *chainNode) Round(round int, inbox []Message) []Message {
	c.lastSeen = round
	if c.id == 0 && round == 0 {
		c.received.Store(true)
		return []Message{{From: 0, To: 1, Payload: intPayload(0)}}
	}
	for range inbox {
		c.received.Store(true)
		if c.id+1 < c.n {
			return []Message{{From: c.id, To: c.id + 1, Payload: intPayload(c.id)}}
		}
	}
	return nil
}

func (c *chainNode) Done() bool { return c.received.Load() }

func TestChainTakesLinearRounds(t *testing.T) {
	// Message latency is one round per hop: the token reaches node n-1 at
	// round n-1, demonstrating honest synchronous semantics.
	n := 10
	nodes := make([]Node, n)
	topo := make([][]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = &chainNode{id: i, n: n}
		if i > 0 {
			topo[i] = append(topo[i], i-1)
		}
		if i < n-1 {
			topo[i] = append(topo[i], i+1)
		}
	}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < n {
		t.Errorf("rounds = %d, want ≥ %d (one per hop)", stats.Rounds, n)
	}
	if stats.Messages != n-1 {
		t.Errorf("messages = %d, want %d", stats.Messages, n-1)
	}
	// Sends happen in rounds 0..n-2 and the last delivery lands in round
	// n-1, so exactly n rounds are busy.
	if stats.BusyRounds != n {
		t.Errorf("busy rounds = %d, want %d", stats.BusyRounds, n)
	}
}

func TestStatsSizes(t *testing.T) {
	topo := [][]int{{1}, {0}}
	a := &echoNode{id: 0, neighbors: []int{1}}
	b := &echoNode{id: 1, neighbors: []int{0}}
	nw, err := New([]Node{a, b}, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSize != 2 || stats.MaxMessageSize != 1 {
		t.Errorf("sizes = %+v, want total 2 max 1", stats)
	}
}

func TestRunTwiceFails(t *testing.T) {
	nw, err := New([]Node{&idleNode{}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(5); err == nil {
		t.Error("second Run should fail")
	}
}

// panicNode blows up in its second round.
type panicNode struct{ rounds int }

func (p *panicNode) Round(round int, inbox []Message) []Message {
	p.rounds++
	if p.rounds >= 2 {
		panic("injected fault")
	}
	return nil
}
func (p *panicNode) Done() bool { return false }

func TestNodePanicSurfacesAsError(t *testing.T) {
	nw, err := New([]Node{&panicNode{}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(10); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// errPanicNode panics with an error value in its second round, the way a
// protocol node reports a typed fault.
type errPanicNode struct{ rounds int }

var errInjected = errors.New("injected typed fault")

func (p *errPanicNode) Round(round int, inbox []Message) []Message {
	p.rounds++
	if p.rounds >= 2 {
		panic(errInjected)
	}
	return nil
}
func (p *errPanicNode) Done() bool { return false }

// TestNodeErrorPanicIsWrapped: on both drivers, a node that panics with an
// error value fails the run with an error that still matches that value.
func TestNodeErrorPanicIsWrapped(t *testing.T) {
	for _, batched := range []bool{false, true} {
		nw, err := New([]Node{ffWrap{&errPanicNode{}}}, [][]int{{}})
		if err != nil {
			t.Fatal(err)
		}
		if batched {
			_, err = nw.RunBatched(10, BatchConfig{})
		} else {
			_, err = nw.Run(10)
		}
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("batched=%v: want wrapped injected fault, got %v", batched, err)
		}
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		topo := [][]int{{1, 2}, {0, 2}, {0, 1}}
		nodes := make([]Node, 3)
		for i := range nodes {
			nodes[i] = &echoNode{id: i, neighbors: topo[i]}
		}
		nw, err := New(nodes, topo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}
