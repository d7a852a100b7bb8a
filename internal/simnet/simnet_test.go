package simnet

import (
	"errors"
	"reflect"
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

// TestRoundTripDelivery: on a complete graph every inbox arrives in
// ascending sender order for any stepping pool size, and the exchange
// spans a send round and a receive round.
func TestRoundTripDelivery(t *testing.T) {
	const n = 5
	for _, workers := range []int{1, 4} {
		topo := make([][]int, n)
		nodes := make([]Node, n)
		echoes := make([]*ffEcho, n)
		for i := range nodes {
			for j := 0; j < n; j++ {
				if j != i {
					topo[i] = append(topo[i], j)
				}
			}
			echoes[i] = &ffEcho{echoNode{id: i, neighbors: topo[i]}}
			nodes[i] = echoes[i]
		}
		nw, err := New(nodes, topo)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := nw.RunBatched(10, BatchConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages != n*(n-1) {
			t.Errorf("workers=%d: messages = %d, want %d", workers, stats.Messages, n*(n-1))
		}
		if stats.Rounds < 2 {
			t.Errorf("workers=%d: rounds = %d, want ≥ 2", workers, stats.Rounds)
		}
		for i, e := range echoes {
			want := make([]int, 0, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					want = append(want, j)
				}
			}
			if !reflect.DeepEqual(e.heard, want) {
				t.Errorf("workers=%d: node %d heard %v, want %v", workers, i, e.heard, want)
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

// forgerNode sends once, either under another node's id or with a nil
// payload, to its one neighbor.
type forgerNode struct {
	nilPayload bool
	sent       bool
}

func (n *forgerNode) Round(round int, inbox []Message) []Message {
	if n.sent {
		return nil
	}
	n.sent = true
	if n.nilPayload {
		return []Message{{From: 0, To: 1}}
	}
	return []Message{{From: 1, To: 1, Payload: intPayload(0)}}
}
func (n *forgerNode) Done() bool { return n.sent }

// TestTopologyEnforced covers the message checks other than the neighbor
// rule (TestBatchedTopologyEnforced): a forged sender and a nil payload
// fail the run.
func TestTopologyEnforced(t *testing.T) {
	for _, tc := range []struct {
		nilPayload bool
		want       string
	}{{false, "forged sender"}, {true, "nil payload"}} {
		nodes := []Node{ffWrap{&forgerNode{nilPayload: tc.nilPayload}}, ffWrap{&idleNode{}}}
		nw, err := New(nodes, [][]int{{1}, {0}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.RunBatched(5, BatchConfig{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want %q error, got %v", tc.want, err)
		}
	}
}

// TestMaxRoundsExceeded: the round limit also holds across a fast-forward,
// when the next active round lies beyond it.
func TestMaxRoundsExceeded(t *testing.T) {
	nw, err := New([]Node{&sleeperNode{id: 0, wake: 1000, peer: -1}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunBatched(100, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "100 rounds") {
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
		nodes[i] = ffWrap{&chainNode{id: i, n: n}}
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
	stats, err := nw.RunBatched(50, BatchConfig{})
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
	a := &ffEcho{echoNode{id: 0, neighbors: []int{1}}}
	b := &ffEcho{echoNode{id: 1, neighbors: []int{0}}}
	nw, err := New([]Node{a, b}, topo)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.RunBatched(10, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSize != 2 || stats.MaxMessageSize != 1 {
		t.Errorf("sizes = %+v, want total 2 max 1", stats)
	}
}

// TestRunTwiceFails: a run that failed still counts as the network's one
// run.
func TestRunTwiceFails(t *testing.T) {
	nw, err := New([]Node{ffWrap{&neverDone{}}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunBatched(3, BatchConfig{}); err == nil {
		t.Fatal("endless node finished")
	}
	if _, err := nw.RunBatched(3, BatchConfig{}); err == nil || !strings.Contains(err.Error(), "already run") {
		t.Errorf("second run after a failure: got %v", err)
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

// TestNodePanicSurfacesAsError: a node panicking in a pool lane, on a
// network wide enough to fan out, fails the run instead of the process.
func TestNodePanicSurfacesAsError(t *testing.T) {
	const n = 4 * stepGrain
	nodes := make([]Node, n)
	topo := make([][]int, n)
	for i := range nodes {
		nodes[i] = ffWrap{&neverDone{}}
	}
	nodes[n-1] = ffWrap{&panicNode{}}
	nw, err := New(nodes, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunBatched(10, BatchConfig{Workers: 4}); err == nil || !strings.Contains(err.Error(), "panicked") {
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

// TestNodeErrorPanicIsWrapped: a node that panics with an error value
// fails the run with an error that still matches that value.
func TestNodeErrorPanicIsWrapped(t *testing.T) {
	nw, err := New([]Node{ffWrap{&errPanicNode{}}}, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = nw.RunBatched(10, BatchConfig{})
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want wrapped injected fault, got %v", err)
	}
}

// TestNoGoroutineLeaks: the stepping pool's workers exit with the run, on
// networks wide enough that every round fans out.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		const n = 4 * stepGrain
		nodes := make([]Node, n)
		topo := make([][]int, n)
		for i := 0; i < n; i += 2 {
			nodes[i] = &ffEcho{echoNode{id: i, neighbors: []int{i + 1}}}
			nodes[i+1] = &ffEcho{echoNode{id: i + 1, neighbors: []int{i}}}
			topo[i], topo[i+1] = []int{i + 1}, []int{i}
		}
		nw, err := New(nodes, topo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.RunBatched(10, BatchConfig{Workers: 4}); err != nil {
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
