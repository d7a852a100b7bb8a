// Package simnet simulates the synchronous message-passing model of
// distributed computing the paper assumes (§1): computation proceeds in
// rounds; in each round every processor receives the messages sent to it in
// the previous round, updates local state, and emits messages to processors
// it is directly connected to (in this problem: processors sharing an
// accessible network).
//
// Two drivers execute the same Node interface. The original one runs each
// processor as its own goroutine with the coordinator driving rounds over
// channels (Run); the batched scheduler (RunBatched, batched.go) buckets
// delivery per round and steps only the nodes that have mail or a
// spontaneous action, which is what makes million-node networks simulable.
// Delivery is deterministic under both: each recipient's inbox is appended
// per sender in ascending sender order, which IS the (sender, emission
// order) delivery order — no sort needed. Messages move through an explicit
// Transport seam (transport.go). The simulator counts rounds, messages and
// message sizes; local computation is free, exactly as in the model.
package simnet

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Payload is the content of a message. Size reports the abstract message
// size in units of M, the number of bits needed to encode one demand
// (§5 "Distributed Implementation" bounds every message by O(M)).
type Payload interface {
	Size() int
}

// Message is one message in flight.
type Message struct {
	From, To int
	Payload  Payload
}

// Node is a processor. Round is called once per synchronous round with the
// messages delivered this round and returns the messages to send (delivered
// next round). Done reports local termination; the network stops when every
// node is done and no messages are in flight.
//
// The goroutine driver calls a Node's methods from its own goroutine; the
// batched driver calls them from worker-pool lanes, one node at a time.
// Either way, nodes must not share mutable state. The inbox slice and its
// payloads are valid only for the duration of the Round call — the drivers
// pool delivery buffers across rounds.
type Node interface {
	Round(round int, inbox []Message) (outbox []Message)
	Done() bool
}

// StatsHistBuckets is the size of Stats' power-of-two histograms: bucket i
// counts observations v with 2^i ≤ v < 2^(i+1) (bucket 0 also takes v ≤ 1;
// the last bucket is unbounded above), so 20 buckets cover 1 through ~1M —
// the full range of the million-node runtime.
const StatsHistBuckets = 20

// Stats aggregates the run's communication costs. The histograms are plain
// fixed-size counters — deterministic functions of the executed schedule,
// like every other field — so both drivers must produce identical Stats
// including them, and the dist equivalence suites compare the whole struct.
type Stats struct {
	Rounds         int // synchronous rounds elapsed (including fast-forwarded idle rounds)
	SkippedRounds  int // idle rounds fast-forwarded rather than executed
	BusyRounds     int // rounds in which at least one message was delivered or sent
	Messages       int // total messages delivered
	TotalSize      int // sum of payload sizes (units of M)
	MaxMessageSize int // largest single payload

	// BusyNodeHist[i] counts busy rounds whose busy-node count — processors
	// that received or sent at least one message that round — fell in
	// power-of-two bucket i; its entries sum to BusyRounds. The shape
	// distinguishes a schedule trickling through a few hot processors from
	// genuinely wide rounds.
	BusyNodeHist [StatsHistBuckets]int
	// MsgSizeHist[i] counts delivered messages whose payload size (units of
	// M) fell in bucket i; its entries sum to Messages.
	MsgSizeHist [StatsHistBuckets]int
}

// HistBucket returns the power-of-two bucket of v under the Stats
// histogram scheme: floor(log2(v)) clamped to [0, StatsHistBuckets).
//
//schedvet:hot
func HistBucket(v int) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len(uint(v)) - 1
	if b >= StatsHistBuckets {
		b = StatsHistBuckets - 1
	}
	return b
}

// FastForwarder is an optional Node extension (mandatory for the batched
// driver). When a round moves no messages, the coordinator may skip ahead to
// the earliest round at which some node would act spontaneously (send
// without first receiving). A node returns the earliest such future round
// (> now), or -1 if it will never act again unless a message arrives.
// Skipped rounds are counted in Stats.Rounds/SkippedRounds but not executed;
// this is a pure simulation acceleration — the synchronous schedule is
// unchanged because idle processors neither send nor mutate shared state.
//
// The batched driver additionally relies on the answer being stable while
// the node is idle: NextActiveRound must be a pure function of the node's
// frozen state, so that the value recorded when the node was last stepped
// stays valid until mail or its own round arrives.
type FastForwarder interface {
	NextActiveRound(now int) int
}

// Network couples nodes with a communication topology.
type Network struct {
	nodes    []Node
	nbrs     [][]int // topology: sorted neighbor ids per node
	handles  []nodeHandle
	started  bool
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type roundInput struct {
	round int
	inbox []Message
}

type roundOutput struct {
	outbox []Message
	done   bool
	next   int   // NextActiveRound answer (batched driver); -1 = never
	err    error // non-nil if the node panicked
}

type nodeHandle struct {
	in  chan roundInput
	out chan roundOutput
}

// New builds a network of nodes with the given topology (adjacency lists;
// symmetric is expected but not required). Nodes may only send to their
// topology neighbors; violations fail the run. The rows are copied and
// sorted so membership tests run by binary search — no per-node maps.
func New(nodes []Node, topology [][]int) (*Network, error) {
	if len(topology) != len(nodes) {
		return nil, fmt.Errorf("simnet: %d nodes but %d topology rows", len(nodes), len(topology))
	}
	nw := &Network{nodes: nodes, nbrs: make([][]int, len(nodes))}
	for i, nbrs := range topology {
		for _, j := range nbrs {
			if j < 0 || j >= len(nodes) {
				return nil, fmt.Errorf("simnet: node %d lists invalid neighbor %d", i, j)
			}
			if j == i {
				return nil, fmt.Errorf("simnet: node %d lists itself as neighbor", i)
			}
		}
		row := slices.Clone(nbrs)
		slices.Sort(row)
		nw.nbrs[i] = row
	}
	return nw, nil
}

// allowedTo reports whether i may send to j: binary search of i's sorted
// neighbor row.
//
//schedvet:hot
func (nw *Network) allowedTo(i, j int) bool {
	row := nw.nbrs[i]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == j
}

// start launches one goroutine per node.
func (nw *Network) start() {
	nw.handles = make([]nodeHandle, len(nw.nodes))
	for i := range nw.nodes {
		h := nodeHandle{in: make(chan roundInput, 1), out: make(chan roundOutput, 1)}
		nw.handles[i] = h
		node := nw.nodes[i]
		nodeID := i
		nw.wg.Add(1)
		go func() {
			defer nw.wg.Done()
			for input := range h.in {
				h.out <- safeRound(nodeID, node, input)
			}
		}()
	}
	nw.started = true
}

// safeRound invokes one node round, converting a panic into an error so a
// faulty node fails the run instead of deadlocking the coordinator.
func safeRound(id int, node Node, input roundInput) (out roundOutput) {
	defer func() {
		if r := recover(); r != nil {
			out = roundOutput{err: panicError(id, input.round, r)}
		}
	}()
	outbox := node.Round(input.round, input.inbox)
	return roundOutput{outbox: outbox, done: node.Done()}
}

// panicError converts a recovered node panic into the run's error. Error
// values are wrapped with %w, so callers can match a typed fault (such as
// dist's Luby-budget overrun) with errors.As.
func panicError(id, round int, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("simnet: node %d panicked in round %d: %w", id, round, err)
	}
	return fmt.Errorf("simnet: node %d panicked in round %d: %v", id, round, r)
}

// stop closes the node channels and waits for the goroutines to exit.
func (nw *Network) stop() {
	nw.stopOnce.Do(func() {
		for i := range nw.handles {
			close(nw.handles[i].in)
		}
		nw.wg.Wait()
	})
}

// Run executes rounds on the goroutine driver until every node reports Done
// and no messages are in flight, or maxRounds elapses (an error). It returns
// the communication statistics. Kept as the cross-check against RunBatched:
// same nodes, same Stats, radically different execution.
func (nw *Network) Run(maxRounds int) (Stats, error) {
	if nw.started {
		return Stats{}, fmt.Errorf("simnet: network already run")
	}
	nw.start()
	defer nw.stop()

	var stats Stats
	tr := NewMemTransport(nw.nbrs)
	inboxBusy := make([]bool, len(nw.nodes))
	for round := 0; ; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("simnet: exceeded %d rounds without termination", maxRounds)
		}
		stats.Rounds++
		busy := false
		busyNodes := 0
		for i := range nw.nodes {
			inbox := tr.Inbox(i)
			inboxBusy[i] = len(inbox) > 0
			if inboxBusy[i] {
				busy = true
				busyNodes++
			}
			nw.handles[i].in <- roundInput{round: round, inbox: inbox}
		}
		allDone := true
		sent := 0
		var nodeErr error
		for i := range nw.nodes {
			out := <-nw.handles[i].out
			if out.err != nil && nodeErr == nil {
				nodeErr = out.err
			}
			if !out.done {
				allDone = false
			}
			// Committing outboxes in ascending node order makes each
			// recipient's inbox sorted by (sender, emission order) by
			// construction — the delivery-determinism invariant, formerly
			// restored by a per-round sort, is now a property of this loop.
			for _, m := range out.outbox {
				if m.From != i {
					return stats, fmt.Errorf("simnet: node %d forged sender %d", i, m.From)
				}
				if !nw.allowedTo(i, m.To) {
					return stats, fmt.Errorf("simnet: node %d sent to non-neighbor %d", i, m.To)
				}
				if m.Payload == nil {
					return stats, fmt.Errorf("simnet: node %d sent nil payload", i)
				}
				tr.Send(m)
				sent++
				size := m.Payload.Size()
				stats.TotalSize += size
				stats.MsgSizeHist[HistBucket(size)]++
				if size > stats.MaxMessageSize {
					stats.MaxMessageSize = size
				}
			}
			if len(out.outbox) > 0 && !inboxBusy[i] {
				busyNodes++
			}
		}
		if nodeErr != nil {
			return stats, nodeErr
		}
		stats.Messages += sent
		if sent > 0 {
			busy = true
		}
		if busy {
			stats.BusyRounds++
			stats.BusyNodeHist[HistBucket(busyNodes)]++
		}
		tr.Flip()
		if allDone && sent == 0 {
			return stats, nil
		}
		if !busy {
			skip, err := nw.fastForward(round)
			if err != nil {
				return stats, err
			}
			if skip > 0 {
				stats.Rounds += skip
				stats.SkippedRounds += skip
				round += skip
			}
		}
	}
}

// fastForward returns how many idle rounds after `round` can be skipped, or
// an error if no node will ever act again (deadlock). It returns 0 when any
// node does not support fast-forwarding or wants the very next round.
func (nw *Network) fastForward(round int) (int, error) {
	earliest := -1
	for _, n := range nw.nodes {
		ff, ok := n.(FastForwarder)
		if !ok {
			return 0, nil
		}
		next := ff.NextActiveRound(round)
		if next < 0 {
			continue
		}
		if next <= round {
			return 0, fmt.Errorf("simnet: node reported non-future active round %d at round %d", next, round)
		}
		if earliest == -1 || next < earliest {
			earliest = next
		}
	}
	if earliest == -1 {
		return 0, fmt.Errorf("simnet: deadlock at round %d: no messages in flight and no node will act", round)
	}
	return earliest - round - 1, nil
}

// Broadcast builds messages from one sender to each listed neighbor with a
// shared payload.
func Broadcast(from int, neighbors []int, p Payload) []Message {
	out := make([]Message, 0, len(neighbors))
	for _, to := range neighbors {
		out = append(out, Message{From: from, To: to, Payload: p})
	}
	return out
}
