package main

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"syscall"
	"unsafe"

	treesched "treesched"
	"treesched/internal/dual"
)

// ledgerChunk is the int64 capacity of one ledger chunk (8 MiB).
const ledgerChunk = 1 << 20

// ledger is an append-only store of int64 records. Everything the
// benchmark keeps from a measured phase — latencies, results to verify,
// churn bookkeeping — lives in ledgers, whose chunks are mapped outside the
// Go heap: what the benchmark keeps neither counts in the memory metrics
// nor moves the collector's pacing, which follows the live heap. Safe for
// concurrent use; close releases the mappings.
type ledger struct {
	mu     sync.Mutex
	chunks [][]int64
	maps   [][]byte
	err    error
}

// add appends one record.
func (l *ledger) add(rec ...int64) {
	l.write(len(rec), func(dst []int64) { copy(dst, rec) })
}

// write appends a record of n words, filled in place by fill. A record the
// ledger cannot map memory for is dropped and reported by close.
func (l *ledger) write(n int, fill func(rec []int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.chunks) == 0 || cap(l.chunks[len(l.chunks)-1])-len(l.chunks[len(l.chunks)-1]) < n+1 {
		mem, err := syscall.Mmap(-1, 0, 8*max(ledgerChunk, n+1),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			l.err = cmp.Or(l.err, fmt.Errorf("ledger: map %d bytes: %w", 8*max(ledgerChunk, n+1), err))
			return
		}
		l.maps = append(l.maps, mem)
		l.chunks = append(l.chunks, unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), len(mem)/8)[:0])
	}
	c := &l.chunks[len(l.chunks)-1]
	at := len(*c)
	*c = (*c)[:at+1+n]
	(*c)[at] = int64(n)
	fill((*c)[at+1:])
}

// each replays the records in insertion order.
func (l *ledger) each(fn func(rec []int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.chunks {
		for i := 0; i < len(c); {
			n := int(c[i])
			fn(c[i+1 : i+1+n])
			i += 1 + n
		}
	}
}

// close unmaps the ledger's chunks and reports any record it dropped.
func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.err
	for _, m := range l.maps {
		err = cmp.Or(err, syscall.Munmap(m))
	}
	l.chunks, l.maps = nil, nil
	return err
}

// resultLog keeps what verification needs from every operation — a key,
// the claimed profit and dual bound, and the assignments — so results are
// checked after the measured phase instead of inside it.
type resultLog struct{ ledger }

// add records one result under key: key, profit and bound bits, then a
// demand, network pair per assignment.
func (l *resultLog) add(key int, res *treesched.Result) {
	l.write(3+2*len(res.Assignments), func(rec []int64) {
		rec[0] = int64(key)
		rec[1] = int64(math.Float64bits(res.Profit))
		rec[2] = int64(math.Float64bits(res.DualBound))
		for i, a := range res.Assignments {
			rec[3+2*i], rec[4+2*i] = int64(a.Demand), int64(a.Network)
		}
	})
}

// each replays the logged results in insertion order. The Result handed
// to fn is reused between calls.
func (l *resultLog) each(fn func(key int, res *treesched.Result)) {
	res := &treesched.Result{}
	l.ledger.each(func(rec []int64) {
		res.Profit = math.Float64frombits(uint64(rec[1]))
		res.DualBound = math.Float64frombits(uint64(rec[2]))
		res.Assignments = res.Assignments[:0]
		for i := 3; i < len(rec); i += 2 {
			res.Assignments = append(res.Assignments, treesched.Assignment{Demand: int(rec[i]), Network: int(rec[i+1])})
		}
		fn(int(rec[0]), res)
	})
}

// checkCertificate checks what Verify does not: the Result claims a
// positive profit, that profit is the sum of the scheduled demands'
// profits, and it does not exceed the certified DualBound (weak duality),
// each within dual.Tolerance.
func checkCertificate(res *treesched.Result, profitOf func(demand int) float64) error {
	if !(res.Profit > 0) {
		return fmt.Errorf("non-positive profit %v", res.Profit)
	}
	sum := 0.0
	for _, a := range res.Assignments {
		sum += profitOf(a.Demand)
	}
	if math.Abs(sum-res.Profit) > dual.Tolerance*res.Profit {
		return fmt.Errorf("claimed profit %v, scheduled demands sum to %v", res.Profit, sum)
	}
	if res.Profit > res.DualBound*(1+dual.Tolerance) {
		return fmt.Errorf("profit %v exceeds dual bound %v", res.Profit, res.DualBound)
	}
	return nil
}
