// Package exec is the shared execution core for bulk operations: it groups an
// operation's rows by bank (PlanAddrs), runs each bank's group on a bounded
// worker pool (RunPlan), and merges per-bank outcomes deterministically.  The
// direct operations (System.Apply, Copy, Fill, Func.Run, Maj) and Batch.Run
// all execute through it.
//
// Banks are independent in Ambit (Section 7: bank-level parallelism is where
// the 32x/35x throughput headline comes from), so trains on different banks
// may run concurrently; each bank's state is guarded by one shard lock held
// for the duration of the operation that touches it.
//
// Invariants the rest of the stack relies on:
//
//   - Determinism: RunPlan visits each bank's rows in index order on one
//     goroutine, and Result (completion time, completed count, first error)
//     is a pure fold over per-bank outcomes — the same inputs produce the
//     same Result regardless of worker interleaving.  Parallel execution is
//     therefore observationally equal to serial execution.
//   - Prefix semantics: a failing bank stops at its failing row; other
//     banks complete all of theirs.  Completed counts what actually ran.
//   - Lock discipline: LockBanks acquires shard locks in ascending bank
//     order (deadlock freedom); Util's collector is internally synchronized
//     and safe to feed from any worker.
package exec

import (
	"runtime"
	"sync"
)

// Engine owns the per-bank execution shards and the worker pool bound.
type Engine struct {
	shards  []sync.Mutex
	workers int
}

// New creates an engine for a device with the given bank count.  workers <= 0
// selects GOMAXPROCS.
func New(banks, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{shards: make([]sync.Mutex, banks), workers: workers}
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// SetWorkers overrides the worker-pool bound (test hook; <= 0 resets to
// GOMAXPROCS).  Not synchronized with running operations.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// LockBanks locks a set of bank shards in ascending order.  The slice must be
// sorted ascending and duplicate-free (Plan.Banks returns such a set).
func (e *Engine) LockBanks(banks []int) {
	for _, b := range banks {
		e.shards[b].Lock()
	}
}

// UnlockBanks releases LockBanks in reverse order.
func (e *Engine) UnlockBanks(banks []int) {
	for i := len(banks) - 1; i >= 0; i-- {
		e.shards[banks[i]].Unlock()
	}
}

// Group is the work of one operation on one bank: the row indices
// (positions in the address list the plan was built from, not DRAM rows)
// that live there.
type Group struct {
	Bank int
	Rows []int
}

// Result is the deterministic merge of a RunPlan.
type Result struct {
	// EndNS is the operation's completion time: the max of every
	// completed train's end time (0 when no row completed).
	EndNS float64
	// Completed counts rows whose trains finished.  On error, each bank
	// stops at its failing row but other banks run to completion, so
	// Completed can exceed the failing row's index.
	Completed int
	// Err is the failing row's error (the lowest-indexed one, if several
	// banks fail), nil on full success.
	Err error
	// ErrRow is the row index Err occurred on, -1 on success.
	ErrRow int
}
