package exec

// Zero-allocation plan/runner dispatch:
//
//   - A Plan is a pooled, pre-partitioned view of one operation's rows
//     grouped by bank (a count-sort into recycled backing arrays — no
//     per-operation allocation in steady state).
//   - A GroupRunner executes one whole bank group at a time, which lets
//     callers batch all of a bank's rows into a single fused evaluation
//     (see controller.ExecuteOpRowsFused) instead of row-at-a-time calls.
//   - RunPlan distributes groups over a package-global pool of persistent
//     worker goroutines (parked on a channel, spawned lazily, never more
//     than max(NumCPU, GOMAXPROCS)); enqueueing work is a channel send, so
//     the steady-state parallel dispatch allocates nothing either.
//
// Each group runs on one goroutine with rows in ascending index order,
// results land in pre-sized slots, and the fold picks the lowest-indexed
// failing row.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ambit/internal/dram"
)

// GroupResult is the outcome of running one bank group.
type GroupResult struct {
	// EndNS is the max completion time over the group's completed rows.
	EndNS float64
	// Completed counts rows that finished (the group stops at its first
	// failing row — prefix semantics within the bank).
	Completed int
	// Err is the failing row's error, nil on success.
	Err error
	// ErrRow is the operation-level row index Err occurred on, -1 on
	// success.
	ErrRow int
}

// GroupRunner executes one bank group of an operation.  RunPlan calls
// RunGroup at most once per bank per plan, from at most one goroutine per
// group; implementations may keep per-call scratch in pools but must not
// share mutable state across concurrent groups.
type GroupRunner interface {
	RunGroup(bank int, rows []int) GroupResult
}

// Plan is a pooled bank partition of one operation's rows.  Obtain one with
// PlanAddrs, run it with RunPlan, and return it with Release.
type Plan struct {
	groups  []Group
	banks   []int
	rowIdx  []int // dense backing for every group's Rows slice
	counts  []int // per-bank scratch, len == bank count of the engine
	results []GroupResult
	rs      runState
}

var planPool = sync.Pool{New: func() any { return new(Plan) }}

// PlanAddrs partitions row indices 0..len(addrs)-1 by addrs[i].Bank into a
// pooled Plan.  Groups come out in ascending bank order with rows ascending
// within each group — the sequential iteration order, which keeps per-bank
// Reserve chains bit-identical to serial execution.
func (e *Engine) PlanAddrs(addrs []dram.PhysAddr) *Plan {
	p := planPool.Get().(*Plan)
	nb := len(e.shards)
	if cap(p.counts) < nb {
		p.counts = make([]int, nb)
	}
	p.counts = p.counts[:nb]
	for i := range p.counts {
		p.counts[i] = 0
	}
	for i := range addrs {
		p.counts[addrs[i].Bank]++
	}
	p.banks = p.banks[:0]
	for b, n := range p.counts {
		if n > 0 {
			p.banks = append(p.banks, b)
		}
	}
	if cap(p.rowIdx) < len(addrs) {
		p.rowIdx = make([]int, 0, len(addrs))
	}
	p.rowIdx = p.rowIdx[:0]
	if cap(p.groups) < len(p.banks) {
		p.groups = make([]Group, 0, len(p.banks))
	}
	p.groups = p.groups[:len(p.banks)]
	off := 0
	for gi, b := range p.banks {
		n := p.counts[b]
		p.groups[gi] = Group{Bank: b, Rows: p.rowIdx[off : off : off+n]}
		p.counts[b] = gi // reuse counts as bank -> group index map
		off += n
	}
	p.rowIdx = p.rowIdx[:off]
	for i := range addrs {
		gi := p.counts[addrs[i].Bank]
		g := &p.groups[gi]
		g.Rows = append(g.Rows, i)
	}
	if cap(p.results) < len(p.groups) {
		p.results = make([]GroupResult, len(p.groups))
	}
	p.results = p.results[:len(p.groups)]
	return p
}

// PlanStream returns a pooled Plan holding row indices 0..n-1 as one group
// bound to no bank (Group.Bank is -1): RunPlan runs them in ascending order
// on the calling goroutine, and Banks is empty, so there are no shards to
// lock.  It serves work whose rows may each touch two banks — a cross-bank
// RowClone copy — for which the caller must hold exclusive access to the
// device instead.
func (e *Engine) PlanStream(n int) *Plan {
	p := planPool.Get().(*Plan)
	p.banks = p.banks[:0]
	if cap(p.rowIdx) < n {
		p.rowIdx = make([]int, n)
	}
	p.rowIdx = p.rowIdx[:n]
	for i := range p.rowIdx {
		p.rowIdx[i] = i
	}
	p.groups = append(p.groups[:0], Group{Bank: -1, Rows: p.rowIdx})
	if cap(p.results) < 1 {
		p.results = make([]GroupResult, 1)
	}
	p.results = p.results[:1]
	return p
}

// Banks returns the plan's ascending, duplicate-free bank set, in the form
// LockBanks expects.  The slice is owned by the plan.
func (p *Plan) Banks() []int { return p.banks }

// Release returns the plan to the pool.  The caller must not use the plan —
// or any slice obtained from it — afterwards.
func (p *Plan) Release() {
	p.rs.runner = nil
	p.rs.groups = nil
	p.rs.results = nil
	planPool.Put(p)
}

// RunPlan executes every group of the plan through r — rows ascending within
// a group, groups concurrently on up to min(Workers, len(groups)) goroutines
// from the shared worker pool — and merges the outcome: the latest EndNS,
// the total Completed, and the error of the lowest failing row.  The plan
// partitions work by whole groups, so no two goroutines touch the same bank;
// the caller must keep every other user off the plan's banks for the call,
// by holding their shards (LockBanks(p.Banks())) or exclusive access to the
// device.
func (e *Engine) RunPlan(p *Plan, r GroupRunner) Result {
	res := Result{ErrRow: -1}
	if len(p.groups) == 0 {
		return res
	}
	rs := &p.rs
	rs.runner = r
	rs.groups = p.groups
	rs.results = p.results
	rs.next.Store(0)

	if w := min(e.workers, len(p.groups)); w <= 1 {
		rs.drain()
	} else {
		ensureWorkers(w - 1)
		for i := 0; i < w-1; i++ {
			rs.wg.Add(1)
			select {
			case workerPool.work <- rs:
			default:
				// Pool queue full: the caller's own drain covers the work.
				rs.wg.Done()
			}
		}
		rs.drain() // the caller participates
		rs.wg.Wait()
	}

	for i := range p.results {
		gr := &p.results[i]
		if gr.EndNS > res.EndNS {
			res.EndNS = gr.EndNS
		}
		res.Completed += gr.Completed
		if gr.Err != nil && (res.Err == nil || gr.ErrRow < res.ErrRow) {
			res.Err, res.ErrRow = gr.Err, gr.ErrRow
		}
	}
	return res
}

// runState is the shared claim-a-group state of one RunPlan call.  Workers
// that pick it up after the caller has already drained every group simply
// find next >= len(groups) and return; wg.Wait only returns once every
// enqueued pickup has run, so the plan cannot be released while a worker
// still holds it.
type runState struct {
	next    atomic.Int64
	wg      sync.WaitGroup
	runner  GroupRunner
	groups  []Group
	results []GroupResult
}

// drain claims groups until none remain, running each on this goroutine.
func (rs *runState) drain() {
	for {
		gi := int(rs.next.Add(1)) - 1
		if gi >= len(rs.groups) {
			return
		}
		g := rs.groups[gi]
		rs.results[gi] = rs.runner.RunGroup(g.Bank, g.Rows)
	}
}

// workerPool is the package-global pool of persistent helper goroutines
// shared by every Engine.  Workers park on the buffered work channel and
// never exit, so spawning cost is paid at most max(NumCPU, GOMAXPROCS)
// times per process regardless of how many Systems are created.
var workerPool = struct {
	mu      sync.Mutex
	spawned int
	work    chan *runState
}{work: make(chan *runState, 256)}

// ensureWorkers lazily spawns pool workers up to the process-wide cap.
func ensureWorkers(n int) {
	limit := max(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if n > limit {
		n = limit
	}
	workerPool.mu.Lock()
	for workerPool.spawned < n {
		workerPool.spawned++
		go poolWorker()
	}
	workerPool.mu.Unlock()
}

func poolWorker() {
	for rs := range workerPool.work {
		rs.drain()
		rs.wg.Done()
	}
}
