package ambit

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/exec"
	"ambit/internal/fault"
	"ambit/internal/obs"
)

// One row executor for every operation.  A direct operation (Apply, Copy,
// Fill, Func.Run, Maj) and a Batch.Run stream both describe an operation by
// an opRecord and run its rows through System.runRows, the one set of
// per-kind row bodies: consecutive same-opcode bulk rows on one bank
// coalesce into a single controller.ExecuteOpRowsFused call — one
// word-parallel pass, one device stats commit, one controller stats lock —
// unless ECC is on, with ExecuteOp or execRowReliable one row at a time as
// the exact-semantics fallback (traced runs, ECC, armed fault models,
// ineligible operands).  The two routes differ only in how a completed row
// is booked (rowBooker).  A direct op's opRunner books each row at once: it
// reserves the bank's timeline from the operation's start, accounts
// reliability into the ledger (stats.go) under statsMu, and sums a tagged
// op's per-bank busy time for dispatch to commit.  A Batch's batchStreams
// stores per-item latencies and reliability outcomes for the deterministic
// timing phase.  Both implement exec.GroupRunner with pointer receivers and
// no closures: closures capture, captures allocate, and the direct-op hot
// path must not.
//
// Scratch slices (operand address buffers, train lists) come from pools and
// are claimed per runRows call, never shared across the concurrently
// running groups of one plan; the runner itself is read-only while its plan
// runs, apart from the busy sums, where each bank group writes only its own
// bank's entry.

// opKind selects an operation's row body.
type opKind uint8

const (
	opBulk opKind = iota
	opCopy
	opFill
	opFunc
	opMaj
	opPopcount
)

// opRecord is one operation's operands.  dst/a/b follow the direct-call
// roles: bulk ops use all three (b nil for unary), Copy uses dst/a
// (destination/source), Fill uses dst and fill, Maj uses dst/srcs, and
// Popcount uses a and result.  Compiled-function calls use fn/dsts/srcs.
type opRecord struct {
	kind   opKind
	op     controller.Op
	dst    *Bitvector
	a, b   *Bitvector
	fill   bool
	fn     *Func
	dsts   []*Bitvector
	srcs   []*Bitvector
	result *PopcountResult
}

// itemRows returns the rows that key the op's row-level work: the rows
// whose banks run it.
func (o *opRecord) itemRows() []dram.PhysAddr {
	switch o.kind {
	case opPopcount:
		return o.a.rows
	case opFunc:
		return o.dsts[0].rows
	}
	return o.dst.rows
}

// rows returns how many rows the op touches.
func (o *opRecord) rows() int { return len(o.itemRows()) }

// label names the op in row errors: "ambit: <label> row N: ...".
func (o *opRecord) label() string {
	switch o.kind {
	case opBulk:
		return o.op.String()
	case opCopy:
		return "Copy"
	case opFill:
		return "Fill"
	case opFunc:
		return "func " + o.fn.name
	case opMaj:
		return "Maj"
	}
	return "Popcount"
}

// spanName is the op's metric and span label, the same on both routes so
// their observations merge.
func (o *opRecord) spanName() string {
	switch o.kind {
	case opBulk:
		return o.op.String()
	case opCopy:
		return "copy"
	case opFill:
		return "fill"
	case opFunc:
		return "func:" + o.fn.name
	case opMaj:
		return "maj"
	}
	return "popcount"
}

// coherenceRows returns how many cached rows must be flushed or invalidated
// before the op may touch DRAM (DESIGN.md "Coherence model"): bulk ops and
// compiled functions flush their source rows (destination invalidation
// hides behind the B-group staging), Maj charges its k sources plus the
// destination, Copy flushes sources and invalidates destinations, Fill
// invalidates destinations, and Popcount is an ordinary cached read.
func (o *opRecord) coherenceRows() int64 {
	n := int64(o.rows())
	switch o.kind {
	case opBulk:
		return n * int64(o.op.InputRows())
	case opCopy:
		return 2 * n
	case opFill:
		return n
	case opFunc:
		return n * int64(o.fn.c.NumInputs)
	case opMaj:
		return n * int64(len(o.srcs)+1)
	}
	return 0
}

// train returns a bulk op's operand rows for one row (DJ is zero for a
// unary op).
func (o *opRecord) train(row int) controller.RowTrain {
	da := o.dst.rows[row]
	t := controller.RowTrain{Sub: da.Subarray, DK: da.Row, DI: o.a.rows[row].Row}
	if !o.op.Unary() {
		t.DJ = o.b.rows[row].Row
	}
	return t
}

// countOpLocked adds rows completed rows of o to the ledger — the System's
// counters and, for a tagged op, its tenant's t (nil when untagged) — and o
// itself when it completed.  Popcount rows count nothing here: the timing
// phase charges their channel bytes.  The caller holds statsMu, or execMu
// exclusively.
func (s *System) countOpLocked(t *Stats, o *opRecord, rows int, done bool) {
	for _, st := range [...]*Stats{&s.stats, t} {
		if st == nil {
			continue
		}
		switch o.kind {
		case opCopy, opFill:
			st.Copies += int64(rows)
		case opPopcount:
		default:
			st.RowOps += int64(rows)
		}
		switch {
		case !done:
		case o.kind == opBulk:
			st.BulkOps[o.op]++
		case o.kind == opFunc:
			st.FuncOps++
		case o.kind == opMaj:
			st.MajOps++
		}
	}
}

// countUncorrectableLocked records one row whose TMR retry budget ran out,
// in the System's ledger and tenant t's (nil when untagged).  The caller
// holds statsMu.
func (s *System) countUncorrectableLocked(t *Stats) {
	s.stats.UncorrectableRows++
	if t != nil {
		t.UncorrectableRows++
	}
}

// reserveRow books one row train of latency lat on bank from start: it
// reserves the bank's timeline, records the busy interval for the
// utilization collector (present only with a telemetry server), and returns
// the train's completion time.
func (s *System) reserveRow(bank int, start, lat float64) float64 {
	done := s.dev.Bank(bank).Reserve(start, lat)
	if s.util != nil {
		s.util.Record(bank, done-lat, done)
	}
	return done
}

// rowBooker is what runRows needs from its caller.  A stream index i names
// one row of one operation: at returns them, bookRow books the row's
// completed train of latency lat on bank and returns its completion time,
// and bookReliable takes the TMR outcome of a bulk row at addr under ECC
// (booked whether or not the row failed).
type rowBooker interface {
	at(i int) (op *opRecord, row int)
	bookRow(i, bank int, lat float64) float64
	bookReliable(i int, addr dram.PhysAddr, rr controller.RowResult)
}

// trainPool recycles the per-run RowTrain scratch of the multi-row fused
// dispatch.
var trainPool = sync.Pool{New: func() any { return new([]controller.RowTrain) }}

// rowAddrPool recycles the per-call operand-address scratch of maj and
// compiled-func rows.
var rowAddrPool = sync.Pool{New: func() any { return new([]dram.RowAddr) }}

// runRows executes one group of a plan: the stream indices idx in
// ascending order, each one row of st's operations, stopping at the first
// failing row (the prefix semantics internal/exec documents).  Its result
// carries the unwrapped error and the failing stream index, the rows
// completed, and the latest completion time bookRow returned.  A run of
// consecutive same-opcode bulk rows on one bank goes to the fused dispatch
// once; if it declines, each of those rows runs on its own.
func (s *System) runRows(idx []int, ss *obs.ShardSet, st rowBooker) exec.GroupResult {
	res := exec.GroupResult{ErrRow: -1}
	ecc := s.cfg.Reliability.ECC
	bp := rowAddrPool.Get().(*[]dram.RowAddr)
	buf := *bp
	offered := 0 // idx[:offered] has been offered to the fused dispatch
	for k := 0; k < len(idx); k++ {
		i := idx[k]
		o, row := st.at(i)
		addr := o.itemRows()[row]
		if o.kind == opBulk && !ecc && k >= offered {
			tp := trainPool.Get().(*[]controller.RowTrain)
			trains := (*tp)[:0]
			j := k
			for ; j < len(idx); j++ {
				n, nr := st.at(idx[j])
				if n.kind != opBulk || n.op != o.op || n.dst.rows[nr].Bank != addr.Bank {
					break
				}
				trains = append(trains, n.train(nr))
			}
			lat, ok := s.ctrl.ExecuteOpRowsFused(o.op, addr.Bank, trains)
			*tp = trains[:0]
			trainPool.Put(tp)
			if ok {
				for _, ii := range idx[k:j] {
					res.Completed++
					res.EndNS = max(res.EndNS, st.bookRow(ii, addr.Bank, lat))
				}
				k = j - 1
				continue
			}
			offered = j
		}
		ss.SetRow(addr.Bank, i)
		var lat float64
		var err error
		switch o.kind {
		case opBulk:
			t := o.train(row)
			if ecc {
				var rr controller.RowResult
				rr, err = s.execRowReliable(o.op, addr, t.DI, t.DJ)
				st.bookReliable(i, addr, rr)
				lat = rr.LatencyNS
			} else {
				lat, err = s.ctrl.ExecuteOp(o.op, addr.Bank, t.Sub, t.DK, t.DI, t.DJ)
			}
		case opCopy:
			_, lat, err = s.rc.Copy(o.a.rows[row], addr)
		case opFill:
			if o.fill {
				lat, err = s.rc.InitOne(addr.Bank, addr.Subarray, addr.Row)
			} else {
				lat, err = s.rc.InitZero(addr.Bank, addr.Subarray, addr.Row)
			}
		case opFunc:
			n := o.fn.c.NumInputs + o.fn.c.NumOutputs
			if cap(buf) < n {
				buf = make([]dram.RowAddr, n)
			}
			buf = buf[:n]
			fillFuncRow(o.fn, o.dsts, o.srcs, row, buf)
			lat, err = s.ctrl.ExecuteTrain(o.fn.c.Train, addr.Bank, addr.Subarray, buf)
		case opMaj:
			buf = buf[:0]
			for _, v := range o.srcs {
				buf = append(buf, v.rows[row].Row)
			}
			lat, err = s.ctrl.ExecuteMaj(addr.Bank, addr.Subarray, addr.Row, buf, s.majScratchBase, s.majW)
		case opPopcount:
			// A CPU-side read: it books no train time (lat stays 0).
			var pc int64
			pc, err = s.dev.PopcountRow(addr)
			o.result.n.Add(pc)
		}
		if err != nil {
			res.Err, res.ErrRow = err, i
			break
		}
		res.Completed++
		res.EndNS = max(res.EndNS, st.bookRow(i, addr.Bank, lat))
	}
	*bp = buf[:0]
	rowAddrPool.Put(bp)
	return res
}

// opRunner executes one direct operation's bank groups: the stream index is
// the operation's row.  Fields are populated by the dispatching operation
// and cleared on release; the zero start time of a pooled runner is never
// observed because every dispatch overwrites it.  A tagged operation's
// runner also carries its tenant's ledger and the per-bank busy time its
// rows booked, which dispatch commits once: each bank group writes only its
// own bank's entry, so the sum takes no lock.
type opRunner struct {
	opRecord
	s      *System
	tag    Tag
	start  float64
	ss     *obs.ShardSet
	tenant *Stats
	busy   []float64
}

var opRunnerPool = sync.Pool{New: func() any { return new(opRunner) }}

// getOpRunner checks a runner out of the pool for one operation.
func getOpRunner(s *System, kind opKind, tag Tag) *opRunner {
	r := opRunnerPool.Get().(*opRunner)
	r.s, r.kind, r.tag = s, kind, tag
	return r
}

// putOpRunner clears the runner's references and returns it to the pool.
// The operand lists keep their capacity for the next checkout.
func putOpRunner(r *opRunner) {
	clear(r.dsts)
	clear(r.srcs)
	*r = opRunner{opRecord: opRecord{dsts: r.dsts[:0], srcs: r.srcs[:0]}, busy: r.busy[:0]}
	opRunnerPool.Put(r)
}

// RunGroup executes one bank group of the operation (exec.GroupRunner).
func (r *opRunner) RunGroup(_ int, rows []int) exec.GroupResult {
	return r.s.runRows(rows, r.ss, r)
}

func (r *opRunner) at(i int) (*opRecord, int) { return &r.opRecord, i }

// bookRow reserves the row's bank from the operation's start and adds its
// busy time to a tagged operation's per-bank sum.
func (r *opRunner) bookRow(_, bank int, lat float64) float64 {
	if r.tenant != nil {
		r.busy[bank] += lat
	}
	return r.s.reserveRow(bank, r.start, lat)
}

// bookReliable folds the row's TMR outcome into the ledger at once.
func (r *opRunner) bookReliable(_ int, addr dram.PhysAddr, rr controller.RowResult) {
	r.s.statsMu.Lock()
	r.s.accountReliabilityLocked(r.tenant, addr, rr)
	r.s.statsMu.Unlock()
}

// dispatch runs one direct operation: the coherence charge, then plan's bank
// groups, each bank's trains on one worker of the execution engine under its
// shard lock, with command events captured per bank and merged into row
// order (obs.ShardSet); then the deterministic merge and the ledger commit.
// Results, Stats and trace bytes are the same at every worker count.  run
// carries the operands, the kind and the tag; dispatch returns it and the
// plan to their pools.  The caller has validated the operands and holds
// execMu: for reading with a PlanAddrs plan, exclusively with a PlanStream
// plan (whose single bankless group runs on this goroutine).
//
// A tagged operation's tenant is charged its rows' busy time and the fault
// model's counter change across the operation: exactly its own injections
// when operations serialize, a conserved blend under concurrent clients.
//
// Per-bank prefix semantics: a failing bank stops at its failing row, other
// banks complete theirs, and the clock and row counters account what ran.
func (s *System) dispatch(run *opRunner, plan *exec.Plan) error {
	tag := run.tag
	observing := s.observing()
	var devBefore dram.Stats
	var faultsBefore fault.Counters
	s.statsMu.Lock()
	if observing {
		devBefore = s.dev.Stats()
	}
	if tag.NS != "" {
		run.tenant = s.tenantLocked(tag.NS)
		run.busy = slices.Grow(run.busy[:0], s.banks)[:s.banks]
		clear(run.busy)
		if s.fm != nil {
			faultsBefore = s.fm.Counters()
		}
	}
	opStart := s.stats.ElapsedNS
	start := opStart + s.coherenceNS(run.coherenceRows())
	s.statsMu.Unlock()

	banks := plan.Banks()
	s.eng.LockBanks(banks)
	run.start, run.ss = start, s.cfg.Tracer.BeginShards(banks)
	res := s.eng.RunPlan(plan, run)
	run.ss.MergeAndEmit()
	s.eng.UnlockBanks(banks)
	plan.Release()

	end := max(res.EndNS, start) // every row failed; the coherence flush still happened
	s.statsMu.Lock()
	if end > s.stats.ElapsedNS {
		s.stats.ElapsedNS = end
	}
	t := run.tenant
	s.countOpLocked(t, &run.opRecord, res.Completed, res.Err == nil)
	if errors.Is(res.Err, ErrUncorrectable) {
		s.countUncorrectableLocked(t)
	}
	if t != nil {
		for bank, ns := range run.busy {
			t.BankBusyNS[bank] += ns
		}
		if s.fm != nil {
			e0, b0 := injected(faultsBefore)
			e1, b1 := injected(s.fm.Counters())
			t.InjectedFaults += e1 - e0
			t.InjectedFaultBits += b1 - b0
		}
	}
	s.statsMu.Unlock()

	var err error
	if res.Err != nil {
		err = fmt.Errorf("ambit: %s row %d: %w", run.label(), res.ErrRow, res.Err)
	} else if observing {
		s.observeOp(tag, run.spanName(), -1, run.rows(), opStart, end-opStart, devBefore)
	}
	putOpRunner(run)
	return err
}
