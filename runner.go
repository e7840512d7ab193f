package ambit

import (
	"errors"
	"fmt"
	"sync"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/exec"
	"ambit/internal/obs"
)

// Pooled per-operation group runners.  The direct operations (Apply, Copy,
// Fill, Func.Run, Maj) run their rows through internal/exec without a
// closure per operation: closures capture, captures allocate, and the
// direct-op hot path must not.  An opRunner is checked out per operation,
// carries the operands and the schedule start time, and implements
// exec.GroupRunner over whole bank groups; System.dispatch runs it.
// Group-granular dispatch is also what enables the multi-row fused
// fast path: a bulk group with tracing off and ECC off batches all of its
// rows into a single controller.ExecuteOpRowsFused call — one word-parallel
// pass, one device stats commit, one controller stats lock for the whole
// bank — with the row-at-a-time body kept as the exact-semantics fallback
// (traced runs, ECC, armed fault models, ineligible operands).
//
// Scratch slices (operand address buffers, train lists) come from pools and
// are claimed per group, never shared across the concurrently running groups
// of one plan.

// runnerKind selects the per-row body an opRunner executes.
type runnerKind uint8

const (
	runBulk runnerKind = iota
	runCopy
	runFill
	runFunc
	runMaj
)

// opRunner executes one operation's bank groups.  Fields are populated by
// the dispatching operation and cleared on release; the zero start time of a
// pooled runner is never observed because every dispatch overwrites it.
type opRunner struct {
	s     *System
	kind  runnerKind
	op    controller.Op
	dst   *Bitvector
	a, b  *Bitvector
	srcs  []*Bitvector // maj sources / func inputs (runner-owned copies)
	dsts  []*Bitvector // func outputs (runner-owned copy)
	f     *Func
	fill  bool
	ecc   bool
	start float64
	ss    *obs.ShardSet
	tag   Tag
}

var opRunnerPool = sync.Pool{New: func() any { return new(opRunner) }}

// getOpRunner checks a runner out of the pool for one operation.
func getOpRunner(s *System, kind runnerKind, tag Tag) *opRunner {
	r := opRunnerPool.Get().(*opRunner)
	r.s, r.kind, r.tag = s, kind, tag
	return r
}

// putOpRunner clears the runner's references and returns it to the pool.
// The operand lists keep their capacity for the next checkout.
func putOpRunner(r *opRunner) {
	clear(r.dsts)
	clear(r.srcs)
	*r = opRunner{dsts: r.dsts[:0], srcs: r.srcs[:0]}
	opRunnerPool.Put(r)
}

// trainPool recycles the per-group RowTrain scratch of the multi-row fused
// dispatch.
var trainPool = sync.Pool{New: func() any { return new([]controller.RowTrain) }}

// rowAddrPool recycles the per-group operand-address scratch of maj and
// compiled-func groups.
var rowAddrPool = sync.Pool{New: func() any { return new([]dram.RowAddr) }}

// dispatch runs one direct operation: the coherence charge, then the rows
// of addrs grouped by bank, each bank's trains on one worker of the
// execution engine under its shard lock, with command events captured per
// bank and merged into serial order (obs.ShardSet); then the deterministic
// merge and the stats commit.  A single-client traced run is byte-identical
// to the serial path.  run carries the operands, the kind and the tag;
// dispatch returns it to the pool.  The caller holds execMu for reading and
// has validated the operands.
//
// Per-bank prefix semantics: a failing bank stops at its failing row, other
// banks complete theirs, and the clock and row counters account what ran.
func (s *System) dispatch(run *opRunner, addrs []dram.PhysAddr, coherenceRows int64) error {
	tag := run.tag
	observing := s.observing()
	var fmEvents, fmBits int64
	var fmAttr bool
	if run.kind == runMaj {
		fmEvents, fmBits, fmAttr = s.majFaultsBefore(tag)
	}
	var devBefore dram.Stats
	s.statsMu.Lock()
	if observing {
		devBefore = s.dev.Stats()
	}
	opStart := s.stats.ElapsedNS
	start := opStart + s.coherenceNS(coherenceRows)
	s.statsMu.Unlock()

	plan := s.eng.PlanAddrs(addrs)
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
	switch run.kind {
	case runCopy, runFill:
		s.stats.Copies += int64(res.Completed)
	default:
		s.stats.RowOps += int64(res.Completed)
	}
	if res.Err == nil {
		switch run.kind {
		case runBulk:
			s.stats.BulkOps[run.op]++
		case runFunc:
			s.stats.FuncOps++
		case runMaj:
			s.stats.MajOps++
		}
	} else if run.kind == runBulk && errors.Is(res.Err, ErrUncorrectable) {
		s.stats.UncorrectableRows++
		if m := s.cfg.Metrics; m != nil {
			m.Add("uncorrectable_rows", 1)
		}
		s.addLabeledNS(tag, "uncorrectable_rows", 1)
	}
	s.statsMu.Unlock()
	if fmAttr {
		s.majFaultsCommit(tag, fmEvents, fmBits)
	}

	var err error
	switch {
	case res.Err == nil:
		if observing {
			s.observeOp(tag, run.spanName(), -1, len(addrs), opStart, end-opStart, devBefore)
		}
	case run.kind == runBulk:
		err = fmt.Errorf("ambit: %v row %d: %w", run.op, res.ErrRow, res.Err)
	case run.kind == runCopy:
		err = fmt.Errorf("ambit: Copy row %d: %w", res.ErrRow, res.Err)
	case run.kind == runFill:
		err = fmt.Errorf("ambit: Fill: %w", res.Err)
	case run.kind == runFunc:
		err = fmt.Errorf("ambit: func %s row %d: %w", run.f.name, res.ErrRow, res.Err)
	default:
		err = fmt.Errorf("ambit: Maj row %d: %w", res.ErrRow, res.Err)
	}
	putOpRunner(run)
	return err
}

// spanName is the operation's metric and span label, matching the serial
// paths'.
func (r *opRunner) spanName() string {
	switch r.kind {
	case runBulk:
		return r.op.String()
	case runCopy:
		return "copy"
	case runFill:
		return "fill"
	case runFunc:
		return "func:" + r.f.name
	default:
		return "maj"
	}
}

// RunGroup executes one bank group with the prefix/merge semantics
// internal/exec documents: rows in ascending order, stop at the first
// failing row, EndNS = max completion time of completed rows.
func (r *opRunner) RunGroup(bank int, rows []int) exec.GroupResult {
	switch r.kind {
	case runBulk:
		return r.runBulkGroup(bank, rows)
	case runCopy:
		return r.runCopyGroup(bank, rows)
	case runFill:
		return r.runFillGroup(bank, rows)
	case runFunc:
		return r.runFuncGroup(bank, rows)
	default:
		return r.runMajGroup(bank, rows)
	}
}

// runBulkGroup runs one bank group of a bulk bitwise op.  Untraced,
// non-ECC groups take the multi-row fused path; everything else (and any
// group the fused dispatch rejects) falls back to the row-at-a-time body,
// which owns error reporting and traced event emission.
func (r *opRunner) runBulkGroup(bank int, rows []int) exec.GroupResult {
	s := r.s
	res := exec.GroupResult{ErrRow: -1}
	op := r.op
	unary := op.Unary()
	if !r.ecc && r.ss == nil {
		tp := trainPool.Get().(*[]controller.RowTrain)
		trains := (*tp)[:0]
		for _, row := range rows {
			da := r.dst.rows[row]
			t := controller.RowTrain{Sub: da.Subarray, DK: da.Row, DI: r.a.rows[row].Row}
			if !unary {
				t.DJ = r.b.rows[row].Row
			}
			trains = append(trains, t)
		}
		lat, ok := s.ctrl.ExecuteOpRowsFused(op, bank, trains)
		*tp = trains[:0]
		trainPool.Put(tp)
		if ok {
			bk := s.dev.Bank(bank)
			for range rows {
				done := bk.Reserve(r.start, lat)
				s.utilRecord(r.tag, bank, done, lat)
				if done > res.EndNS {
					res.EndNS = done
				}
			}
			res.Completed = len(rows)
			return res
		}
	}
	for _, row := range rows {
		r.ss.SetRow(bank, row)
		da, aa := r.dst.rows[row], r.a.rows[row]
		var ba dram.RowAddr
		if !unary {
			ba = r.b.rows[row].Row
		}
		var done float64
		if r.ecc {
			rr, err := s.execRowReliable(op, da, aa.Row, ba)
			s.statsMu.Lock()
			s.accountReliabilityLocked(r.tag, da, rr)
			s.statsMu.Unlock()
			if err != nil {
				res.Err, res.ErrRow = err, row
				return res
			}
			done = s.dev.Bank(da.Bank).Reserve(r.start, rr.LatencyNS)
			s.utilRecord(r.tag, da.Bank, done, rr.LatencyNS)
		} else {
			var err error
			done, err = s.scheduleRow(r.tag, op, da, aa.Row, ba, r.start)
			if err != nil {
				res.Err, res.ErrRow = err, row
				return res
			}
		}
		res.Completed++
		if done > res.EndNS {
			res.EndNS = done
		}
	}
	return res
}

// runCopyGroup runs one bank group of a RowClone copy (src in r.a).
func (r *opRunner) runCopyGroup(bank int, rows []int) exec.GroupResult {
	s := r.s
	res := exec.GroupResult{ErrRow: -1}
	for _, row := range rows {
		r.ss.SetRow(bank, row)
		_, lat, err := s.rc.Copy(r.a.rows[row], r.dst.rows[row])
		if err != nil {
			res.Err, res.ErrRow = err, row
			return res
		}
		done := s.dev.Bank(r.dst.rows[row].Bank).Reserve(r.start, lat)
		s.utilRecord(r.tag, r.dst.rows[row].Bank, done, lat)
		res.Completed++
		if done > res.EndNS {
			res.EndNS = done
		}
	}
	return res
}

// runFillGroup runs one bank group of a control-row Fill.
func (r *opRunner) runFillGroup(bank int, rows []int) exec.GroupResult {
	s := r.s
	res := exec.GroupResult{ErrRow: -1}
	for _, row := range rows {
		r.ss.SetRow(bank, row)
		addr := r.dst.rows[row]
		var lat float64
		var err error
		if r.fill {
			lat, err = s.rc.InitOne(addr.Bank, addr.Subarray, addr.Row)
		} else {
			lat, err = s.rc.InitZero(addr.Bank, addr.Subarray, addr.Row)
		}
		if err != nil {
			res.Err, res.ErrRow = err, row
			return res
		}
		done := s.dev.Bank(addr.Bank).Reserve(r.start, lat)
		s.utilRecord(r.tag, addr.Bank, done, lat)
		res.Completed++
		if done > res.EndNS {
			res.EndNS = done
		}
	}
	return res
}

// runFuncGroup runs one bank group of a compiled function, reusing one
// pooled operand buffer for the whole group.
func (r *opRunner) runFuncGroup(bank int, rows []int) exec.GroupResult {
	s := r.s
	res := exec.GroupResult{ErrRow: -1}
	nOps := r.f.c.NumInputs + r.f.c.NumOutputs
	bp := rowAddrPool.Get().(*[]dram.RowAddr)
	buf := *bp
	if cap(buf) < nOps {
		buf = make([]dram.RowAddr, nOps)
	}
	buf = buf[:nOps]
	for _, row := range rows {
		r.ss.SetRow(bank, row)
		da := fillFuncRow(r.f, r.dsts, r.srcs, row, buf)
		lat, err := s.ctrl.ExecuteTrain(r.f.c.Train, da.Bank, da.Subarray, buf)
		if err != nil {
			res.Err, res.ErrRow = err, row
			break
		}
		done := s.dev.Bank(da.Bank).Reserve(r.start, lat)
		s.utilRecord(r.tag, da.Bank, done, lat)
		res.Completed++
		if done > res.EndNS {
			res.EndNS = done
		}
	}
	*bp = buf
	rowAddrPool.Put(bp)
	return res
}

// runMajGroup runs one bank group of a many-row majority, reusing one
// pooled source-address buffer for the whole group.
func (r *opRunner) runMajGroup(bank int, rows []int) exec.GroupResult {
	s := r.s
	res := exec.GroupResult{ErrRow: -1}
	bp := rowAddrPool.Get().(*[]dram.RowAddr)
	buf := *bp
	for _, row := range rows {
		r.ss.SetRow(bank, row)
		da, srcRows := majRowAddrs(r.dst, r.srcs, row, buf)
		buf = srcRows // keep any growth for the next row
		lat, err := s.ctrl.ExecuteMaj(da.Bank, da.Subarray, da.Row, srcRows, s.majScratchBase, s.majW)
		if err != nil {
			res.Err, res.ErrRow = err, row
			break
		}
		done := s.dev.Bank(da.Bank).Reserve(r.start, lat)
		s.utilRecord(r.tag, da.Bank, done, lat)
		res.Completed++
		if done > res.EndNS {
			res.EndNS = done
		}
	}
	*bp = buf[:0]
	rowAddrPool.Put(bp)
	return res
}
