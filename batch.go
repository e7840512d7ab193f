package ambit

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/exec"
	"ambit/internal/obs"
)

// batchKind enumerates the primitive kinds a Batch records.
type batchKind uint8

const (
	batchBulk batchKind = iota
	batchCopy
	batchFill
	batchPopcount
	batchFunc
)

// batchOp is one recorded operation.  dst/a/b mirror the direct-call operand
// roles: bulk ops use all three (b nil for unary), Copy uses dst/a
// (destination/source), Fill uses dst, Popcount uses a.  Compiled-function
// calls use fn/dsts/srcs instead.
type batchOp struct {
	kind    batchKind
	op      controller.Op
	dst     *Bitvector
	a, b    *Bitvector
	fillBit bool
	result  *PopcountResult

	fn   *Func
	dsts []*Bitvector
	srcs []*Bitvector

	// rowLats is filled by the functional phase: the command-train
	// latency of each row-level operation, consumed by the deterministic
	// timing phase.
	rowLats []float64
	// rowRel holds each row's reliability outcome when the TMR policy is
	// enabled (nil otherwise); the timing phase folds it into the stats
	// and quarantine scores so worker goroutines never touch s.stats.
	rowRel []controller.RowResult
}

// metricName is the opcode label used for metrics and spans — matching the
// labels the direct-call path uses, so observations from both routes merge.
func (o *batchOp) metricName() string {
	switch o.kind {
	case batchBulk:
		return o.op.String()
	case batchCopy:
		return "copy"
	case batchFill:
		return "fill"
	case batchFunc:
		return "func:" + o.fn.name
	default:
		return "popcount"
	}
}

// itemRows returns the rows that key the op's row-level items: the rows
// whose banks run them.
func (o *batchOp) itemRows() []dram.PhysAddr {
	switch o.kind {
	case batchPopcount:
		return o.a.rows
	case batchFunc:
		return o.dsts[0].rows
	}
	return o.dst.rows
}

// rows returns how many rows the op touches (for span reporting).
func (o *batchOp) rows() int { return len(o.itemRows()) }

// name renders the op for error messages.
func (o *batchOp) name() string {
	switch o.kind {
	case batchBulk:
		return o.op.String()
	case batchCopy:
		return "Copy"
	case batchFill:
		return "Fill"
	case batchFunc:
		return "Call(" + o.fn.name + ")"
	default:
		return "Popcount"
	}
}

// coherenceRows returns how many cached rows must be flushed or invalidated
// before the op may touch DRAM (DESIGN.md "Coherence model"): bulk ops flush
// their source rows (destination invalidation hides behind the B-group
// staging), Copy flushes sources and invalidates destinations, Fill
// invalidates destinations, and Popcount is an ordinary cached read.
func (o *batchOp) coherenceRows() int64 {
	switch o.kind {
	case batchBulk:
		return int64(len(o.dst.rows)) * int64(o.op.InputRows())
	case batchCopy:
		return 2 * int64(len(o.dst.rows))
	case batchFill:
		return int64(len(o.dst.rows))
	case batchFunc:
		return int64(len(o.dsts[0].rows)) * int64(o.fn.c.NumInputs)
	default:
		return 0
	}
}

// eachAccess calls visit for every operand of the op by role: the vectors
// it overwrites (write true), then the ones it reads (write false).  A nil
// operand is visited too, so recording can reject it; an operand updated in
// place is visited twice.  The B-group and control rows an op stages through
// are not operands: they are transient within one atomic command train, so
// they impose bank occupancy (the timelines) but no data dependency.
func (o *batchOp) eachAccess(visit func(v *Bitvector, write bool)) {
	switch o.kind {
	case batchBulk:
		visit(o.dst, true)
		visit(o.a, false)
		if !o.op.Unary() {
			visit(o.b, false)
		}
	case batchCopy:
		visit(o.dst, true)
		visit(o.a, false)
	case batchFill:
		visit(o.dst, true)
	case batchPopcount:
		visit(o.a, false)
	case batchFunc:
		for _, v := range o.dsts {
			visit(v, true)
		}
		for _, v := range o.srcs {
			visit(v, false)
		}
	}
}

// PopcountResult is the pending result of a Batch.Popcount; its value
// becomes available once the batch has run.
type PopcountResult struct {
	n    int64
	done bool
}

// Value returns the popcount, or an error if the owning batch has not
// successfully run yet.
func (p *PopcountResult) Value() (int64, error) {
	if !p.done {
		return 0, fmt.Errorf("ambit: PopcountResult: batch has not run")
	}
	return p.n, nil
}

// BatchReport summarizes one Batch.Run.
type BatchReport struct {
	// Ops is the number of operations the batch executed.
	Ops int
	// Waves is the dependency depth of the program: the length of its
	// longest chain of conflicting operations.  Waves == 1 means every
	// operation was independent.
	Waves int
	// MakespanNS is the simulated time from batch start to the completion
	// of its last operation.  Independent operations on different banks
	// overlap, so the makespan of a well-spread batch is far below the
	// sum of its operations' individual latencies.
	MakespanNS float64
}

// Batch records a program of bulk operations for pipelined dispatch.
//
// Operations are recorded by the same-named methods (And, Xor, Copy, ...)
// and validated immediately, but nothing executes until Run.  Run executes
// the program as one recording-order stream of row-level command trains per
// bank, the banks in parallel on the System's execution engine, then
// schedules their trains against per-bank timelines, each operation after
// the earlier ones it conflicts with on an operand vector: two operations
// that touch disjoint banks overlap fully in simulated time, instead of
// serializing on the System's global clock the way direct calls do.  This
// is the "program of bbop primitives" execution model of the follow-up work
// "In-DRAM Bulk Bitwise Execution Engine" (arXiv 1905.09822).
//
// A Batch is not safe for concurrent recording; record from one goroutine,
// then Run (Run itself synchronizes with all other System activity).  A
// Batch can run only once.
type Batch struct {
	sys *System
	ops []*batchOp
	ran bool
}

// NewBatch creates an empty batch on the system.
func (s *System) NewBatch() *Batch { return &Batch{sys: s} }

// Len returns the number of operations recorded so far.
func (b *Batch) Len() int { return len(b.ops) }

// record validates and appends one operation.
func (b *Batch) record(op *batchOp) error {
	s := b.sys
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if b.ran {
		return fmt.Errorf("ambit: Batch: cannot record %s after Run", op.name())
	}
	if op.kind == batchFunc {
		// The compiled-function validator covers liveness, arity, shape,
		// and the train-order aliasing rules in one place.
		if err := s.checkFuncOperands(op.fn, op.dsts, op.srcs); err != nil {
			return err
		}
		b.ops = append(b.ops, op)
		return nil
	}
	var bad error
	op.eachAccess(func(v *Bitvector, _ bool) {
		if bad == nil {
			bad = s.operandErr(v)
		}
	})
	if bad != nil {
		return fmt.Errorf("ambit: Batch.%s: %w", op.name(), bad)
	}
	switch op.kind {
	case batchBulk:
		if !op.dst.sameShape(op.a) || (!op.op.Unary() && !op.dst.sameShape(op.b)) {
			return fmt.Errorf("ambit: Batch.%v: %w (size mismatch or foreign allocation); cooperating bitvectors must be allocated with the same size and base slot on one System (Section 5.4.2)", op.op, ErrShapeMismatch)
		}
	case batchCopy:
		if len(op.dst.rows) != len(op.a.rows) {
			return fmt.Errorf("ambit: Batch.Copy: %w (%d vs %d rows)", ErrShapeMismatch, len(op.dst.rows), len(op.a.rows))
		}
	}
	b.ops = append(b.ops, op)
	return nil
}

// bulk records dst = op(a[, b]).
func (b *Batch) bulk(op controller.Op, dst, a, bv *Bitvector) error {
	return b.record(&batchOp{kind: batchBulk, op: op, dst: dst, a: a, b: bv})
}

// And records dst = a AND b.
func (b *Batch) And(dst, a, bv *Bitvector) error { return b.bulk(controller.OpAnd, dst, a, bv) }

// Or records dst = a OR b.
func (b *Batch) Or(dst, a, bv *Bitvector) error { return b.bulk(controller.OpOr, dst, a, bv) }

// Not records dst = NOT a.
func (b *Batch) Not(dst, a *Bitvector) error { return b.bulk(controller.OpNot, dst, a, nil) }

// Nand records dst = NOT (a AND b).
func (b *Batch) Nand(dst, a, bv *Bitvector) error { return b.bulk(controller.OpNand, dst, a, bv) }

// Nor records dst = NOT (a OR b).
func (b *Batch) Nor(dst, a, bv *Bitvector) error { return b.bulk(controller.OpNor, dst, a, bv) }

// Xor records dst = a XOR b.
func (b *Batch) Xor(dst, a, bv *Bitvector) error { return b.bulk(controller.OpXor, dst, a, bv) }

// Xnor records dst = NOT (a XOR b).
func (b *Batch) Xnor(dst, a, bv *Bitvector) error { return b.bulk(controller.OpXnor, dst, a, bv) }

// Apply records dst = op(a[, b]) for a dynamically chosen operation.
func (b *Batch) Apply(op controller.Op, dst, a, bv *Bitvector) error {
	if op.Unary() {
		return b.bulk(op, dst, a, nil)
	}
	return b.bulk(op, dst, a, bv)
}

// Copy records a RowClone copy of src into dst.
func (b *Batch) Copy(dst, src *Bitvector) error {
	return b.record(&batchOp{kind: batchCopy, dst: dst, a: src})
}

// Fill records setting every bit of v to the given value.
func (b *Batch) Fill(v *Bitvector, bit bool) error {
	return b.record(&batchOp{kind: batchFill, dst: v, fillBit: bit})
}

// Call records dsts... = f(srcs...) for a compiled function (System.Compile).
// Dependencies against other recorded operations follow from the operand row
// sets, so chained calls — one function's outputs feeding another's inputs —
// order correctly while independent calls overlap across banks.
func (b *Batch) Call(f *Func, dsts []*Bitvector, srcs ...*Bitvector) error {
	if f == nil {
		return fmt.Errorf("ambit: Batch.Call: nil function")
	}
	return b.record(&batchOp{kind: batchFunc, fn: f, dsts: dsts, srcs: srcs})
}

// Popcount records a CPU-side population count of v.  The returned
// PopcountResult yields its value after Run succeeds.
func (b *Batch) Popcount(v *Bitvector) (*PopcountResult, error) {
	res := &PopcountResult{}
	if err := b.record(&batchOp{kind: batchPopcount, a: v, result: res}); err != nil {
		return nil, err
	}
	return res, nil
}

// Run executes the recorded program.
//
// The run has two phases.  The functional phase executes every operation's
// command trains against the simulated device: the program is flattened
// into row-level items, each bank's items run as one stream in recording
// order (banks in parallel), and consecutive same-opcode bulk items on a
// bank evaluate in a single word-parallel kernel sweep when nothing — a
// tracer, the ECC policy, an armed fault injector — needs the individual
// commands.  Traces, fault draws, results and Stats are identical at every
// worker count.  The timing phase then replays the program in deterministic
// order against the per-bank timelines: an operation starts when the earlier
// operations it conflicts with on an operand vector (read after write, write
// after write, write after read) finish, and each of its row trains occupies
// its bank from the bank's own earliest free moment — so independent
// operations on disjoint banks overlap in simulated time.  The System clock
// advances by the batch makespan, not by the sum of operation latencies.
//
// On error the simulated clock and counters are left unchanged, but DRAM
// contents may reflect a partially executed program: every bank stream runs
// until its own first failure, and the error reported is the failure
// earliest in recording order.
func (b *Batch) Run() (BatchReport, error) {
	s := b.sys
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if b.ran {
		return BatchReport{}, fmt.Errorf("ambit: Batch: already run")
	}
	b.ran = true
	if len(b.ops) == 0 {
		return BatchReport{}, nil
	}
	// Operands may have been freed between recording and Run.
	for i, op := range b.ops {
		freed := false
		op.eachAccess(func(v *Bitvector, _ bool) { freed = freed || v.rows == nil })
		if freed {
			return BatchReport{}, fmt.Errorf("ambit: Batch op %d (%s): operand freed after recording: %w", i, op.name(), ErrFreed)
		}
	}
	observing := s.observing()
	var devBefore dram.Stats
	if observing {
		devBefore = s.dev.Stats()
	}
	if err := b.execute(); err != nil {
		// Reliability outcomes of completed rows are dropped on error
		// (the timing phase never runs), but an exhausted retry budget is
		// still counted so the failure is visible in the stats.
		if errors.Is(err, ErrUncorrectable) {
			s.stats.UncorrectableRows++
			if m := s.cfg.Metrics; m != nil {
				m.Add("uncorrectable_rows", 1)
			}
		}
		return BatchReport{}, err
	}
	makespan, waves := b.schedule()
	if observing {
		s.observeOp(Tag{}, "batch", -1, len(b.ops), s.stats.ElapsedNS-makespan, makespan, devBefore)
	}
	for _, op := range b.ops {
		if op.result != nil {
			op.result.done = true
		}
	}
	return BatchReport{Ops: len(b.ops), Waves: waves, MakespanNS: makespan}, nil
}

// batchItem is one row-level unit of the flattened program: op indexes the
// recorded operation, row the row within it.  The flat item list is built in
// recording order, so an item's index is its recording-order position — the
// row index its trace events merge by and the tiebreaker for error merging.
type batchItem struct {
	op, row int32
}

// execute runs the functional phase.  The program is flattened into
// row-level items in recording order and partitioned by bank; each bank's
// items run as one stream, in recording order, on the execution engine
// (exec.RunPlan).  That preserves every data dependency: cooperating operands
// are co-located row for row by the allocator, so any two items that touch
// the same DRAM row land in the same bank's stream, already ordered.  It
// also gives each (bank, subarray) fault stream the draw order of a serial
// recording-order run, so faulted batches are deterministic at any worker
// count.  Per-row latencies (and, under ECC, reliability outcomes) land in
// rowLats/rowRel for the timing phase.
//
// A cross-bank copy row (a PSM copy through the channel) touches two banks
// in one train, so a program containing one runs all its items as a single
// recording-order stream on the calling goroutine instead (exec.PlanStream).
func (b *Batch) execute() error {
	s := b.sys
	n := 0
	crossBank := false
	for _, op := range b.ops {
		rows := op.rows()
		if op.kind != batchPopcount {
			op.rowLats = make([]float64, rows)
		}
		if op.kind == batchBulk && s.cfg.Reliability.ECC {
			op.rowRel = make([]controller.RowResult, rows)
		}
		if op.kind == batchCopy {
			for r := range op.dst.rows {
				crossBank = crossBank || op.a.rows[r].Bank != op.dst.rows[r].Bank
			}
		}
		n += rows
	}
	items := make([]batchItem, 0, n)
	addrs := make([]dram.PhysAddr, 0, n)
	for i, op := range b.ops {
		for r, a := range op.itemRows() {
			items = append(items, batchItem{int32(i), int32(r)})
			addrs = append(addrs, a)
		}
	}
	// Run holds execMu exclusively, so no other operation touches the
	// banks and no shard locks are needed; each bank's stream runs on one
	// goroutine, the ShardSet single-writer rule.
	var plan *exec.Plan
	if crossBank {
		plan = s.eng.PlanStream(len(items))
	} else {
		plan = s.eng.PlanAddrs(addrs)
	}
	defer plan.Release()
	st := &batchStreams{b: b, items: items, ss: s.cfg.Tracer.BeginShards(plan.Banks())}
	res := s.eng.RunPlan(plan, st)
	st.ss.MergeAndEmit()
	return res.Err
}

// batchStreams runs bank streams of one flattened program (exec.GroupRunner).
// A stream's rows are item indices, ascending (recording order); on failure
// the group reports the failing item as its ErrRow, so RunPlan's merge
// returns the lowest failing item's error.
type batchStreams struct {
	b     *Batch
	items []batchItem
	ss    *obs.ShardSet
}

// RunGroup executes one stream.  Consecutive bulk items with the same opcode
// on the same bank coalesce into a single fused word-parallel evaluation.
func (st *batchStreams) RunGroup(_ int, idx []int) exec.GroupResult {
	s := st.b.sys
	k := 0
	for k < len(idx) {
		it := st.items[idx[k]]
		op := st.b.ops[it.op]
		if op.kind == batchBulk {
			bank := op.dst.rows[it.row].Bank
			j := k + 1
			for j < len(idx) {
				nx := st.items[idx[j]]
				nop := st.b.ops[nx.op]
				if nop.kind != batchBulk || nop.op != op.op || nop.dst.rows[nx.row].Bank != bank {
					break
				}
				j++
			}
			if item, err := st.runBulk(bank, idx[k:j]); err != nil {
				return exec.GroupResult{Err: err, ErrRow: item}
			}
			k = j
			continue
		}
		var lat float64
		var err error
		switch op.kind {
		case batchCopy:
			st.ss.SetRow(op.dst.rows[it.row].Bank, idx[k])
			if _, lat, err = s.rc.Copy(op.a.rows[it.row], op.dst.rows[it.row]); err != nil {
				err = fmt.Errorf("ambit: batch Copy row %d: %w", it.row, err)
			}
		case batchFill:
			addr := op.dst.rows[it.row]
			st.ss.SetRow(addr.Bank, idx[k])
			if op.fillBit {
				lat, err = s.rc.InitOne(addr.Bank, addr.Subarray, addr.Row)
			} else {
				lat, err = s.rc.InitZero(addr.Bank, addr.Subarray, addr.Row)
			}
			if err != nil {
				err = fmt.Errorf("ambit: batch Fill row %d: %w", it.row, err)
			}
		case batchFunc:
			bp := rowAddrPool.Get().(*[]dram.RowAddr)
			buf := *bp
			nOps := op.fn.c.NumInputs + op.fn.c.NumOutputs
			if cap(buf) < nOps {
				buf = make([]dram.RowAddr, nOps)
			}
			buf = buf[:nOps]
			da := fillFuncRow(op.fn, op.dsts, op.srcs, int(it.row), buf)
			st.ss.SetRow(da.Bank, idx[k])
			if lat, err = s.ctrl.ExecuteTrain(op.fn.c.Train, da.Bank, da.Subarray, buf); err != nil {
				err = fmt.Errorf("ambit: batch func %s row %d: %w", op.fn.name, it.row, err)
			}
			*bp = buf[:0]
			rowAddrPool.Put(bp)
		case batchPopcount:
			var pc int64
			if pc, err = s.dev.PopcountRow(op.a.rows[it.row]); err != nil {
				err = fmt.Errorf("ambit: batch Popcount row %d: %w", it.row, err)
			}
			atomic.AddInt64(&op.result.n, pc)
		}
		if err != nil {
			return exec.GroupResult{Err: err, ErrRow: idx[k]}
		}
		if op.rowLats != nil {
			op.rowLats[it.row] = lat
		}
		k++
	}
	return exec.GroupResult{ErrRow: -1}
}

// runBulk executes a run of same-opcode bulk items on one bank: one fused
// word-parallel pass over all of their trains, or — under ECC, and whenever
// the fused dispatch declines the run (tracing, an armed fault injector,
// raised amplifiers) — the per-row controller call.  On failure it returns
// the failing item's index.
func (st *batchStreams) runBulk(bank int, idx []int) (int, error) {
	s := st.b.sys
	op0 := st.b.ops[st.items[idx[0]].op].op
	unary := op0.Unary()
	ecc := s.cfg.Reliability.ECC
	if !ecc {
		tp := trainPool.Get().(*[]controller.RowTrain)
		trains := (*tp)[:0]
		for _, ii := range idx {
			it := st.items[ii]
			op := st.b.ops[it.op]
			da := op.dst.rows[it.row]
			t := controller.RowTrain{Sub: da.Subarray, DK: da.Row, DI: op.a.rows[it.row].Row}
			if !unary {
				t.DJ = op.b.rows[it.row].Row
			}
			trains = append(trains, t)
		}
		lat, ok := s.ctrl.ExecuteOpRowsFused(op0, bank, trains)
		*tp = trains[:0]
		trainPool.Put(tp)
		if ok {
			for _, ii := range idx {
				it := st.items[ii]
				st.b.ops[it.op].rowLats[it.row] = lat
			}
			return -1, nil
		}
	}
	for _, ii := range idx {
		st.ss.SetRow(bank, ii)
		it := st.items[ii]
		op := st.b.ops[it.op]
		da, aa := op.dst.rows[it.row], op.a.rows[it.row]
		var ba dram.RowAddr
		if !unary {
			ba = op.b.rows[it.row].Row
		}
		var lat float64
		var err error
		if ecc {
			var rr controller.RowResult
			rr, err = s.execRowReliable(op.op, da, aa.Row, ba)
			op.rowRel[it.row] = rr
			lat = rr.LatencyNS
		} else {
			lat, err = s.ctrl.ExecuteOp(op.op, da.Bank, da.Subarray, da.Row, aa.Row, ba)
		}
		if err != nil {
			return ii, fmt.Errorf("ambit: batch %v row %d: %w", op.op, it.row, err)
		}
		op.rowLats[it.row] = lat
	}
	return -1, nil
}

// vecFrontier is one operand vector's entry in the timing phase's dependency
// frontier.  Waves count from 1; a zero wave means there is no such op.
type vecFrontier struct {
	writeEnd  float64 // finish of the vector's last writer
	writeWave int     // the last writer's wave
	readEnd   float64 // latest finish among the ops that read it since then
	readWave  int     // highest wave among those readers
}

// schedule runs the deterministic timing phase and returns the makespan and
// the program's dependency depth (Waves).  Ops are replayed in recording
// order against a dependency frontier keyed by operand vector: an op starts
// at the latest finish of the last writer of every vector it touches (RAW,
// WAW) and of the readers since that write of every vector it overwrites
// (WAR), plus its coherence charge; its wave is one more than theirs.  Every
// op touches every row of each operand and live vectors own disjoint rows,
// so this is the row-level hazard graph exactly, and the start times are
// maxima of the same floats.  Each row train reserves its bank's own
// timeline, and channel-bound ops (Popcount) serialize on a single channel
// timeline.  The system clock advances to the finish of the last op.
func (b *Batch) schedule() (float64, int) {
	s := b.sys
	if s.frontier == nil {
		s.frontier = make(map[*Bitvector]vecFrontier)
	}
	fr := s.frontier
	base := s.stats.ElapsedNS
	channelFree := base
	makespan := base
	waves := 0
	observing := s.observing()
	for _, op := range b.ops {
		start, wave := base, 0
		op.eachAccess(func(v *Bitvector, write bool) {
			f := fr[v]
			start, wave = max(start, f.writeEnd), max(wave, f.writeWave)
			if write {
				start, wave = max(start, f.readEnd), max(wave, f.readWave)
			}
		})
		wave++
		waves = max(waves, wave)
		opStart := start
		start += s.coherenceNS(op.coherenceRows())
		end := start
		switch op.kind {
		case batchBulk:
			for r, lat := range op.rowLats {
				done := s.dev.Bank(op.dst.rows[r].Bank).Reserve(start, lat)
				s.utilRecord(Tag{}, op.dst.rows[r].Bank, done, lat)
				if done > end {
					end = done
				}
			}
			for r, rr := range op.rowRel {
				s.accountReliabilityLocked(Tag{}, op.dst.rows[r], rr)
			}
			s.stats.BulkOps[op.op]++
			s.stats.RowOps += int64(len(op.dst.rows))
		case batchCopy, batchFill:
			for r, lat := range op.rowLats {
				done := s.dev.Bank(op.dst.rows[r].Bank).Reserve(start, lat)
				s.utilRecord(Tag{}, op.dst.rows[r].Bank, done, lat)
				if done > end {
					end = done
				}
			}
			s.stats.Copies += int64(len(op.dst.rows))
		case batchFunc:
			for r, lat := range op.rowLats {
				bank := op.dsts[0].rows[r].Bank
				done := s.dev.Bank(bank).Reserve(start, lat)
				s.utilRecord(Tag{}, bank, done, lat)
				if done > end {
					end = done
				}
			}
			s.stats.FuncOps++
			s.stats.RowOps += int64(len(op.rowLats))
		case batchPopcount:
			bytes := int64(len(op.a.rows)) * int64(s.dev.Geometry().RowSizeBytes)
			if channelFree > start {
				start = channelFree
			}
			end = start + float64(bytes)/s.dev.Timing().ChannelGBps
			channelFree = end
			s.stats.ChannelBytes += bytes
		}
		// Writes are visited first, so an op that updates a vector in place
		// also stays listed as its reader; that entry repeats the writer's
		// finish and wave, so it adds no constraint.
		op.eachAccess(func(v *Bitvector, write bool) {
			if write {
				fr[v] = vecFrontier{writeEnd: end, writeWave: wave}
				return
			}
			f := fr[v]
			f.readEnd, f.readWave = max(f.readEnd, end), max(f.readWave, wave)
			fr[v] = f
		})
		if end > makespan {
			makespan = end
		}
		// Per-op observation happens here, in the timing phase, where the
		// op's placement on the simulated timeline is known (the functional
		// phase runs concurrently and has no meaningful clock).  Energy is
		// attributed to the enclosing batch span, not per op: device
		// counters advance interleaved across the bank streams.
		if observing {
			name := op.metricName()
			if m := s.cfg.Metrics; m != nil {
				m.ObserveLatencyNS(name, end-opStart)
			}
			if tr := s.cfg.Tracer; tr.Enabled() {
				tr.Emit(obs.Event{
					Kind: obs.KindSpan, Name: name, Bank: -1, Subarray: -1,
					StartNS: opStart, DurNS: end - opStart, Rows: op.rows(),
					Comment: "batch",
				})
			}
		}
	}
	clear(fr)
	s.stats.ElapsedNS = makespan
	return makespan - base, waves
}
