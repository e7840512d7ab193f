package ambit

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/exec"
	"ambit/internal/obs"
)

// name renders the op for recording errors.
func (o *opRecord) name() string {
	if o.kind == opFunc {
		return "Call(" + o.fn.name + ")"
	}
	return o.label()
}

// eachAccess calls visit for every operand of the op by role: the vectors
// it overwrites (write true), then the ones it reads (write false).  A nil
// operand is visited too, so recording can reject it; an operand updated in
// place is visited twice.  The B-group and control rows an op stages through
// are not operands: they are transient within one atomic command train, so
// they impose bank occupancy (the timelines) but no data dependency.
func (o *opRecord) eachAccess(visit func(v *Bitvector, write bool)) {
	switch o.kind {
	case opBulk:
		visit(o.dst, true)
		visit(o.a, false)
		if !o.op.Unary() {
			visit(o.b, false)
		}
	case opCopy:
		visit(o.dst, true)
		visit(o.a, false)
	case opFill:
		visit(o.dst, true)
	case opPopcount:
		visit(o.a, false)
	case opFunc:
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
	n    atomic.Int64 // concurrent bank streams add into it
	done bool
}

// Value returns the popcount, or an error if the owning batch has not
// successfully run yet.
func (p *PopcountResult) Value() (int64, error) {
	if !p.done {
		return 0, fmt.Errorf("ambit: PopcountResult: batch has not run")
	}
	return p.n.Load(), nil
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
	ops []opRecord
	ran bool
}

// NewBatch creates an empty batch on the system.
func (s *System) NewBatch() *Batch { return &Batch{sys: s} }

// Len returns the number of operations recorded so far.
func (b *Batch) Len() int { return len(b.ops) }

// record validates and appends one operation.
func (b *Batch) record(op opRecord) error {
	s := b.sys
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if b.ran {
		return fmt.Errorf("ambit: Batch: cannot record %s after Run", op.name())
	}
	if op.kind == opFunc {
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
	case opBulk:
		if !op.dst.sameShape(op.a) || (!op.op.Unary() && !op.dst.sameShape(op.b)) {
			return fmt.Errorf("ambit: Batch.%v: %w (size mismatch or foreign allocation); cooperating bitvectors must be allocated with the same size and base slot on one System (Section 5.4.2)", op.op, ErrShapeMismatch)
		}
	case opCopy:
		if len(op.dst.rows) != len(op.a.rows) {
			return fmt.Errorf("ambit: Batch.Copy: %w (%d vs %d rows)", ErrShapeMismatch, len(op.dst.rows), len(op.a.rows))
		}
	}
	b.ops = append(b.ops, op)
	return nil
}

// bulk records dst = op(a[, b]).
func (b *Batch) bulk(op controller.Op, dst, a, bv *Bitvector) error {
	return b.record(opRecord{kind: opBulk, op: op, dst: dst, a: a, b: bv})
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
	return b.record(opRecord{kind: opCopy, dst: dst, a: src})
}

// Fill records setting every bit of v to the given value.
func (b *Batch) Fill(v *Bitvector, bit bool) error {
	return b.record(opRecord{kind: opFill, dst: v, fill: bit})
}

// Call records dsts... = f(srcs...) for a compiled function (System.Compile).
// Dependencies against other recorded operations follow from the operand row
// sets, so chained calls — one function's outputs feeding another's inputs —
// order correctly while independent calls overlap across banks.  The batch
// keeps its own copies of dsts and srcs, so editing them after Call cannot
// bypass the checks made here.
func (b *Batch) Call(f *Func, dsts []*Bitvector, srcs ...*Bitvector) error {
	if f == nil {
		return fmt.Errorf("ambit: Batch.Call: nil function")
	}
	return b.record(opRecord{kind: opFunc, fn: f, dsts: slices.Clone(dsts), srcs: slices.Clone(srcs)})
}

// Popcount records a CPU-side population count of v.  The returned
// PopcountResult yields its value after Run succeeds.
func (b *Batch) Popcount(v *Bitvector) (*PopcountResult, error) {
	res := &PopcountResult{}
	if err := b.record(opRecord{kind: opPopcount, a: v, result: res}); err != nil {
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
	for i := range b.ops {
		op := &b.ops[i]
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
	lats, rels, err := b.execute()
	if err != nil {
		// Reliability outcomes of completed rows are dropped on error
		// (the timing phase never runs), but an exhausted retry budget is
		// still counted so the failure is visible in the stats.
		if errors.Is(err, ErrUncorrectable) {
			s.statsMu.Lock()
			s.countUncorrectableLocked(nil)
			s.statsMu.Unlock()
		}
		return BatchReport{}, err
	}
	makespan, waves := b.schedule(lats, rels)
	if observing {
		s.observeOp(Tag{}, "batch", -1, len(b.ops), s.stats.ElapsedNS-makespan, makespan, devBefore)
	}
	for i := range b.ops {
		if r := b.ops[i].result; r != nil {
			r.done = true
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
// count.  It returns each item's train latency and, under ECC, each bulk
// item's reliability outcome (rels is nil otherwise), indexed by item, for
// the timing phase.
//
// A cross-bank copy row (a PSM copy through the channel) touches two banks
// in one train, so a program containing one runs all its items as a single
// recording-order stream on the calling goroutine instead (exec.PlanStream).
func (b *Batch) execute() (lats []float64, rels []controller.RowResult, err error) {
	s := b.sys
	n := 0
	crossBank := false
	for i := range b.ops {
		op := &b.ops[i]
		n += op.rows()
		if op.kind == opCopy {
			for r := range op.dst.rows {
				crossBank = crossBank || op.a.rows[r].Bank != op.dst.rows[r].Bank
			}
		}
	}
	st := &batchStreams{b: b, items: make([]batchItem, 0, n), lats: make([]float64, n)}
	if s.cfg.Reliability.ECC {
		st.rels = make([]controller.RowResult, n)
	}
	addrs := make([]dram.PhysAddr, 0, n)
	for i := range b.ops {
		for r, a := range b.ops[i].itemRows() {
			st.items = append(st.items, batchItem{int32(i), int32(r)})
			addrs = append(addrs, a)
		}
	}
	// Run holds execMu exclusively, so no other operation touches the
	// banks and no shard locks are needed; each bank's stream runs on one
	// goroutine, the ShardSet single-writer rule.
	var plan *exec.Plan
	if crossBank {
		plan = s.eng.PlanStream(n)
	} else {
		plan = s.eng.PlanAddrs(addrs)
	}
	defer plan.Release()
	st.ss = s.cfg.Tracer.BeginShards(plan.Banks())
	res := s.eng.RunPlan(plan, st)
	st.ss.MergeAndEmit()
	if res.Err != nil {
		it := st.items[res.ErrRow]
		return nil, nil, fmt.Errorf("ambit: batch %s row %d: %w", b.ops[it.op].label(), it.row, res.Err)
	}
	return st.lats, st.rels, nil
}

// batchStreams runs bank streams of one flattened program through runRows
// (exec.GroupRunner): the stream index is the item index, ascending within
// a stream (recording order), so RunPlan's merge returns the error of the
// lowest failing item.  Each completed row lands in lats, and each ECC bulk
// row's outcome in rels, at its item index.
type batchStreams struct {
	b     *Batch
	items []batchItem
	lats  []float64
	rels  []controller.RowResult
	ss    *obs.ShardSet
}

// RunGroup executes one stream.
func (st *batchStreams) RunGroup(_ int, idx []int) exec.GroupResult {
	return st.b.sys.runRows(idx, st.ss, st)
}

func (st *batchStreams) at(i int) (*opRecord, int) {
	it := st.items[i]
	return &st.b.ops[it.op], int(it.row)
}

// bookRow stores the row's latency; its completion time is the timing
// phase's to compute.
func (st *batchStreams) bookRow(i, _ int, lat float64) float64 {
	st.lats[i] = lat
	return 0
}

func (st *batchStreams) bookReliable(i int, _ dram.PhysAddr, rr controller.RowResult) {
	st.rels[i] = rr
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
func (b *Batch) schedule(lats []float64, rels []controller.RowResult) (float64, int) {
	s := b.sys
	if s.frontier == nil {
		s.frontier = make(map[*Bitvector]vecFrontier)
	}
	fr := s.frontier
	base := s.stats.ElapsedNS
	channelFree := base
	makespan := base
	waves, off := 0, 0 // off: the item index of op's first row
	observing := s.observing()
	for i := range b.ops {
		op := &b.ops[i]
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
		rows := op.itemRows()
		if op.kind == opPopcount {
			bytes := int64(len(rows)) * int64(s.dev.Geometry().RowSizeBytes)
			start = max(start, channelFree)
			end = start + float64(bytes)/s.dev.Timing().ChannelGBps
			channelFree = end
			s.stats.ChannelBytes += bytes
		} else {
			for r, addr := range rows {
				end = max(end, s.reserveRow(addr.Bank, start, lats[off+r]))
			}
			if rels != nil { // zero for all but bulk rows: accounts nothing
				// The metrics view reads these counters under statsMu.
				s.statsMu.Lock()
				for r, addr := range rows {
					s.accountReliabilityLocked(nil, addr, rels[off+r])
				}
				s.statsMu.Unlock()
			}
		}
		off += len(rows)
		s.countOpLocked(nil, op, len(rows), true)
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
		makespan = max(makespan, end)
		// Per-op observation happens here, in the timing phase, where the
		// op's placement on the simulated timeline is known (the functional
		// phase runs concurrently and has no meaningful clock).  Energy is
		// attributed to the enclosing batch span, not per op: device
		// counters advance interleaved across the bank streams.
		if observing {
			name := op.spanName()
			if m := s.cfg.Metrics; m != nil {
				m.ObserveLatencyNS(name, end-opStart)
			}
			if tr := s.cfg.Tracer; tr.Enabled() {
				tr.Emit(obs.Event{
					Kind: obs.KindSpan, Name: name, Bank: -1, Subarray: -1,
					StartNS: opStart, DurNS: end - opStart, Rows: len(rows),
					Comment: "batch",
				})
			}
		}
	}
	clear(fr)
	s.stats.ElapsedNS = makespan
	return makespan - base, waves
}
