package ambit

import (
	"fmt"

	"ambit/internal/compile"
	"ambit/internal/dram"
)

// Expr is a boolean expression DAG over bit-vector variables — the input
// language of System.Compile (re-exported from internal/compile).  Build
// expressions with Var/Lit/Not/And/Or/Xor/Maj and the derived constructors;
// share subexpressions freely (the compiler CSEs structural duplicates too).
type Expr = compile.Expr

// SpillError reports that a function needs more simultaneously-live
// intermediate values than the six designated rows (T0–T3, DCC0, DCC1) can
// hold; it carries the live-range table that shows why.
type SpillError = compile.SpillError

// Var returns the i-th input variable of a compiled function (dense indices:
// a function using Var(3) takes four source bitvectors).
func Var(i int) *Expr { return compile.Var(i) }

// Lit returns the all-zeros or all-ones constant (the control rows C0/C1).
func Lit(b bool) *Expr { return compile.Lit(b) }

// Not returns the complement of x.
func Not(x *Expr) *Expr { return compile.Not(x) }

// And returns the conjunction of xs.
func And(xs ...*Expr) *Expr { return compile.And(xs...) }

// Or returns the disjunction of xs.
func Or(xs ...*Expr) *Expr { return compile.Or(xs...) }

// Xor returns the parity of xs.
func Xor(xs ...*Expr) *Expr { return compile.Xor(xs...) }

// Maj returns the bitwise majority of a, b, c — the native operation of a
// triple-row activation.
func Maj(a, b, c *Expr) *Expr { return compile.Maj(a, b, c) }

// Nand is Not(And(xs...)).
func Nand(xs ...*Expr) *Expr { return compile.Nand(xs...) }

// Nor is Not(Or(xs...)).
func Nor(xs ...*Expr) *Expr { return compile.Nor(xs...) }

// Xnor is Not(Xor(xs...)).
func Xnor(xs ...*Expr) *Expr { return compile.Xnor(xs...) }

// Func is a compiled boolean function: one AAP/TRA command train over
// MAJ+NOT, executable per row like the built-in operations.  A Func is
// immutable and safe for concurrent use; it is bound to the System that
// compiled it.
type Func struct {
	sys  *System
	name string
	c    *compile.Compiled
}

// Compile lowers a multi-output boolean function into a single command train
// using only triple-row-activation majority and dual-contact-cell negation
// (the SIMDRAM-style flow over the Ambit substrate: normalize to the MAJ/NOT
// gate basis, schedule, allocate T0–T3/DCC0/DCC1 as a register file, emit).
// Each expression becomes one output; inputs are the variables referenced.
//
// Structurally identical functions share one compiled train through a
// canonical-key cache, so compiling the same shape repeatedly is cheap.
// A function whose live intermediate values exceed the six designated rows
// does not compile — the substrate has no spill path — and the returned
// *SpillError reports the live ranges that did not fit.
func (s *System) Compile(name string, exprs ...*Expr) (*Func, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("ambit: Compile(%s): no output expressions", name)
	}
	for i, e := range exprs {
		if e == nil {
			return nil, fmt.Errorf("ambit: Compile(%s): output %d is nil", name, i)
		}
	}
	key := compile.Key(exprs...)
	s.funcMu.Lock()
	cached := s.funcCache[key]
	s.funcMu.Unlock()
	if cached != nil {
		return &Func{sys: s, name: name, c: cached}, nil
	}
	c, err := compile.CompileFn(name, exprs...)
	if err != nil {
		return nil, fmt.Errorf("ambit: %w", err)
	}
	s.funcMu.Lock()
	if prior := s.funcCache[c.Key]; prior != nil {
		c = prior // lost a compile race; keep the first train
	} else {
		s.funcCache[c.Key] = c
	}
	s.funcMu.Unlock()
	return &Func{sys: s, name: name, c: c}, nil
}

// CompileAdder compiles a width-bit unsigned ripple-carry adder: inputs are
// the two operands' bit rows LSB-first (a then b, 2*width sources), outputs
// the width sum bits then the carry-out.
func (s *System) CompileAdder(width int) (*Func, error) {
	if width < 1 {
		return nil, fmt.Errorf("ambit: CompileAdder(%d): width must be >= 1", width)
	}
	return s.Compile(fmt.Sprintf("add%d", width), compile.RippleAdd(width)...)
}

// CompileEqual compiles a width-bit equality test over the CompileAdder
// input layout, producing one output (all-ones in lanes where a == b).
func (s *System) CompileEqual(width int) (*Func, error) {
	if width < 1 {
		return nil, fmt.Errorf("ambit: CompileEqual(%d): width must be >= 1", width)
	}
	return s.Compile(fmt.Sprintf("eq%d", width), compile.Equal(width))
}

// CompileLess compiles a width-bit unsigned a < b test over the CompileAdder
// input layout.
func (s *System) CompileLess(width int) (*Func, error) {
	if width < 1 {
		return nil, fmt.Errorf("ambit: CompileLess(%d): width must be >= 1", width)
	}
	return s.Compile(fmt.Sprintf("lt%d", width), compile.Less(width))
}

// Name returns the name given at Compile time.
func (f *Func) Name() string { return f.name }

// NumInputs returns the number of source bitvectors Run expects.
func (f *Func) NumInputs() int { return f.c.NumInputs }

// NumOutputs returns the number of destination bitvectors the function
// produces.
func (f *Func) NumOutputs() int { return f.c.NumOutputs }

// Gates returns the number of MAJ/NOT gates in the compiled schedule.
func (f *Func) Gates() int { return f.c.Gates }

// Steps returns the number of AAP/AP primitives in the per-row train.
func (f *Func) Steps() int { return f.c.Train.Len() }

// RowLatencyNS returns the per-row command-train latency under the system's
// timing and decoder configuration.
func (f *Func) RowLatencyNS() float64 { return f.sys.ctrl.TrainLatencyNS(f.c.Train) }

// Listing renders the compiled command train with symbolic operand names —
// the Figure-8 style listing of the function.
func (f *Func) Listing() string { return f.c.Listing() }

// Run executes dst = f(srcs...) for a single-output function.
func (f *Func) Run(dst *Bitvector, srcs ...*Bitvector) error {
	return f.RunMulti([]*Bitvector{dst}, srcs...)
}

// RunMulti executes dsts... = f(srcs...).  All operands must be co-located
// row for row (allocated with the same size and base slot on the compiling
// System).  A destination may alias a source only if the compiled train
// writes that output after its last read of the source; in-place updates
// that would corrupt a still-needed source are rejected.
//
// Like the built-in operations, rows mapped to different banks execute in
// parallel, with identical results and Stats at every worker count.
// Compiled functions run outside the TMR reliability policy: rows execute
// unverified even when Config.Reliability.ECC is on (fault injection still
// applies, via the step-by-step path).
func (f *Func) RunMulti(dsts []*Bitvector, srcs ...*Bitvector) error {
	return f.sys.runMultiTagged(Tag{}, f, dsts, srcs)
}

// runMultiTagged is RunMulti with a request tag.  Coherence: flush the
// source rows; destination invalidation hides behind the train's B-group
// staging, exactly as for built-in bulk ops.
func (s *System) runMultiTagged(tag Tag, f *Func, dsts []*Bitvector, srcs []*Bitvector) error {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	if err := s.checkFuncOperands(f, dsts, srcs); err != nil {
		return err
	}
	// The runner keeps its own copies of the operand lists, so Run's
	// one-element destination list and variadic sources stay on the stack.
	run := getOpRunner(s, runFunc, tag)
	run.f = f
	run.dsts = append(run.dsts, dsts...)
	run.srcs = append(run.srcs, srcs...)
	rows := dsts[0].rows
	return s.dispatch(run, s.eng.PlanAddrs(rows), len(rows), int64(len(rows))*int64(f.c.NumInputs))
}

// checkFuncOperands validates operand liveness, shape, and aliasing for one
// compiled-function execution.  The caller holds execMu (read or exclusive).
func (s *System) checkFuncOperands(f *Func, dsts, srcs []*Bitvector) error {
	if f.sys != s {
		return fmt.Errorf("ambit: func %s: %w", f.name, ErrForeignSystem)
	}
	if len(srcs) != f.c.NumInputs || len(dsts) != f.c.NumOutputs {
		return fmt.Errorf("ambit: func %s: got %d sources and %d destinations, want %d and %d",
			f.name, len(srcs), len(dsts), f.c.NumInputs, f.c.NumOutputs)
	}
	// Operands are checked in place, destinations first, and the error text
	// is formatted only on failure: the steady-state Run allocates nothing.
	groups := [2][]*Bitvector{dsts, srcs}
	for _, vs := range groups {
		for _, v := range vs {
			if err := s.operandErr(v); err != nil {
				return fmt.Errorf("ambit: func %s: %w", f.name, err)
			}
		}
	}
	for _, vs := range groups {
		for _, v := range vs {
			if !dsts[0].sameShape(v) {
				return fmt.Errorf("ambit: func %s: %w (size mismatch or foreign allocation); operands must be allocated with the same size and base slot on one System (Section 5.4.2)", f.name, ErrShapeMismatch)
			}
		}
	}
	tr := f.c.Train
	for j, d := range dsts {
		for k := j + 1; k < len(dsts); k++ {
			if dsts[k] == d {
				return fmt.Errorf("ambit: func %s: %w (outputs %d and %d are the same bitvector)", f.name, ErrAliasedOperands, j, k)
			}
		}
		for i, src := range srcs {
			if src != d {
				continue
			}
			// In-place is legal only if every read of input i happens
			// before the first write of output j.
			if tr.FirstWriteStep(f.c.NumInputs+j) <= tr.LastReadStep(i) {
				return fmt.Errorf("ambit: func %s: %w (output %d overwrites input %d before its last read)", f.name, ErrAliasedOperands, j, i)
			}
		}
	}
	return nil
}

// fillFuncRow resolves row r's operand vector into buf (inputs then outputs)
// and returns the destination physical address that carries the bank and
// subarray of the whole row group.
func fillFuncRow(f *Func, dsts, srcs []*Bitvector, r int, buf []dram.RowAddr) dram.PhysAddr {
	for i, src := range srcs {
		buf[i] = src.rows[r].Row
	}
	for j, d := range dsts {
		buf[f.c.NumInputs+j] = d.rows[r].Row
	}
	return dsts[0].rows[r]
}

// PopcountVertical computes the per-lane population count across the input
// bitvectors entirely in DRAM: lane l of the result is the number of vs
// whose bit l is set, delivered as ceil(log2(len(vs)+1)) bitvectors holding
// the count's bits LSB-first.  This is the bit-serial counter construction:
// a carry-save tree of compiled full adders (each one train: two TRAs plus
// the parity network), dispatched as one Batch so independent adders overlap
// across banks.  Contrast System.Popcount, which streams the vector to the
// CPU over the channel.
//
// The result vectors (and the temporaries, which are freed before returning)
// are allocated on the System; the caller owns and eventually frees the
// results.
func (s *System) PopcountVertical(vs ...*Bitvector) ([]*Bitvector, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("ambit: PopcountVertical: no inputs")
	}
	sumE, carryE := compile.FullAdder(compile.Var(0), compile.Var(1), compile.Var(2))
	fa, err := s.Compile("csa", sumE, carryE)
	if err != nil {
		return nil, err
	}
	sumE, carryE = compile.HalfAdder(compile.Var(0), compile.Var(1))
	ha, err := s.Compile("ha", sumE, carryE)
	if err != nil {
		return nil, err
	}

	batch := s.NewBatch()
	var temps []*Bitvector
	fail := func(err error) ([]*Bitvector, error) {
		for _, t := range temps {
			s.Free(t)
		}
		return nil, err
	}
	alloc := func() (*Bitvector, error) {
		t, err := s.Alloc(vs[0].Len())
		if err != nil {
			return nil, err
		}
		temps = append(temps, t)
		return t, nil
	}

	// cols[k] holds the weight-2^k partial count bits; full adders compress
	// any three same-weight bits into one of each neighbouring weight.
	cols := [][]*Bitvector{append([]*Bitvector(nil), vs...)}
	for k := 0; k < len(cols); k++ {
		for len(cols[k]) > 1 {
			var in []*Bitvector
			var f *Func
			if len(cols[k]) >= 3 {
				in, cols[k], f = cols[k][:3], cols[k][3:], fa
			} else {
				in, cols[k], f = cols[k][:2], cols[k][2:], ha
			}
			sum, err := alloc()
			if err != nil {
				return fail(err)
			}
			carry, err := alloc()
			if err != nil {
				return fail(err)
			}
			if err := batch.Call(f, []*Bitvector{sum, carry}, in...); err != nil {
				return fail(err)
			}
			cols[k] = append(cols[k], sum)
			if k+1 == len(cols) {
				cols = append(cols, nil)
			}
			cols[k+1] = append(cols[k+1], carry)
		}
	}
	if _, err := batch.Run(); err != nil {
		return fail(err)
	}
	// The survivors of each column are the count bits; everything else was
	// scaffolding.
	outs := make([]*Bitvector, len(cols))
	keep := make(map[*Bitvector]bool, len(cols))
	for k, col := range cols {
		if len(col) != 1 {
			return fail(fmt.Errorf("ambit: PopcountVertical: internal: column %d not fully compressed", k))
		}
		outs[k] = col[0]
		keep[col[0]] = true
	}
	for _, t := range temps {
		if !keep[t] {
			if err := s.Free(t); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
}
