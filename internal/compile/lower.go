package compile

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

// Lowering: schedule the normalized gate DAG, allocate the designated rows
// T0–T3/DCC0/DCC1 as a six-slot register file with liveness-based reuse, and
// emit one AAP/TRA command train.
//
// Every And/Or/Maj gate is one triple-row activation: And/Or are MAJ with a
// control row (C0/C1) as the third operand (Section 3.2), computed in the
// triple {T0,T1,T2} (address B12) or {DCC0,T1,T2} (B14) when an operand
// already lives in — or loads negated into — DCC0.  An interior Not is one
// AAP into a dual-contact cell's n-wordline (Section 4).  A TRA leaves its
// result in all three activated cells, so results stay in the register file
// until a later gate needs the slots; values that would be clobbered while
// still live are copied out to a free slot first.  When no slot is free the
// function does not fit the register file and lowering fails with a
// SpillError carrying the live-range table.
//
// Liveness is a last-use scan over the gates in schedule order: a gate value
// is live until the last gate that reads it as an operand.

const (
	slotT0 = iota
	slotT1
	slotT2
	slotT3
	slotDCC0
	slotDCC1
	numSlots
)

var slotNames = [numSlots]string{"T0", "T1", "T2", "T3", "DCC0", "DCC1"}

// slotB is the single-wordline B-group address that senses or overwrites the
// slot's cell with the stored (non-negated) value: B0–B3 for T0–T3, B4/B6 for
// the DCC d-wordlines (Table 1).
var slotB = [numSlots]int{0, 1, 2, 3, 4, 6}

// slotNegB is the n-wordline address of a DCC slot: writing through it
// captures the complement of the sensed value (Section 4).
var slotNegB = [numSlots]int{-1, -1, -1, -1, 5, 7}

// evictPrefer orders eviction/home candidates: the pure holding slots first
// (T3 and the DCCs are outside the default B12 triple), compute slots last.
var evictPrefer = [numSlots]int{slotT3, slotDCC1, slotDCC0, slotT0, slotT1, slotT2}

func slotBit(s int) uint8 { return 1 << uint(s) }

// LiveRange describes one live compiled value in a spill report.
type LiveRange struct {
	// Value is the rendered definition, e.g. "t7 = t3 & !v2".
	Value string
	// Def and LastUse are gate indices in schedule order.
	Def, LastUse int
	// Slots lists the designated rows currently holding the value.
	Slots string
}

// SpillError reports that a function needs more simultaneously-live values
// than the six designated rows can hold.  The paper's substrate has no
// spill path — there is nowhere to spill to without leaving the subarray —
// so this is a compile error, not a performance cliff.
type SpillError struct {
	// Fn is the function name.
	Fn string
	// Gate is the schedule index of the gate being emitted.
	Gate int
	// GateExpr is the rendered gate, e.g. "t7 = t3 & !v2".
	GateExpr string
	// Needed says which allocation failed.
	Needed string
	// Live is the live-range table at the point of failure.
	Live []LiveRange
}

// Error implements error with the full live-range report.
func (e *SpillError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compile: %s: out of designated rows at gate %d (%s): no free slot for %s; live values:",
		e.Fn, e.Gate, e.GateExpr, e.Needed)
	for _, lr := range e.Live {
		fmt.Fprintf(&b, "\n  %-24s def@%-3d lastUse@%-3d in %s", lr.Value, lr.Def, lr.LastUse, lr.Slots)
	}
	return b.String()
}

// Compiled is the result of compiling a function: the executable train plus
// the operand layout.  Operand slots are inputs first (Var(i) is slot i),
// then outputs in expression order.
type Compiled struct {
	Train      *controller.Train
	NumInputs  int
	NumOutputs int
	// Key canonically identifies the normalized function; structurally
	// identical Compile calls produce equal keys (template cache key).
	Key string
	// Gates is the number of TRA and DCC-negation gates in the schedule.
	Gates int
	// InputNames/OutputNames are the symbolic operand names used in step
	// comments and listings, index-aligned with the operand slots.
	InputNames, OutputNames []string
}

// OperandNames returns the full operand name vector (inputs then outputs).
func (c *Compiled) OperandNames() []string {
	return append(append([]string(nil), c.InputNames...), c.OutputNames...)
}

// Listing renders the compiled command train with symbolic operand names.
func (c *Compiled) Listing() string {
	return c.Train.Listing(c.OperandNames())
}

// Key returns the canonical cache key of the function defined by exprs
// without lowering it: expression lists that normalize to the same structure
// get equal keys, so callers can consult a compiled-function cache before
// paying for scheduling and register allocation.  Nil or empty expression
// lists yield "" (never a valid key).
func Key(exprs ...*Expr) string {
	if len(exprs) == 0 {
		return ""
	}
	for _, e := range exprs {
		if e == nil {
			return ""
		}
	}
	b := newBuilder()
	cache := make(map[*Expr]*node)
	outs := make([]*node, len(exprs))
	for i, e := range exprs {
		outs[i] = b.normalize(e, cache)
	}
	return canonicalKey(b, outs, MaxVar(exprs...)+1)
}

// MaxOperands bounds a compiled function's inputs plus outputs.  A train
// costs memory per operand slot, and the input count is the highest variable
// index plus one, so a single Var(4194304) would otherwise allocate gigabytes.
// The bound is far above any function the library builds (CompileAdder(8)
// has 25 operands).
const MaxOperands = 4096

// CompileFn compiles a multi-output boolean function over bit-vector rows
// into a single AAP/TRA command train.  Inputs are the variables referenced
// by the expressions (dense indices; NumInputs = MaxVar+1); each expression
// becomes one output operand.  Inputs plus outputs may not exceed
// MaxOperands.
func CompileFn(name string, exprs ...*Expr) (*Compiled, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("compile: %s: no output expressions", name)
	}
	for i, e := range exprs {
		if e == nil {
			return nil, fmt.Errorf("compile: %s: output %d is nil", name, i)
		}
	}
	maxVar := MaxVar(exprs...)
	if maxVar >= MaxOperands-len(exprs) {
		return nil, fmt.Errorf("compile: %s: %d inputs and %d outputs exceed the %d-operand limit",
			name, maxVar+1, len(exprs), MaxOperands)
	}
	nIn := maxVar + 1

	b := newBuilder()
	cache := make(map[*Expr]*node)
	outs := make([]*node, len(exprs))
	for i, e := range exprs {
		outs[i] = b.normalize(e, cache)
	}

	l := &lowerer{
		b:    b,
		name: name,
		nIn:  nIn,
		nOut: len(exprs),
		gidx: make(map[*node]int),
		outsOf: func() map[*node][]int {
			m := make(map[*node][]int)
			for j, o := range outs {
				if o.kind == nGate {
					m[o] = append(m[o], j)
				}
			}
			return m
		}(),
	}
	for s := range l.slotVal {
		l.slotVal[s] = -1
	}
	l.schedule(outs)
	l.liveness()

	for gi := range l.gates {
		if err := l.emitGate(gi); err != nil {
			return nil, err
		}
	}
	l.cur = len(l.gates)
	if err := l.emitDirectOutputs(outs); err != nil {
		return nil, err
	}

	tr, err := controller.NewTrain(name, nIn+len(exprs), l.steps)
	if err != nil {
		return nil, fmt.Errorf("compile: %s: %w", name, err)
	}
	c := &Compiled{
		Train:       tr,
		NumInputs:   nIn,
		NumOutputs:  len(exprs),
		Key:         canonicalKey(b, outs, nIn),
		Gates:       len(l.gates),
		InputNames:  make([]string, nIn),
		OutputNames: make([]string, len(exprs)),
	}
	for i := range c.InputNames {
		c.InputNames[i] = fmt.Sprintf("v%d", i)
	}
	for j := range c.OutputNames {
		c.OutputNames[j] = fmt.Sprintf("out%d", j)
	}
	return c, nil
}

// lowerer is the emission state: the gate schedule, liveness, the slot map
// (slotVal[s] = gate value resident in slot s, -1 free/untracked), and the
// per-value slot bitmask.
type lowerer struct {
	b         *builder
	name      string
	nIn, nOut int
	gates     []*node
	gidx      map[*node]int
	lastUse   []int
	outsOf    map[*node][]int
	steps     []controller.TrainStep
	slotVal   [numSlots]int
	valMask   []uint8
	cur       int
}

// schedule collects the gate nodes in DFS post-order from the outputs: every
// gate appears after its operands, giving a topological order that evaluates
// each shared subterm once, at its first use.  Within a gate the deeper
// operand subtree is visited first (Sethi–Ullman ordering): shallow siblings
// then compute right before their consumer instead of sitting live across an
// entire deep subtree, which is what lets linear recurrences like a carry or
// borrow chain run at constant register pressure.
func (l *lowerer) schedule(outs []*node) {
	depth := make(map[*node]int)
	var dep func(n *node) int
	dep = func(n *node) int {
		if n.kind != nGate {
			return 0
		}
		if d, ok := depth[n]; ok {
			return d
		}
		d := 0
		for i := 0; i < n.n; i++ {
			if x := dep(n.args[i]); x > d {
				d = x
			}
		}
		d++
		depth[n] = d
		return d
	}
	visited := make(map[*node]bool)
	var visit func(n *node)
	visit = func(n *node) {
		if n.kind != nGate || visited[n] {
			return
		}
		visited[n] = true
		order := make([]int, n.n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return dep(n.args[order[a]]) > dep(n.args[order[b]])
		})
		for _, i := range order {
			visit(n.args[i])
		}
		l.gidx[n] = len(l.gates)
		l.gates = append(l.gates, n)
	}
	for _, o := range outs {
		visit(o)
	}
	l.valMask = make([]uint8, len(l.gates))
}

// liveness derives each gate value's last use: the last gate that reads it
// as an operand, or the gate itself when none does.  Schedule order puts
// every consumer after its operands, so the last assignment is the latest.
func (l *lowerer) liveness() {
	l.lastUse = make([]int, len(l.gates))
	for i, g := range l.gates {
		l.lastUse[i] = i
		for _, a := range g.args[:g.n] {
			if a.kind == nGate {
				l.lastUse[l.gidx[a]] = i
			}
		}
	}
}

func (l *lowerer) valName(v int) string { return fmt.Sprintf("t%d", v) }

func (l *lowerer) inName(v int) string { return fmt.Sprintf("v%d", v) }

func (l *lowerer) outName(j int) string { return fmt.Sprintf("out%d", j) }

func (l *lowerer) outOp(j int) int { return l.nIn + j }

// live reports whether value v must survive past the current gate.
func (l *lowerer) live(v int) bool { return l.lastUse[v] > l.cur }

func (l *lowerer) dropSlot(s int) {
	if v := l.slotVal[s]; v >= 0 {
		l.valMask[v] &^= slotBit(s)
	}
	l.slotVal[s] = -1
}

// addCopy records that slot s now holds a copy of value v.
func (l *lowerer) addCopy(s, v int) {
	l.dropSlot(s)
	l.slotVal[s] = v
	l.valMask[v] |= slotBit(s)
}

// markScratch records that slot s holds untracked data (a loaded leaf or
// constant, or negation residue).
func (l *lowerer) markScratch(s int) { l.dropSlot(s) }

func (l *lowerer) emitAAP(a1 dram.RowAddr, op1 int, a2 dram.RowAddr, op2 int, comment string) {
	l.steps = append(l.steps, controller.TrainStep{
		Kind: controller.StepAAP, A1: a1, A2: a2, Op1: op1, Op2: op2, Comment: comment,
	})
}

func (l *lowerer) emitAP(a1 dram.RowAddr, comment string) {
	l.steps = append(l.steps, controller.TrainStep{
		Kind: controller.StepAP, A1: a1, Op1: -1, Op2: -1, Comment: comment,
	})
}

func readAddr(s int) dram.RowAddr { return dram.B(slotB[s]) }

func writeAddr(s int) dram.RowAddr { return dram.B(slotB[s]) }

func negAddr(s int) dram.RowAddr { return dram.B(slotNegB[s]) }

// freeSlot picks a slot outside exclude that is free, holds a dead value, or
// holds a live value that also survives in some slot outside exclude.
func (l *lowerer) freeSlot(exclude uint8) (int, bool) {
	for _, s := range evictPrefer {
		if exclude&slotBit(s) != 0 {
			continue
		}
		v := l.slotVal[s]
		if v < 0 || !l.live(v) || l.valMask[v]&^(slotBit(s)|exclude) != 0 {
			return s, true
		}
	}
	return -1, false
}

// ensureRoom makes slot s safe to clobber: if it holds a live value whose
// every copy sits in the clobber set, the value is copied out to a free slot
// outside exclude first.
func (l *lowerer) ensureRoom(s int, clobber, exclude uint8) error {
	v := l.slotVal[s]
	if v < 0 || !l.live(v) {
		return nil
	}
	if l.valMask[v]&^clobber != 0 {
		return nil // survives in a slot this gate does not touch
	}
	f, ok := l.freeSlot(exclude)
	if !ok {
		return l.spill("a home to preserve " + l.valName(v))
	}
	l.emitAAP(readAddr(s), -1, writeAddr(f), -1, slotNames[f]+" = "+l.valName(v))
	l.addCopy(f, v)
	return nil
}

// spill builds the SpillError with the live-range table.
func (l *lowerer) spill(needed string) error {
	gateExpr := "output stores"
	if l.cur < len(l.gates) {
		gateExpr = l.valName(l.cur) + " = " + renderNode(l.gates[l.cur])
	}
	e := &SpillError{Fn: l.name, Gate: l.cur, GateExpr: gateExpr, Needed: needed}
	for v := range l.gates {
		if l.valMask[v] == 0 || l.lastUse[v] < l.cur {
			continue
		}
		var slots []string
		for s := 0; s < numSlots; s++ {
			if l.valMask[v]&slotBit(s) != 0 {
				slots = append(slots, slotNames[s])
			}
		}
		e.Live = append(e.Live, LiveRange{
			Value:   l.valName(v) + " = " + renderNode(l.gates[v]),
			Def:     v,
			LastUse: l.lastUse[v],
			Slots:   strings.Join(slots, ","),
		})
	}
	sort.Slice(e.Live, func(i, j int) bool { return e.Live[i].Def < e.Live[j].Def })
	return e
}

// operand is one TRA input in lowered form.
type operand struct {
	isVal   bool
	v       int // gate value index
	isLeaf  bool
	varIdx  int
	neg     bool
	isConst bool
	cval    bool

	pos     int // assigned triple position, -1
	claimed bool
	src     int // source slot for an unclaimed value operand, -1
}

func (l *lowerer) describe(n *node) operand {
	switch n.kind {
	case nLeaf:
		return operand{isLeaf: true, varIdx: n.varIdx, neg: n.neg, pos: -1, src: -1}
	case nConst:
		return operand{isConst: true, cval: n.val, pos: -1, src: -1}
	}
	return operand{isVal: true, v: l.gidx[n], pos: -1, src: -1}
}

func (o operand) name(l *lowerer) string {
	switch {
	case o.isVal:
		return l.valName(o.v)
	case o.isConst:
		if o.cval {
			return "1"
		}
		return "0"
	case o.neg:
		return "!" + l.inName(o.varIdx)
	}
	return l.inName(o.varIdx)
}

// emitGate lowers one gate of the schedule.
func (l *lowerer) emitGate(gi int) error {
	l.cur = gi
	g := l.gates[gi]
	if g.gk == gNot {
		return l.emitNotGate(gi, g)
	}

	// Operand descriptors: And/Or are MAJ with the control row as third
	// input (Section 3.2).
	var ods [3]operand
	switch g.gk {
	case gAnd:
		ods = [3]operand{l.describe(g.args[0]), l.describe(g.args[1]), {isConst: true, cval: false, pos: -1, src: -1}}
	case gOr:
		ods = [3]operand{l.describe(g.args[0]), l.describe(g.args[1]), {isConst: true, cval: true, pos: -1, src: -1}}
	default: // gMaj
		ods = [3]operand{l.describe(g.args[0]), l.describe(g.args[1]), l.describe(g.args[2])}
	}

	// Triple selection: B14 {DCC0,T1,T2} when an operand value already
	// lives in DCC0, or a complemented leaf can load straight into it;
	// otherwise B12 {T0,T1,T2}.
	useB14 := false
	for _, o := range ods {
		if o.isVal && l.valMask[o.v]&slotBit(slotDCC0) != 0 {
			useB14 = true
			break
		}
	}
	if !useB14 {
		for _, o := range ods {
			if o.isLeaf && o.neg {
				useB14 = true
				break
			}
		}
	}
	triple := [3]int{slotT0, slotT1, slotT2}
	traAddr := dram.B(12)
	if useB14 {
		triple = [3]int{slotDCC0, slotT1, slotT2}
		traAddr = dram.B(14)
	}
	var tripleMask uint8
	for _, s := range triple {
		tripleMask |= slotBit(s)
	}

	// Claim triple slots already holding operand values.
	var posTaken [3]bool
	for oi := range ods {
		o := &ods[oi]
		if !o.isVal {
			continue
		}
		for p, sl := range triple {
			if !posTaken[p] && l.valMask[o.v]&slotBit(sl) != 0 {
				o.pos, o.claimed, o.src = p, true, sl
				posTaken[p] = true
				break
			}
		}
	}
	// Pin the first complemented leaf to the DCC0 position of B14.
	if useB14 && !posTaken[0] {
		for oi := range ods {
			o := &ods[oi]
			if o.isLeaf && o.neg && o.pos < 0 {
				o.pos = 0
				posTaken[0] = true
				break
			}
		}
	}
	// Assign everything else to the remaining positions.
	for oi := range ods {
		o := &ods[oi]
		if o.pos >= 0 {
			continue
		}
		for p := range posTaken {
			if !posTaken[p] {
				o.pos, posTaken[p] = p, true
				break
			}
		}
	}

	// Reserve the source slot of each unclaimed value operand so neither
	// evictions nor negated-leaf bounces overwrite it before its load.
	reserved := tripleMask
	for oi := range ods {
		o := &ods[oi]
		if o.isVal && !o.claimed {
			mask := l.valMask[o.v]
			if mask == 0 {
				return fmt.Errorf("compile: %s: internal: %s has no live copy", l.name, l.valName(o.v))
			}
			o.src = bits.TrailingZeros8(mask)
			reserved |= slotBit(o.src)
		}
	}

	// Copy out live values whose only copies sit in the triple.
	for _, sl := range triple {
		if err := l.ensureRoom(sl, tripleMask, reserved); err != nil {
			return err
		}
	}

	// Materialize the unclaimed operands.
	for oi := range ods {
		o := &ods[oi]
		if o.claimed {
			continue
		}
		sl := triple[o.pos]
		switch {
		case o.isVal:
			l.emitAAP(readAddr(o.src), -1, writeAddr(sl), -1, slotNames[sl]+" = "+l.valName(o.v))
			l.addCopy(sl, o.v)
		case o.isConst:
			ctrl := dram.C(0)
			if o.cval {
				ctrl = dram.C(1)
			}
			l.emitAAP(ctrl, -1, writeAddr(sl), -1, slotNames[sl]+" = "+o.name(l))
			l.markScratch(sl)
		case !o.neg:
			l.emitAAP(dram.RowAddr{}, o.varIdx, writeAddr(sl), -1, slotNames[sl]+" = "+l.inName(o.varIdx))
			l.markScratch(sl)
		case sl == slotDCC0:
			l.emitAAP(dram.RowAddr{}, o.varIdx, negAddr(slotDCC0), -1, "DCC0 = !"+l.inName(o.varIdx))
			l.markScratch(sl)
		default:
			// A complemented leaf bound for a T slot bounces through a
			// dual-contact row: capture the negation, then copy it over.
			d := -1
			for _, cand := range [2]int{slotDCC1, slotDCC0} {
				if reserved&slotBit(cand) != 0 {
					continue
				}
				// The clobber set must include the triple: a value whose
				// only copies are here and in a triple slot survives
				// neither.
				if err := l.ensureRoom(cand, tripleMask|slotBit(cand), reserved|slotBit(cand)); err != nil {
					continue
				}
				d = cand
				break
			}
			if d < 0 {
				return l.spill("a dual-contact row to negate " + l.inName(o.varIdx))
			}
			l.emitAAP(dram.RowAddr{}, o.varIdx, negAddr(d), -1, slotNames[d]+" = !"+l.inName(o.varIdx))
			l.markScratch(d)
			l.emitAAP(readAddr(d), -1, writeAddr(sl), -1, slotNames[sl]+" = "+slotNames[d])
			l.markScratch(sl)
		}
	}

	// The TRA itself, fused with the first output store when the gate is an
	// output.  The result is restored into all three activated cells, so it
	// stays resident in the triple afterwards.
	comment := l.gateComment(g, ods, triple)
	outs := l.outsOf[g]
	if len(outs) > 0 {
		l.emitAAP(traAddr, -1, dram.RowAddr{}, l.outOp(outs[0]), l.outName(outs[0])+" = "+comment)
		for _, o := range outs[1:] {
			l.emitAAP(readAddr(triple[0]), -1, dram.RowAddr{}, l.outOp(o),
				l.outName(o)+" = "+slotNames[triple[0]])
		}
	} else {
		l.emitAP(traAddr, l.valName(gi)+" = "+comment)
	}
	for _, sl := range triple {
		l.addCopy(sl, gi)
	}
	return nil
}

// gateComment renders the Figure-8 style effect annotation of a TRA from the
// operands' assigned slots.
func (l *lowerer) gateComment(g *node, ods [3]operand, triple [3]int) string {
	slotOf := func(o operand) string { return slotNames[triple[o.pos]] }
	switch g.gk {
	case gAnd:
		return slotOf(ods[0]) + " & " + slotOf(ods[1])
	case gOr:
		return slotOf(ods[0]) + " | " + slotOf(ods[1])
	}
	return "MAJ(" + slotOf(ods[0]) + ", " + slotOf(ods[1]) + ", " + slotOf(ods[2]) + ")"
}

// emitNotGate lowers an interior Not: one AAP from the operand's slot into a
// dual-contact row's n-wordline, capturing the complement (Section 5.2).
func (l *lowerer) emitNotGate(gi int, g *node) error {
	v := l.gidx[g.args[0]]
	mask := l.valMask[v]
	if mask == 0 {
		return fmt.Errorf("compile: %s: internal: %s has no live copy", l.name, l.valName(v))
	}
	d := -1
	for _, cand := range [2]int{slotDCC0, slotDCC1} {
		if mask&slotBit(cand) != 0 {
			// The candidate holds the operand itself; only usable if
			// another copy exists to read from.
			if mask&^slotBit(cand) == 0 {
				continue
			}
			d = cand
			break
		}
		if err := l.ensureRoom(cand, slotBit(cand), mask|slotBit(cand)); err != nil {
			continue
		}
		d = cand
		break
	}
	if d < 0 {
		return l.spill("a dual-contact row for " + l.valName(gi))
	}
	src := bits.TrailingZeros8(mask &^ slotBit(d))
	l.emitAAP(readAddr(src), -1, negAddr(d), -1, slotNames[d]+" = !"+l.valName(v))
	l.addCopy(d, gi)
	for _, o := range l.outsOf[g] {
		l.emitAAP(readAddr(d), -1, dram.RowAddr{}, l.outOp(o), l.outName(o)+" = "+slotNames[d])
	}
	return nil
}

// emitDirectOutputs stores outputs whose normalized form is a leaf or a
// constant (gate outputs were stored when their gate executed).
func (l *lowerer) emitDirectOutputs(outs []*node) error {
	for j, n := range outs {
		switch n.kind {
		case nGate:
			continue
		case nConst:
			ctrl := dram.C(0)
			lit := "0"
			if n.val {
				ctrl, lit = dram.C(1), "1"
			}
			l.emitAAP(ctrl, -1, dram.RowAddr{}, l.outOp(j), l.outName(j)+" = "+lit)
		case nLeaf:
			if !n.neg {
				l.emitAAP(dram.RowAddr{}, n.varIdx, dram.RowAddr{}, l.outOp(j),
					l.outName(j)+" = "+l.inName(n.varIdx))
				continue
			}
			// A complemented input copies through a DCC pair, exactly the
			// Figure-8 not train.  Past the last gate nothing is live, so
			// DCC0 is always reusable.
			l.ensureRoom(slotDCC0, slotBit(slotDCC0), slotBit(slotDCC0))
			l.emitAAP(dram.RowAddr{}, n.varIdx, negAddr(slotDCC0), -1, "DCC0 = !"+l.inName(n.varIdx))
			l.markScratch(slotDCC0)
			l.emitAAP(readAddr(slotDCC0), -1, dram.RowAddr{}, l.outOp(j), l.outName(j)+" = DCC0")
		}
	}
	return nil
}
