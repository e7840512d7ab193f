package controller

import "ambit/internal/dram"

// Net-effect compilation of command trains.
//
// A compiled train's end state is a closed-form function of the cells it
// reads: every TRA computes a majority of values the train staged itself,
// every n-wordline write is a complement, and every copy just moves a value.
// NewTrain runs the step sequence once over symbolic cell contents, following
// the Table-1 wordline model exactly:
//
//   - a first ACTIVATE of one wordline senses its cell (an n-wordline presents
//     the complement) and restores it unchanged;
//   - a triple-row activation senses the majority and restores it into all
//     three cells;
//   - C0/C1 sense the constants 0 and 1;
//   - the second ACTIVATE of an AAP writes the sensed value into each raised
//     cell, complemented through an n-wordline.
//
// The values are hash-consed into a small DAG and folded as they are built
// (MAJ with a constant is AND/OR, MAJ(x,x,y) = x, MAJ(x,!x,y) = y, double
// complements cancel), so each cell the train leaves changed — T0–T3,
// DCC0/1, written operands — ends up as one reference into a DAG over the
// initial contents of the cells the train reads.  ExecuteTrain then
// evaluates that DAG chunk by chunk into a per-bank register file: one read
// per operand row, one write per changed row, where streaming the steps
// rewrites every staged row once per step.

// netChunk is the evaluation granularity in words: one 8 KB row of the
// default geometry.  Smaller chunks keep the registers in L1 but pay the
// instruction dispatch and short store copies once per chunk; on the
// bitmap-direct workload 256-word chunks made Func.Run ~10% slower.  A large
// function's registers still stay cache-resident at this size (the 16-bit
// ripple adder needs 19, i.e. 152 KB).
const netChunk = 1024

// Cells of the symbolic model: the four designated rows, the two dual-contact
// rows, then one cell per operand slot.
const (
	cellT0       = 0
	cellDCC0     = 4
	cellOperand0 = 6
)

// cellOf maps a B-group wordline to its cell (both DCC wordlines reach the
// same capacitor).
func cellOf(wl dram.Wordline) int {
	if wl.Kind == dram.WLT {
		return cellT0 + wl.Index
	}
	return cellDCC0 + wl.Index
}

// cellWordline returns the wordline whose storage backs cell c for the given
// operand rows.
func cellWordline(c int, rows []dram.RowAddr) dram.Wordline {
	switch {
	case c >= cellOperand0:
		return dram.Wordline{Kind: dram.WLData, Index: rows[c-cellOperand0].Index}
	case c >= cellDCC0:
		return dram.Wordline{Kind: dram.WLDCCData, Index: c - cellDCC0}
	}
	return dram.Wordline{Kind: dram.WLT, Index: c - cellT0}
}

// netRef references a DAG node with a complement bit: node<<1 | negated.
// Node 0 is the constant zero, so ref 0 reads as 0 and ref 1 as 1.
type netRef uint32

const (
	netZero netRef = 0
	netOne  netRef = 1
)

func (r netRef) node() int { return int(r >> 1) }

func (r netRef) not() netRef { return r ^ 1 }

// mask returns the word-wide complement mask of the reference's polarity.
func (r netRef) mask() uint64 { return -uint64(r & 1) }

// netKind is a DAG node's operation; netCopy only appears as an instruction
// (materializing a leaf into a register).
type netKind uint8

const (
	netConst netKind = iota
	netLeaf
	netAnd
	netOr
	netMaj
	netCopy
)

// netNode is one hash-consed DAG node: a leaf (the initial contents of a
// cell) or a gate over sorted argument references.
type netNode struct {
	kind netKind
	cell int
	args [3]netRef
}

// netBuilder hash-conses and folds DAG nodes.
type netBuilder struct {
	nodes []netNode
	index map[netNode]netRef
}

func (b *netBuilder) intern(n netNode) netRef {
	if r, ok := b.index[n]; ok {
		return r
	}
	r := netRef(len(b.nodes) << 1)
	b.nodes = append(b.nodes, n)
	b.index[n] = r
	return r
}

func (b *netBuilder) and(x, y netRef) netRef {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == netZero || x == y.not():
		return netZero
	case x == netOne || x == y:
		return y
	}
	return b.intern(netNode{kind: netAnd, args: [3]netRef{x, y}})
}

func (b *netBuilder) or(x, y netRef) netRef {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == netOne || x == y.not():
		return netOne
	case x == netZero || x == y:
		return y
	}
	return b.intern(netNode{kind: netOr, args: [3]netRef{x, y}})
}

func (b *netBuilder) maj(x, y, z netRef) netRef {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y, z = z, y
	}
	if x > y {
		x, y = y, x
	}
	switch {
	case x == y || x == z:
		return x
	case y == z:
		return y
	case x == y.not(): // a node's two polarities sort adjacently
		return z
	case y == z.not():
		return x
	case x == netZero:
		return b.and(y, z)
	case x == netOne:
		return b.or(y, z)
	}
	return b.intern(netNode{kind: netMaj, args: [3]netRef{x, y, z}})
}

// netInst is one chunk-wide instruction: dst = kind(args[:n]), each argument
// XORed with its complement mask.  Operands index the chunk's view table —
// leaf rows first, then registers.  AND and OR take two or three arguments,
// MAJ three, copy one.
type netInst struct {
	kind netKind
	n    int
	dst  int
	args [3]int
	m    [3]uint64
}

// netStore writes one changed cell per chunk: from a view — a register, an
// operand leaf row or an earlier store's row — complemented by m, or, when
// src < 0, the constant m.
type netStore struct {
	cell int
	src  int
	m    uint64
}

// netProgram is a train's compiled net effect.
type netProgram struct {
	leaves []int // cells whose initial contents the program reads
	insts  []netInst
	stores []netStore
	regs   int
}

// compileNet runs the train symbolically and compiles its net effect; ok is
// false when a step has no defined template-level semantics (two-wordline
// sensing).
func compileNet(operands int, steps []trainStep) (*netProgram, bool) {
	b := &netBuilder{nodes: []netNode{{kind: netConst}}, index: make(map[netNode]netRef)}
	ncell := cellOperand0 + operands
	st := make([]netRef, ncell)
	leafRef := make([]netRef, ncell)
	for c := range st {
		st[c] = b.intern(netNode{kind: netLeaf, cell: c})
		leafRef[c] = st[c]
	}
	for _, s := range steps {
		// Sense.  amps is the cell the row buffer aliases after a
		// single-wordline non-negated sense (or -1): a complemented write
		// into that cell also flips the latched value seen by the
		// remaining wordlines of the same ACTIVATE, exactly as in
		// Subarray.overwrite.
		var v netRef
		amps := -1
		switch {
		case s.Op1 >= 0:
			amps = cellOperand0 + s.Op1
			v = st[amps]
		case s.A1.Group == dram.GroupC:
			v = netZero
			if s.A1.Index == 1 {
				v = netOne
			}
		default:
			wls := dram.BGroupWordlines(s.A1.Index)
			switch len(wls) {
			case 1:
				c := cellOf(wls[0])
				v = st[c]
				if wls[0].Negated() {
					v = v.not()
				} else {
					amps = c
				}
			case 3:
				var x [3]netRef
				for k, wl := range wls {
					x[k] = st[cellOf(wl)]
					if wl.Negated() {
						x[k] = x[k].not()
					}
				}
				v = b.maj(x[0], x[1], x[2])
				for _, wl := range wls {
					st[cellOf(wl)] = v
					if wl.Negated() {
						st[cellOf(wl)] = v.not()
					}
				}
			default:
				return nil, false
			}
		}
		if s.Kind != StepAAP {
			continue
		}
		// Copy: the second ACTIVATE overwrites the raised cells.
		if s.Op2 >= 0 {
			st[cellOperand0+s.Op2] = v
			continue
		}
		for _, wl := range dram.BGroupWordlines(s.A2.Index) {
			c := cellOf(wl)
			switch {
			case c == amps && wl.Negated():
				v = v.not()
				st[c] = v
			case c == amps:
			case wl.Negated():
				st[c] = v.not()
			default:
				st[c] = v
			}
		}
	}
	return b.program(st, leafRef), true
}

// program lowers the final cell state into instructions over a register
// file: gates in creation (topological) order, registers reused after a
// value's last use, store sources held to the end of the chunk.
func (b *netBuilder) program(st, leafRef []netRef) *netProgram {
	p := &netProgram{}
	type storeSrc struct {
		cell int
		ref  netRef
	}
	var changed []storeSrc
	for c, r := range st {
		if r != leafRef[c] {
			changed = append(changed, storeSrc{c, r})
		}
	}

	// Reachability and use counts from the stores.
	need := make([]bool, len(b.nodes))
	uses := make([]int, len(b.nodes))
	var mark func(n int)
	mark = func(n int) {
		uses[n]++
		if need[n] {
			return
		}
		need[n] = true
		nd := &b.nodes[n]
		if nd.kind >= netAnd {
			for _, a := range nd.args[:nd.arity()] {
				mark(a.node())
			}
		}
	}
	for _, ch := range changed {
		mark(ch.ref.node())
	}
	isGate := func(n int) bool { return need[n] && b.nodes[n].kind >= netAnd }

	// Flatten: an uncomplemented AND (OR) argument used only here, whose
	// own arguments fit, merges into its parent, so an AND of three rows
	// is one pass over three streams instead of two passes.
	args := make([][]netRef, len(b.nodes))
	inlined := make([]bool, len(b.nodes))
	for n := range b.nodes {
		if !isGate(n) {
			continue
		}
		nd := &b.nodes[n]
		var flat []netRef
		for k, a := range nd.args[:nd.arity()] {
			c := a.node()
			if (nd.kind == netAnd || nd.kind == netOr) && a&1 == 0 && b.nodes[c].kind == nd.kind && uses[c] == 1 {
				if m, ok := mergeArgs(flat, args[c], nd.args[k+1:nd.arity()]); ok {
					flat = m
					inlined[c] = true
					continue
				}
			}
			flat = addArg(flat, a)
		}
		args[n] = flat
	}

	// Views: leaf rows first, then one per changed cell's row, then the
	// registers.  A gate whose value a designated cell keeps uncomplemented
	// is computed straight into that cell's row — its home — when the
	// program never reads the cell's initial contents, so the row is
	// written once per chunk instead of being copied from a register.
	view := make([]int, len(b.nodes))
	leafCell := make([]bool, len(st))
	for n := range b.nodes {
		view[n] = -1
		if need[n] && b.nodes[n].kind == netLeaf {
			view[n] = len(p.leaves)
			p.leaves = append(p.leaves, b.nodes[n].cell)
			leafCell[b.nodes[n].cell] = true
		}
	}
	nLeaves := len(p.leaves)
	regBase := nLeaves + len(changed)
	home := make(map[int]int) // gate node -> its home's store index
	isHome := make([]bool, len(changed))
	for i, ch := range changed {
		n := ch.ref.node()
		if _, ok := home[n]; !ok && isGate(n) && ch.ref&1 == 0 && ch.cell < cellOperand0 && !leafCell[ch.cell] {
			home[n], isHome[i] = i, true
		}
	}

	// Last use of each gate by a later gate; store sources live to the end.
	const forever = int(^uint(0) >> 1)
	lastUse := make([]int, len(b.nodes))
	for n := range b.nodes {
		if isGate(n) && !inlined[n] {
			for _, a := range args[n] {
				lastUse[a.node()] = n // nodes are visited in increasing order
			}
		}
	}
	for _, ch := range changed {
		lastUse[ch.ref.node()] = forever
	}

	var free []int
	alloc := func() int {
		if k := len(free); k > 0 {
			r := free[k-1]
			free = free[:k-1]
			return r
		}
		p.regs++
		return regBase + p.regs - 1
	}
	for n := range b.nodes {
		if !isGate(n) || inlined[n] {
			continue
		}
		in := netInst{kind: b.nodes[n].kind, n: len(args[n])}
		for k, a := range args[n] {
			in.args[k], in.m[k] = view[a.node()], a.mask()
			if isGate(a.node()) && lastUse[a.node()] == n && view[a.node()] >= regBase {
				free = append(free, view[a.node()])
			}
		}
		// The kernels read every argument word before writing the
		// destination word at the same index, so the destination may
		// reuse a register freed by this instruction.
		if i, ok := home[n]; ok {
			in.dst = nLeaves + i
		} else {
			in.dst = alloc()
		}
		view[n] = in.dst
		p.insts = append(p.insts, in)
	}

	// Stores, in cell order: the designated cells, then the operands.  A
	// home was written by its instruction.  A store whose value an earlier
	// store holds copies that store's row.  A designated cell whose value
	// is an operand leaf reads the leaf's row directly: designated cells
	// never share a row with an operand, and their stores run before the
	// chunk's operand stores.  Any other leaf value is materialized into a
	// register first, since the store phase may overwrite the leaf's row
	// before copying from it.
	first := make(map[netRef]int)
	leafReg := make(map[int]int)
	for i, ch := range changed {
		n := ch.ref.node()
		s := netStore{cell: ch.cell, src: view[n], m: ch.ref.mask()}
		j, dup := first[ch.ref]
		switch {
		case isHome[i]:
		case b.nodes[n].kind == netConst:
			s.src = -1
		case dup:
			s.src, s.m = nLeaves+j, 0
		case b.nodes[n].kind == netLeaf && ch.cell < cellOperand0 && b.nodes[n].cell >= cellOperand0:
		case b.nodes[n].kind == netLeaf:
			r, ok := leafReg[n]
			if !ok {
				r = alloc()
				leafReg[n] = r
				p.insts = append(p.insts, netInst{kind: netCopy, n: 1, dst: r, args: [3]int{view[n]}})
			}
			s.src = r
		}
		if !dup {
			first[ch.ref] = i
		}
		p.stores = append(p.stores, s)
	}
	return p
}

// addArg appends r unless it is already present (AND and OR are idempotent).
func addArg(args []netRef, r netRef) []netRef {
	for _, x := range args {
		if x == r {
			return args
		}
	}
	return append(args, r)
}

// mergeArgs returns flat extended by a merged child's arguments, or false
// when the merge would leave the parent with more than three distinct
// arguments, counting its remaining ones, or with one node in both
// polarities.  Every node appears at most once per instruction, which is
// what lets the register allocator free an argument's register exactly once.
func mergeArgs(flat, child, rest []netRef) ([]netRef, bool) {
	out := append([]netRef(nil), flat...)
	for _, x := range child {
		out = addArg(out, x)
	}
	all := out
	for _, r := range rest {
		all = addArg(append([]netRef(nil), all...), r)
	}
	if len(all) > 3 {
		return nil, false
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].node() == all[j].node() {
				return nil, false
			}
		}
	}
	return out, true
}

// arity returns the number of arguments of a gate node.
func (n *netNode) arity() int {
	if n.kind == netMaj {
		return 3
	}
	return 2
}

// netScratch is one bank's evaluation scratch: the view table (leaf rows,
// store rows, then registers) and the register file.  The caller serializes
// per-bank access, so each bank owns its scratch outright.
type netScratch struct {
	views [][]uint64
	regs  []uint64
}

// run evaluates the program on one subarray's rows, chunk by chunk.  Within
// a chunk every row read precedes every write to that row: instructions
// read leaf rows, registers and homes written earlier in the chunk, and
// write registers and homes, which no instruction reads as a leaf, reading
// each argument word before writing the destination word at the same index;
// stores read registers, rows already stored, and operand rows no operand
// store has written yet.  Words at different indices never interact, so the
// result equals applying the steps in order, including when a written
// operand row is also read through another slot, provided every such read
// precedes the write in the train (see Train.layoutFusable).  Registers are
// row-sized, so every view is sliced by the same [lo:hi] window.
func (p *netProgram) run(sa *dram.Subarray, rows []dram.RowAddr, words int, sc *netScratch) {
	nl := len(p.leaves)
	base := nl + len(p.stores)
	if nv := base + p.regs; cap(sc.views) < nv {
		sc.views = make([][]uint64, nv)
	}
	if len(sc.regs) < p.regs*words {
		sc.regs = make([]uint64, p.regs*words)
	}
	v := sc.views[:base+p.regs]
	for i, c := range p.leaves {
		v[i] = sa.CellData(cellWordline(c, rows))
	}
	for i := range p.stores {
		v[nl+i] = sa.CellData(cellWordline(p.stores[i].cell, rows))
	}
	for r := 0; r < p.regs; r++ {
		v[base+r] = sc.regs[r*words : (r+1)*words]
	}
	for lo := 0; lo < words; lo += netChunk {
		hi := min(lo+netChunk, words)
		for i := range p.insts {
			p.insts[i].exec(v, lo, hi)
		}
		for i := range p.stores {
			s := &p.stores[i]
			d := v[nl+i][lo:hi]
			switch {
			case s.src == nl+i: // a home, written by its instruction
			case s.src < 0:
				for w := range d {
					d[w] = s.m
				}
			case s.m == 0:
				copy(d, v[s.src][lo:hi])
			default:
				x := v[s.src][lo:hi]
				x = x[:len(d)]
				for w := range d {
					d[w] = ^x[w]
				}
			}
		}
	}
}

// exec runs one instruction over a chunk.  Each kind has an uncomplemented
// fast path; the general loops XOR every argument with its mask.
func (in *netInst) exec(v [][]uint64, lo, hi int) {
	d := v[in.dst][lo:hi]
	x := v[in.args[0]][lo:hi]
	x = x[:len(d)]
	if in.kind == netCopy {
		copy(d, x)
		return
	}
	y := v[in.args[1]][lo:hi]
	y = y[:len(d)]
	mx, my, mz := in.m[0], in.m[1], in.m[2]
	if in.n == 2 {
		switch {
		case in.kind == netAnd && mx|my == 0:
			for i := range d {
				d[i] = x[i] & y[i]
			}
		case in.kind == netAnd:
			for i := range d {
				d[i] = (x[i] ^ mx) & (y[i] ^ my)
			}
		case mx|my == 0:
			for i := range d {
				d[i] = x[i] | y[i]
			}
		default:
			for i := range d {
				d[i] = (x[i] ^ mx) | (y[i] ^ my)
			}
		}
		return
	}
	z := v[in.args[2]][lo:hi]
	z = z[:len(d)]
	switch {
	case in.kind == netAnd && mx|my|mz == 0:
		for i := range d {
			d[i] = x[i] & y[i] & z[i]
		}
	case in.kind == netAnd:
		for i := range d {
			d[i] = (x[i] ^ mx) & (y[i] ^ my) & (z[i] ^ mz)
		}
	case in.kind == netOr && mx|my|mz == 0:
		for i := range d {
			d[i] = x[i] | y[i] | z[i]
		}
	case in.kind == netOr:
		for i := range d {
			d[i] = (x[i] ^ mx) | (y[i] ^ my) | (z[i] ^ mz)
		}
	default:
		for i := range d {
			a, b, c := x[i]^mx, y[i]^my, z[i]^mz
			d[i] = a&b | c&(a|b)
		}
	}
}
