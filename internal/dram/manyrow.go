package dram

import (
	"fmt"
	"math/bits"
	"slices"
)

// Many-row simultaneous activation.
//
// The 2024 characterization "Simultaneous Many-Row Activation in Off-the-Shelf
// DRAM Chips" (PAPERS.md) shows commodity parts can raise 16 or 32 wordlines
// in one ACTIVATE by exploiting back-to-back row addresses, computing the
// bitwise majority of all connected cells — MAJ-X, the generalization of
// Ambit's triple-row MAJ-3.  This file models that primitive: charge sharing
// across W cells per bitline, sense amplification of the majority value, and
// restoration into every connected cell, with the same fault-injection hooks
// as the TRA path plus a data-pattern-dependent weak-bit mask (bitlines whose
// ones-count sat closest to the tie point have the smallest charge-sharing
// margin and fail most often on real chips).

// MaxSimultaneousWordlines is the largest number of wordlines one ACTIVATE
// may raise simultaneously — the 32-row activation demonstrated on real
// chips.
const MaxSimultaneousWordlines = 32

// countPlanes is the number of bitplane counter slices needed to hold a
// per-bitline ones-count up to MaxSimultaneousWordlines.
const countPlanes = 6

// countChunk is the number of words a many-row activation counts at a time:
// its planes (countPlanes × countChunk words, 3 KB) stay in L1, and the
// words of a chunk count independently, so their carry chains overlap.
const countChunk = 64

// planeCounter is a bit-sliced ones counter over one chunk of bitlines: bit
// b of c[j][p] is bit p of the count of bitline b of the chunk's word j.
type planeCounter [countChunk][countPlanes]uint64

// add counts the set bits of src, one chunk of a row, n times: src is added
// at each plane where n has a bit set.
func (c *planeCounter) add(src []uint64, n int) {
	for m := uint(n); m != 0; m &= m - 1 {
		q := bits.TrailingZeros(m)
		for j, v := range src {
			p := &c[j]
			for r := q; r < countPlanes && v != 0; r++ {
				p[r], v = p[r]^v, p[r]&v
			}
		}
	}
}

// manyInput is one distinct row of a many-row activation: its cells (nil
// reads as zeros) and the number of raised wordlines holding them.
type manyInput struct {
	cells []uint64
	n     int
}

// latchMany performs the sensing of a w-wordline simultaneous activation
// whose raised cells are the inputs, each counted with its multiplicity:
// every bitline's ones-count gives the latched majority (into the row
// buffer) and the minimum-margin bits (into weakBuf), and then the fault
// hooks apply — a one-shot InjectTRAFault mask first, then the installed
// injector, through MajFaultMask with the weak-bit mask when it implements
// ManyRowFaultInjector and through TRAFaultMask otherwise.  An even-width
// tie fails with ErrUndefinedChargeSharing before any hook runs.  The caller
// restores the result and marks the amplifiers on.
func (s *Subarray) latchMany(in []manyInput, w int) error {
	words := s.geom.WordsPerRow()
	s.amps = s.ampsBuf
	if s.weakBuf == nil {
		s.weakBuf = make([]uint64, words)
	}
	// Margin thresholds: the majority is count > W/2; the minimum possible
	// nonzero margin is |2*count - W| = 2 for even W, 1 for odd W.  Each
	// threshold is spread into planes, all ones where its bit is set, so
	// one pass from the top plane down compares a bitline's count with all
	// three.
	half := w / 2
	loMargin, hiMargin := half-1, half+1
	if w%2 == 1 {
		loMargin, hiMargin = half, half+1
	}
	var tHalf, tLo, tHi [countPlanes]uint64
	for q := range tHalf {
		tHalf[q] = -uint64(half >> q & 1)
		tLo[q] = -uint64(loMargin >> q & 1)
		tHi[q] = -uint64(hiMargin >> q & 1)
	}
	var cnt planeCounter
	for base := 0; base < words; base += countChunk {
		end := min(base+countChunk, words)
		clear(cnt[:end-base])
		for _, x := range in {
			if x.cells != nil {
				cnt.add(x.cells[base:end], x.n)
			}
		}
		amps, weak := s.amps[base:end], s.weakBuf[base:end]
		for j := range amps {
			// gt: count > half; eq, lo, hi: count == half, loMargin,
			// hiMargin, as running equalities of the planes so far.
			gt, eq, lo, hi := uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			p := &cnt[j]
			for r := countPlanes - 1; r >= 0; r-- {
				v := p[r]
				gt |= eq & v &^ tHalf[r]
				eq &^= v ^ tHalf[r]
				lo &^= v ^ tLo[r]
				hi &^= v ^ tHi[r]
			}
			if w%2 == 0 && eq != 0 {
				return fmt.Errorf("dram: many-row activation of %d rows: %d bitline(s) tied at %d ones: %w",
					w, bits.OnesCount64(eq), half, ErrUndefinedChargeSharing)
			}
			amps[j] = gt
			weak[j] = lo | hi
		}
	}

	if s.faultMask != nil {
		for i := 0; i < words && i < len(s.faultMask); i++ {
			s.amps[i] ^= s.faultMask[i]
		}
		s.faultMask = nil
	}
	if s.injector != nil {
		ctx := s.fctx
		ctx.K = w
		var m []uint64
		if mi, ok := s.injector.(ManyRowFaultInjector); ok {
			m = mi.MajFaultMask(ctx, words, s.weakBuf)
		} else {
			m = s.injector.TRAFaultMask(ctx, words)
		}
		for i := 0; i < words && i < len(m); i++ {
			s.amps[i] ^= m[i]
		}
	}
	return nil
}

// ActivateMany performs one simultaneous activation of the given D-group rows:
// every bitline charge-shares across all W cells, the sense amplifiers latch
// the bitwise majority, and the value is restored into every connected cell.
// W must be in [2, MaxSimultaneousWordlines] with distinct in-range rows, and
// the subarray must be precharged (a many-row activation always senses).
//
// A bitline whose ones-count is exactly W/2 has zero charge-sharing deviation
// and no defined result: such ties return ErrUndefinedChargeSharing, exactly
// like a disagreeing two-row activation.  Callers that need tie-free majority
// replicate an odd number of operands an even number of times (the
// controller's MAJ-X planner).
//
// Fault hooks mirror the TRA path: a one-shot InjectTRAFault mask applies
// first, then an installed injector is consulted — through MajFaultMask (with
// the minimum-margin weak-bit mask) when it implements ManyRowFaultInjector,
// through TRAFaultMask otherwise.
//
// Returns the number of wordlines raised, for energy accounting.
func (s *Subarray) ActivateMany(rows []int) (int, error) {
	if err := s.checkMany(rows); err != nil {
		return 0, err
	}
	w := len(rows)
	var inBuf [MaxSimultaneousWordlines]manyInput
	in := inBuf[:w]
	for i, r := range rows {
		in[i] = manyInput{cells: s.data[r], n: 1}
	}
	if err := s.latchMany(in, w); err != nil {
		return 0, err
	}
	s.ampsOn = true
	for _, r := range rows {
		copy(s.cell(Wordline{Kind: WLData, Index: r}), s.amps)
		s.raised = append(s.raised, Wordline{Kind: WLData, Index: r})
	}
	return w, nil
}

// checkMany validates a many-row activation of rows: a supported width of
// distinct in-range D-group rows, on a precharged subarray.
func (s *Subarray) checkMany(rows []int) error {
	if w := len(rows); w < 2 || w > MaxSimultaneousWordlines {
		return fmt.Errorf("dram: simultaneous activation of %d wordlines not supported (want 2..%d)", w, MaxSimultaneousWordlines)
	}
	if s.ampsOn {
		return fmt.Errorf("dram: many-row activation on an activated subarray")
	}
	for i, r := range rows {
		if r < 0 || r >= s.geom.DataRows() {
			return fmt.Errorf("dram: many-row activation: data row %d out of range [0,%d)", r, s.geom.DataRows())
		}
		for _, q := range rows[:i] {
			if q == r {
				return fmt.Errorf("dram: many-row activation: duplicate row %d", r)
			}
		}
	}
	return nil
}

// ManyRowInput is one distinct row a staged many-row block copies: a
// single-wordline, non-negated D- or C-group wordline outside the block, and
// the number of staged rows holding a copy of it.
type ManyRowInput struct {
	Wordline Wordline
	Copies   int
}

// ActivateManyFrom applies the net effect of the MAJ-X train's many-row
// step without its staging copies: on a block whose rows hold Copies copies
// of each input, an ActivateMany of the block, an ACTIVATE of data row dst
// and a PRECHARGE.  A bitline's ones-count is the same whether each staged
// copy is counted once or each input once with its multiplicity, so the
// latched majority, the even-width tie check, the weak-bit mask and the
// fault hooks are exactly ActivateMany's on the staged block, and the
// staging copies draw nothing (they copy through single, non-negated
// wordlines).  The result is written into every block row and into dst; the
// block's width is the total of the Copies.  The subarray must be
// precharged and is left precharged; the caller accounts the commands.
func (s *Subarray) ActivateManyFrom(inputs []ManyRowInput, block []int, dst int) error {
	if err := s.checkMany(block); err != nil {
		return err
	}
	if dst < 0 || dst >= s.geom.DataRows() {
		return fmt.Errorf("dram: many-row activation: destination row %d out of range [0,%d)", dst, s.geom.DataRows())
	}
	var inBuf [MaxSimultaneousWordlines]manyInput
	if len(inputs) > len(inBuf) {
		return fmt.Errorf("dram: many-row activation of %d distinct rows", len(inputs))
	}
	in := inBuf[:len(inputs)]
	copies := 0
	for i, x := range inputs {
		wl := x.Wordline
		switch {
		case wl.Kind == WLData && wl.Index >= 0 && wl.Index < s.geom.DataRows() && !slices.Contains(block, wl.Index):
		case wl.Kind == WLC && wl.Index >= 0 && wl.Index < len(s.ctrl):
		default:
			return fmt.Errorf("dram: many-row activation: cannot stage %v", wl)
		}
		if x.Copies < 1 {
			return fmt.Errorf("dram: many-row activation: %d copies of %v", x.Copies, wl)
		}
		in[i] = manyInput{cells: s.cell(wl), n: x.Copies}
		copies += x.Copies
	}
	if copies != len(block) {
		return fmt.Errorf("dram: many-row activation: %d staged copies for a block of %d rows", copies, len(block))
	}
	if err := s.latchMany(in, len(block)); err != nil {
		return err
	}
	for _, r := range block {
		copy(s.cell(Wordline{Kind: WLData, Index: r}), s.amps)
	}
	copy(s.cell(Wordline{Kind: WLData, Index: dst}), s.amps)
	return nil
}

// ActivateMany issues a many-row simultaneous ACTIVATE for the given D-group
// rows of subarray sub.  Like Activate, it is rejected while a different
// subarray is open.  Returns the number of wordlines raised.
func (b *Bank) ActivateMany(sub int, rows []int) (int, error) {
	if sub < 0 || sub >= len(b.subarrays) {
		return 0, fmt.Errorf("dram: subarray %d out of range [0,%d)", sub, len(b.subarrays))
	}
	if b.open >= 0 && b.open != sub {
		return 0, fmt.Errorf("%w: subarray %d open, many-row activate to subarray %d", ErrBankActive, b.open, sub)
	}
	n, err := b.subarrays[sub].ActivateMany(rows)
	if err != nil {
		return 0, err
	}
	b.open = sub
	return n, nil
}

// ActivateManyLocal issues a many-row simultaneous ACTIVATE with the command
// count accumulated into st (see ActivateLocal for the batching contract).
func (d *Device) ActivateManyLocal(bank, sub int, rows []int, st *Stats) error {
	if bank < 0 || bank >= len(d.banks) {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	n, err := d.banks[bank].ActivateMany(sub, rows)
	if err != nil {
		return fmt.Errorf("many-row activate bank %d sub %d: %w", bank, sub, err)
	}
	st.Activates[n-1]++
	return nil
}
