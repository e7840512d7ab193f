package dram

import (
	"fmt"
	"math/bits"
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

// add counts the set bits of src, one chunk of a row.
func (c *planeCounter) add(src []uint64) {
	for j, v := range src {
		p := &c[j]
		for r := 0; r < countPlanes && v != 0; r++ {
			p[r], v = p[r]^v, p[r]&v
		}
	}
}

// latchMany performs the sensing of a simultaneous activation of the given
// cells (nil reads as zeros): every bitline's ones-count gives the latched
// majority (into the row buffer) and the minimum-margin bits (into weakBuf),
// and then manyFaults applies the fault hooks.  An even-width tie fails with
// ErrUndefinedChargeSharing before any hook runs.  The caller restores the
// result and marks the amplifiers on.
func (s *Subarray) latchMany(rows [][]uint64) error {
	words, w := s.geom.WordsPerRow(), len(rows)
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
		for _, r := range rows {
			if r != nil {
				cnt.add(r[base:end])
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
	s.manyFaults(w)
	return nil
}

// manyFaults applies the fault hooks of a w-wordline many-row activation to
// the latched row buffer: a one-shot InjectTRAFault mask first, then the
// installed injector, through MajFaultMask with the weak-bit mask in weakBuf
// when it implements ManyRowFaultInjector and through TRAFaultMask
// otherwise.
func (s *Subarray) manyFaults(w int) {
	words := s.geom.WordsPerRow()
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
		s.applyFault(s.amps, m)
	}
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
	// The cells are read directly, past cell's pending-block check.
	s.writePending()
	var cells [MaxSimultaneousWordlines][]uint64
	for i, r := range rows {
		cells[i] = s.data[r]
	}
	if err := s.latchMany(cells[:len(rows)]); err != nil {
		return 0, err
	}
	s.ampsOn = true
	for _, r := range rows {
		copy(s.cell(Wordline{Kind: WLData, Index: r}), s.amps)
		s.raised = append(s.raised, Wordline{Kind: WLData, Index: r})
	}
	return len(rows), nil
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

// ActivateManyFrom applies the net effect of the MAJ-X train's many-row
// step without its staging copies.  The block is len(block) consecutive
// ascending data rows holding c copies of each of the k data rows srcs, then
// fill/2 copies of C0 and fill/2 of C1 (controller.PlanMaj's shape: k odd, c
// even and at least 2, fill even, c·k + fill = len(block)); the step is an
// ActivateMany of the block, an ACTIVATE of data row dst and a PRECHARGE.
//
// A bitline whose sources hold s ones counts c·s + fill/2 of the w raised
// cells, so 2·count − w = c·(2s − k): the block latches MAJ-k of the
// sources, no bitline ties (k is odd), and a bitline sits at the minimum
// margin |2·count − w| = 2 exactly when c = 2 and s = (k ± 1)/2.  The latch
// and the weak-bit mask therefore come from the k sources alone (latchMaj),
// and manyFaults applies the fault hooks as ActivateMany does on the staged
// block; the staging copies draw nothing (they copy through single,
// non-negated wordlines).  The identity needs C0 all zeros and C1 all ones,
// which TestControlRowsNeverCorrupted and TestFaultedFusedMatchesStepwise
// check.
//
// The result is written into dst, which may be a source.  The block becomes
// the subarray's pending block: its rows read the result through cell, which
// writes them on first access, and a previous pending block over other rows
// is written out first.  The subarray must be precharged and is left
// precharged; the caller accounts the commands.
func (s *Subarray) ActivateManyFrom(srcs []int, c, fill int, block []int, dst int) error {
	if err := s.checkMany(block); err != nil {
		return err
	}
	k, rows, lo := len(srcs), s.geom.DataRows(), block[0]
	if dst < 0 || dst >= rows {
		return fmt.Errorf("dram: many-row activation: destination row %d out of range [0,%d)", dst, rows)
	}
	var cells [MaxSimultaneousWordlines / 2][]uint64
	if k < 3 || k%2 == 0 || k > len(cells) || c < 2 || c%2 != 0 || fill < 0 || fill%2 != 0 || c*k+fill != len(block) {
		return fmt.Errorf("dram: many-row activation: %d sources, %d copies each and %d fill rows do not stage a block of %d rows",
			k, c, fill, len(block))
	}
	for i, r := range block {
		if r != lo+i {
			return fmt.Errorf("dram: many-row activation: staging row %d is not row %d of a consecutive block", r, lo+i)
		}
	}
	for i, r := range srcs {
		if r < 0 || r >= rows || r >= lo && r < lo+len(block) {
			return fmt.Errorf("dram: many-row activation: cannot stage data row %d", r)
		}
		cells[i] = s.cell(Wordline{Kind: WLData, Index: r})
	}
	s.latchMaj(cells[:k], c == 2)
	s.manyFaults(len(block))
	if s.pendLo != lo || s.pendHi != lo+len(block) {
		s.writePending()
	}
	if s.pendVal == nil {
		s.pendVal = make([]uint64, len(s.ampsBuf))
	}
	s.ampsBuf, s.pendVal = s.pendVal, s.ampsBuf
	s.amps = s.ampsBuf
	s.pendLo, s.pendHi = lo, lo+len(block)
	copy(s.cell(Wordline{Kind: WLData, Index: dst}), s.pendVal)
	return nil
}

// latchMaj latches MAJ-k of the k source rows into the row buffer.  With
// weak set it writes the bits whose sources hold (k ± 1)/2 ones into
// weakBuf, and otherwise clears it.  k = 3 takes the majority formula; up
// to k = 15 each word's counts are kept bit-sliced in registers.
func (s *Subarray) latchMaj(src [][]uint64, weak bool) {
	s.amps = s.ampsBuf
	if s.weakBuf == nil {
		s.weakBuf = make([]uint64, len(s.ampsBuf))
	}
	amps, wk := s.amps, s.weakBuf[:len(s.amps)]
	if !weak {
		clear(wk)
	}
	if len(src) == 3 {
		a, b, x := src[0][:len(amps)], src[1][:len(amps)], src[2][:len(amps)]
		for i := range amps {
			amps[i] = a[i]&b[i] | x[i]&(a[i]|b[i])
		}
		if weak {
			for i := range wk {
				wk[i] = (a[i] ^ b[i]) | (b[i] ^ x[i])
			}
		}
		return
	}
	// Each bitline counts its sources' ones in four planes, starting from
	// 8 - h where h = (k+1)/2 is the majority threshold: the count stays
	// in 0..15, its top plane p3 is set exactly when the ones reach h, and
	// the ones are h or h-1 exactly when it reads 1000 or 0111.  After
	// the first, sources are added two at a time with a full adder.
	h := (len(src) + 1) / 2
	bit := func(r int) uint64 { return -uint64((8 - h) >> r & 1) }
	o0, o1, o2 := bit(0), bit(1), bit(2) // 8 - h < 8
	for i := range amps {
		x := src[0][i]
		p0, cy := o0^x, o0&x
		p1, cy := o1^cy, o1&cy
		p2, p3 := o2^cy, o2&cy
		for r := 1; r < len(src); r += 2 {
			p0, cy = fullAdd(p0, src[r][i], src[r+1][i])
			p1, cy = p1^cy, p1&cy
			p2, cy = p2^cy, p2&cy
			p3 ^= cy
		}
		amps[i] = p3
		if weak {
			wk[i] = p3&^(p0|p1|p2) | p0&p1&p2&^p3
		}
	}
}

// fullAdd returns the bit-sliced sum and carry of a, b and c.
func fullAdd(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
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
