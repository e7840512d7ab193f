package ambit

import (
	"fmt"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/ecc"
	"ambit/internal/exec"
)

// checkOperands validates that every operand is non-nil, belongs to this
// System, and has not been freed.  Every operation entry point — the direct
// System calls and the Batch recorder — applies it, so a use-after-Free is
// always a clear error instead of a silent no-op.  Failures wrap the typed
// sentinels (ErrNilOperand, ErrForeignSystem, ErrFreed) for errors.Is.  The
// caller holds execMu (read or exclusive: Free mutates rows only under the
// exclusive lock).
func (s *System) checkOperands(name string, vs ...*Bitvector) error {
	for _, v := range vs {
		if err := s.operandErr(v); err != nil {
			return fmt.Errorf("ambit: %s: %w", name, err)
		}
	}
	return nil
}

// operandErr returns the sentinel error that makes v unusable as an operand
// on s, or nil.
func (s *System) operandErr(v *Bitvector) error {
	switch {
	case v == nil:
		return ErrNilOperand
	case v.sys != s:
		return ErrForeignSystem
	case v.rows == nil:
		return ErrFreed
	}
	return nil
}

// coherenceNS returns the Section 5.4.4 cache-coherence charge for an
// operation that must flush or invalidate `rows` cached rows before DRAM may
// operate on them, and accounts it.  The caller holds execMu exclusively or
// statsMu.  See DESIGN.md ("Coherence model") for which rows each primitive
// charges.
func (s *System) coherenceNS(rows int64) float64 {
	c := float64(rows) * s.cfg.CoherenceNSPerRow
	s.stats.CoherenceNS += c
	return c
}

// checkApplyOperands validates operand liveness and shape for one bulk op.
// The caller holds execMu for reading.
func (s *System) checkApplyOperands(op controller.Op, dst, a, b *Bitvector) error {
	// Two fixed-arity variadic calls instead of one built-up slice: the
	// argument slices stay on the stack, keeping the direct-op path at zero
	// allocations.
	var err error
	if op.Unary() {
		err = s.checkOperands(op.String(), dst, a)
	} else {
		err = s.checkOperands(op.String(), dst, a, b)
	}
	if err != nil {
		return err
	}
	if !dst.sameShape(a) || (!op.Unary() && !dst.sameShape(b)) {
		return fmt.Errorf("ambit: %v: %w (size mismatch or foreign allocation); the Ambit driver requires cooperating bitvectors to be allocated with the same size on one System (Section 5.4.2)", op, ErrShapeMismatch)
	}
	return nil
}

// apply runs dst = op(a [, b]) row by row.  Corresponding rows of the
// operands share a (bank, subarray) slot by the allocator's construction, so
// every row-level operation is a pure Figure-8 command train; rows mapped to
// different banks execute in parallel (Section 7's bank-level parallelism),
// dispatched through the shared execution core (internal/exec).  Results and
// Stats are identical at every worker count.
func (s *System) apply(op controller.Op, dst, a, b *Bitvector) error {
	return s.applyTagged(Tag{}, op, dst, a, b)
}

// applyTagged is apply with a request tag: the tag flows to the op span, the
// utilization collector, and the reliability commit points (tag.go).
// Coherence: flush the source rows; the destination invalidation proceeds
// in parallel with the operation (Section 5.4.4).
func (s *System) applyTagged(tag Tag, op controller.Op, dst, a, b *Bitvector) error {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	if err := s.checkApplyOperands(op, dst, a, b); err != nil {
		return err
	}
	run := getOpRunner(s, runBulk, tag)
	run.op, run.dst, run.a, run.b, run.ecc = op, dst, a, b, s.cfg.Reliability.ECC
	return s.dispatch(run, s.eng.PlanAddrs(dst.rows), len(dst.rows), int64(len(dst.rows))*int64(op.InputRows()))
}

// execRowReliable runs one row-level command train under the TMR
// execute-verify-retry policy (DESIGN.md "Reliability model"), using the two
// reserved per-subarray scratch rows as replica space and internal/ecc's
// majority vote as the decoder.  The caller holds execMu for reading plus
// the destination's bank shard.
func (s *System) execRowReliable(op controller.Op, da dram.PhysAddr, aRow, bRow dram.RowAddr) (controller.RowResult, error) {
	s1, s2 := s.scratchRows()
	return s.ctrl.ExecuteOpReliable(op, da.Bank, da.Subarray, da.Row, aRow, bRow, s1, s2, s.cfg.Reliability, ecc.VoteRows)
}

// accountReliabilityLocked folds one row's reliability outcome into the
// stats and the quarantine score of the destination row, and — when the
// operation carries a tenant tag — into the per-namespace labeled shadow
// counters, so ECC corrections and retries are attributable to the workload
// that incurred them.  The caller holds statsMu.
func (s *System) accountReliabilityLocked(tag Tag, da dram.PhysAddr, rr controller.RowResult) {
	s.stats.CorrectedBits += rr.CorrectedBits
	s.stats.Retries += rr.Retries
	if m := s.cfg.Metrics; m != nil {
		if rr.Retries > 0 {
			m.Add("retries", rr.Retries)
			s.addLabeledNS(tag, "retries", rr.Retries)
		}
		if rr.CorrectedBits > 0 {
			m.Add("corrected_bits", rr.CorrectedBits)
			s.addLabeledNS(tag, "corrected_bits", rr.CorrectedBits)
		}
		if rr.Detected > 0 {
			m.Add("detected_rows", rr.Detected)
			s.addLabeledNS(tag, "detected_rows", rr.Detected)
		}
	}
	if rr.Detected > 0 && s.cfg.QuarantineAfter > 0 && !s.quarantined[da] {
		s.faultScore[da] += int(rr.Detected)
		if s.faultScore[da] >= s.cfg.QuarantineAfter {
			// The score has served its purpose; quarantine is permanent
			// for the System's lifetime, so only the set membership stays.
			s.quarantined[da] = true
			delete(s.faultScore, da)
		}
	}
}

// And computes dst = a AND b inside DRAM (Figure 8a).
func (s *System) And(dst, a, b *Bitvector) error { return s.apply(controller.OpAnd, dst, a, b) }

// Or computes dst = a OR b inside DRAM.
func (s *System) Or(dst, a, b *Bitvector) error { return s.apply(controller.OpOr, dst, a, b) }

// Not computes dst = NOT a inside DRAM (Section 5.2).
func (s *System) Not(dst, a *Bitvector) error { return s.apply(controller.OpNot, dst, a, nil) }

// Nand computes dst = NOT (a AND b) inside DRAM (Figure 8b).
func (s *System) Nand(dst, a, b *Bitvector) error { return s.apply(controller.OpNand, dst, a, b) }

// Nor computes dst = NOT (a OR b) inside DRAM.
func (s *System) Nor(dst, a, b *Bitvector) error { return s.apply(controller.OpNor, dst, a, b) }

// Xor computes dst = a XOR b inside DRAM (Figure 8c).
func (s *System) Xor(dst, a, b *Bitvector) error { return s.apply(controller.OpXor, dst, a, b) }

// Xnor computes dst = NOT (a XOR b) inside DRAM.
func (s *System) Xnor(dst, a, b *Bitvector) error { return s.apply(controller.OpXnor, dst, a, b) }

// Apply computes dst = op(a[, b]) for a dynamically chosen operation.
func (s *System) Apply(op controller.Op, dst, a, b *Bitvector) error { return s.apply(op, dst, a, b) }

// Copy copies src into dst using RowClone: FPM when the corresponding rows
// are co-located (the normal case under this allocator), PSM otherwise.
func (s *System) Copy(dst, src *Bitvector) error { return s.copyTagged(Tag{}, dst, src) }

// copyTagged is Copy with a request tag.  Coherence: flush the source rows
// and invalidate the destination rows.  Unlike a bulk bitwise train (which
// buffers through the B-group first), RowClone writes the destination in its
// very first command, so the destination invalidation cannot be hidden
// behind the operation (Section 5.4.4; DESIGN.md "Coherence model").
func (s *System) copyTagged(tag Tag, dst, src *Bitvector) error {
	s.execMu.RLock()
	cross, err := s.checkCopyOperands(dst, src)
	if err != nil {
		s.execMu.RUnlock()
		return err
	}
	var plan *exec.Plan
	if cross {
		// A cross-bank row pair (a PSM copy through the channel) touches
		// two banks in one train, but bank shards are taken by destination
		// bank.  The copy upgrades to the exclusive lock, which keeps every
		// other operation off both banks, and runs its rows as one stream
		// on this goroutine.  Free may run between the two locks, so the
		// operands are validated again.
		s.execMu.RUnlock()
		s.execMu.Lock()
		defer s.execMu.Unlock()
		if _, err := s.checkCopyOperands(dst, src); err != nil {
			return err
		}
		plan = s.eng.PlanStream(len(dst.rows))
	} else {
		defer s.execMu.RUnlock()
		plan = s.eng.PlanAddrs(dst.rows)
	}
	run := getOpRunner(s, runCopy, tag)
	run.dst, run.a = dst, src
	return s.dispatch(run, plan, len(dst.rows), 2*int64(len(dst.rows)))
}

// checkCopyOperands validates operand liveness and shape for one Copy and
// reports whether any row pair crosses banks.  The caller holds execMu (read
// or exclusive).
func (s *System) checkCopyOperands(dst, src *Bitvector) (crossBank bool, err error) {
	if err := s.checkOperands("Copy", dst, src); err != nil {
		return false, err
	}
	if len(dst.rows) != len(src.rows) {
		return false, fmt.Errorf("ambit: Copy: %w (%d vs %d rows)", ErrShapeMismatch, len(dst.rows), len(src.rows))
	}
	for r := range dst.rows {
		if dst.rows[r].Bank != src.rows[r].Bank {
			return true, nil
		}
	}
	return false, nil
}

// Fill sets every bit of v to the given value using RowClone from the
// pre-initialized control rows — the "masked initialization" building block
// of Section 8.4.2 and the row-initialization primitive of Section 3.4.
func (s *System) Fill(v *Bitvector, bit bool) error { return s.fillTagged(Tag{}, v, bit) }

// fillTagged is Fill with a request tag.  Coherence: invalidate the
// destination rows; the control-row source lives only in DRAM and needs no
// flush (DESIGN.md "Coherence model").
func (s *System) fillTagged(tag Tag, v *Bitvector, bit bool) error {
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	if err := s.checkOperands("Fill", v); err != nil {
		return err
	}
	run := getOpRunner(s, runFill, tag)
	run.dst, run.fill = v, bit
	return s.dispatch(run, s.eng.PlanAddrs(v.rows), len(v.rows), int64(len(v.rows)))
}

// Popcount counts the set bits of v on the CPU: the vector streams over the
// memory channel (Ambit has no in-DRAM bitcount; the paper's workloads
// perform bitcounts on the CPU, Section 8.1).  The cost charged is the
// channel-bandwidth-bound streaming time.
func (s *System) Popcount(v *Bitvector) (int64, error) { return s.popcountTagged(Tag{}, v) }

// popcountTagged is Popcount with a request tag.
func (s *System) popcountTagged(tag Tag, v *Bitvector) (int64, error) {
	// Popcount streams over the single shared channel, so it always takes
	// the exclusive path: there is no per-bank parallelism to exploit.
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if err := s.checkOperands("Popcount", v); err != nil {
		return 0, err
	}
	observing := s.observing()
	var devBefore dram.Stats
	if observing {
		devBefore = s.dev.Stats()
	}
	opStart := s.stats.ElapsedNS
	var n int64
	for _, addr := range v.rows {
		pc, err := s.dev.PopcountRow(addr)
		if err != nil {
			return 0, err
		}
		n += pc
	}
	s.chargeChannel(int64(len(v.rows)) * int64(s.dev.Geometry().RowSizeBytes))
	if observing {
		s.observeOp(tag, "popcount", -1, len(v.rows), opStart, s.stats.ElapsedNS-opStart, devBefore)
	}
	return n, nil
}

// chargeChannel advances simulated time by a channel-bandwidth-bound
// transfer of the given byte count and records the traffic.  The caller
// holds execMu exclusively.
func (s *System) chargeChannel(bytes int64) {
	gbps := s.dev.Timing().ChannelGBps
	s.stats.ElapsedNS += float64(bytes) / gbps
	s.stats.ChannelBytes += bytes
}
