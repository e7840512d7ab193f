package ambit

import (
	"fmt"

	"ambit/internal/dram"
)

// Many-row majority: the MAJ-X primitive of the 2024 simultaneous-activation
// characterization papers, surfaced as a first-class System operation.  Each
// row-level train replicates the operands into the reserved per-subarray
// staging block (controller.PlanMaj's even replication plus a balanced
// zero/one fill) and raises all staging wordlines in one ACTIVATE, computing
// a k-input bitwise majority in a single many-row charge-sharing step.
//
// Maj runs outside the TMR reliability policy: replicated execute-verify-
// retry is defined over the Figure-8 binary trains, and the staging block is
// a single shared scratch region.  Under a fault model, many-row activations
// draw from the same per-(bank, subarray) streams as TRAs — scaled by the
// profile's activation-width curve — so faulted Maj runs are deterministic
// at any worker count, exactly like the binary operations.

// Maj computes dst = MAJ(srcs...) — the bitwise majority of an odd number of
// source vectors — using many-row simultaneous activation.  It requires
// Config.MaxMajInputs > 0 (WithManyRowMaj) and accepts 3 to MaxMajInputs
// sources.  All operands must be co-located row for row (allocated with the
// same base slot); dst may also be one of the sources, but the sources must
// be distinct vectors.
func (s *System) Maj(dst *Bitvector, srcs ...*Bitvector) error {
	return s.majTagged(Tag{}, dst, srcs)
}

// majTagged is Maj with a request tag.  Beyond the usual span/utilization
// tagging, a tagged Maj attributes the fault model's many-row injection
// events to the tenant: the per-(bank,subarray) fault streams are
// deterministic, so the counter delta across the operation is exactly the
// operation's own injections when requests serialize, and a conserved blend
// under concurrent clients (the same caveat as span energy attribution).
func (s *System) majTagged(tag Tag, dst *Bitvector, srcs []*Bitvector) error {
	if s.serialOnly() {
		s.execMu.Lock()
		defer s.execMu.Unlock()
		return s.majSerial(tag, dst, srcs)
	}
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	if err := s.checkMajOperands(dst, srcs); err != nil {
		return err
	}
	run := getOpRunner(s, runMaj, tag)
	run.dst = dst
	run.srcs = append(run.srcs, srcs...)
	return s.dispatch(run, dst.rows, int64(len(dst.rows))*int64(len(srcs)+1))
}

// majFaultsBefore snapshots the fault model's many-row injection counters
// for per-tenant attribution; returns zeros when attribution is off.
func (s *System) majFaultsBefore(tag Tag) (events, bits int64, on bool) {
	if tag.NS == "" || s.fm == nil || s.cfg.Metrics == nil {
		return 0, 0, false
	}
	fc := s.fm.Counters()
	return fc.MajEvents, fc.FlippedBits, true
}

// majFaultsCommit charges the counter deltas since majFaultsBefore to the
// tenant's labeled maj_fault families.
func (s *System) majFaultsCommit(tag Tag, events, bits int64) {
	fc := s.fm.Counters()
	s.addLabeledNS(tag, "maj_fault_events", fc.MajEvents-events)
	s.addLabeledNS(tag, "maj_fault_bits", fc.FlippedBits-bits)
}

// checkMajOperands validates operand liveness, arity, distinctness, and
// row-for-row co-location for one Maj call.  The caller holds execMu (read
// or exclusive).
func (s *System) checkMajOperands(dst *Bitvector, srcs []*Bitvector) error {
	if s.cfg.MaxMajInputs <= 0 {
		return fmt.Errorf("ambit: Maj: many-row majority is disabled (set Config.MaxMajInputs / WithManyRowMaj)")
	}
	k := len(srcs)
	if k < 3 || k%2 == 0 || k > s.cfg.MaxMajInputs {
		return fmt.Errorf("ambit: Maj: source count must be odd in [3,%d], got %d", s.cfg.MaxMajInputs, k)
	}
	if err := s.checkOperands("Maj", append([]*Bitvector{dst}, srcs...)...); err != nil {
		return err
	}
	for i, a := range srcs {
		if !dst.sameShape(a) {
			return fmt.Errorf("ambit: Maj: source %d: %w (operands must be equal-sized and co-located row for row; allocate them with one base slot)", i, ErrShapeMismatch)
		}
		for _, b := range srcs[:i] {
			if a == b {
				return fmt.Errorf("ambit: Maj: duplicate source vector (a repeated operand would weight the majority; copy it first)")
			}
		}
	}
	return nil
}

// majRowAddrs collects the per-row controller arguments for row r.
func majRowAddrs(dst *Bitvector, srcs []*Bitvector, r int, buf []dram.RowAddr) (da dram.PhysAddr, srcRows []dram.RowAddr) {
	da = dst.rows[r]
	srcRows = buf[:0]
	for _, a := range srcs {
		srcRows = append(srcRows, a.rows[r].Row)
	}
	return da, srcRows
}

// majSerial is the exclusive-lock path; the caller holds execMu exclusively.
func (s *System) majSerial(tag Tag, dst *Bitvector, srcs []*Bitvector) error {
	if err := s.checkMajOperands(dst, srcs); err != nil {
		return err
	}
	rows := int64(len(dst.rows)) * int64(len(srcs)+1)
	observing := s.observing()
	var devBefore dram.Stats
	if observing {
		devBefore = s.dev.Stats()
	}
	fmEvents, fmBits, fmAttr := s.majFaultsBefore(tag)
	opStart := s.stats.ElapsedNS
	start := s.stats.ElapsedNS + s.coherenceNS(rows)

	end := start
	buf := make([]dram.RowAddr, 0, len(srcs))
	for r := range dst.rows {
		da, srcRows := majRowAddrs(dst, srcs, r, buf)
		lat, err := s.ctrl.ExecuteMaj(da.Bank, da.Subarray, da.Row, srcRows, s.majScratchBase, s.majW)
		if err != nil {
			// Partial failure: the completed prefix [0, r) reserved bank
			// time; the clock advances to its end (see applySerial).
			s.stats.ElapsedNS = end
			s.stats.RowOps += int64(r)
			return fmt.Errorf("ambit: Maj row %d: %w", r, err)
		}
		done := s.dev.Bank(da.Bank).Reserve(start, lat)
		s.utilRecord(tag, da.Bank, done, lat)
		if done > end {
			end = done
		}
	}
	s.stats.ElapsedNS = end
	s.stats.MajOps++
	s.stats.RowOps += int64(len(dst.rows))
	if fmAttr {
		s.majFaultsCommit(tag, fmEvents, fmBits)
	}
	if observing {
		s.observeOp(tag, "maj", -1, len(dst.rows), opStart, end-opStart, devBefore)
	}
	return nil
}

// MajWidth returns the configured many-row activation width (the staging
// block's wordline count: 16 or 32), or 0 when Maj is disabled.
func (s *System) MajWidth() int { return s.majW }
