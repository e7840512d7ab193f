package controller

import (
	"errors"
	"fmt"

	"ambit/internal/dram"
)

// Reliable execution: execute-verify-retry for faulty substrates.
//
// The paper assumes TRA/DCC work reliably after manufacturer testing
// (Section 6); real multi-row activation fails probabilistically.  The
// controller therefore offers a reliable execution mode built on the only
// ECC known to commute with in-DRAM bitwise computation — triple modular
// redundancy (Section 5.4.5, internal/ecc):
//
//  1. execute the operation's Figure-8 command train three times, into two
//     reserved scratch rows and then the destination row (three independent
//     replicas of the result, each exposed independently to TRA/DCC faults),
//  2. read the three replicas back and majority-vote them (the VoteFunc,
//     supplied by the caller from internal/ecc so this package stays free of
//     an import cycle: ecc depends on controller for the Op type),
//  3. if the replicas disagree on more bits than the policy threshold, the
//     row is declared detected-uncorrectable (the disagreement is too broad
//     for the single-replica-fault assumption behind majority voting) and
//     the whole train is re-executed, up to MaxRetries times — each attempt
//     charging full command latency and energy,
//  4. small disagreements are majority-corrected and the corrected row is
//     written back to the destination.
//
// Exhausting the retry budget returns ErrUncorrectable (wrapped), and the
// driver layer is expected to quarantine chronically failing rows.

// ErrUncorrectable is returned (wrapped) when a row's replicas still
// disagree beyond the policy threshold after every retry.  Match with
// errors.Is.
var ErrUncorrectable = errors.New("uncorrectable row (ECC retries exhausted)")

// VoteFunc majority-decodes three replica rows into dst, which may alias any
// of them, and returns the number of replica bits that disagreed with the
// majority.  The canonical implementation is internal/ecc's TMR vote
// (ecc.VoteRows).
type VoteFunc func(dst, r0, r1, r2 []uint64) (disagreeingBits int, err error)

// Reliability is the controller's execute-verify-retry policy.
type Reliability struct {
	// ECC enables TMR-replicated execution with verify/correct/retry.
	ECC bool
	// MaxRetries bounds how many times a detected-uncorrectable row's
	// command train is re-executed before giving up.
	MaxRetries int
	// RetryThresholdBits is the number of disagreeing replica bits per row
	// above which verification declares the row detected-uncorrectable
	// (broad disagreement means correlated or gross failure, where the
	// majority vote itself is untrustworthy) instead of majority-
	// correcting.  0 selects the default of rowBits/16.
	RetryThresholdBits int
}

// Validate checks the policy.
func (r Reliability) Validate() error {
	if r.MaxRetries < 0 {
		return fmt.Errorf("controller: Reliability.MaxRetries must be non-negative, got %d", r.MaxRetries)
	}
	if r.RetryThresholdBits < 0 {
		return fmt.Errorf("controller: Reliability.RetryThresholdBits must be non-negative, got %d", r.RetryThresholdBits)
	}
	return nil
}

// thresholdBits resolves the retry threshold for a row of the given width.
func (r Reliability) thresholdBits(rowBits int) int {
	if r.RetryThresholdBits > 0 {
		return r.RetryThresholdBits
	}
	return rowBits / 16
}

// RowResult reports the cost and reliability outcome of one row-level
// operation.
type RowResult struct {
	// LatencyNS is the total simulated latency of every command issued:
	// all replica trains of all attempts, verification reads, and the
	// correction write-back.
	LatencyNS float64
	// CorrectedBits counts replica bits the majority vote corrected.
	CorrectedBits int64
	// Retries counts full re-executions after detected-uncorrectable
	// verifications.
	Retries int64
	// Detected counts attempts whose replicas disagreed at all — the
	// per-row failure evidence the driver's quarantine policy accumulates.
	Detected int64
}

// rowAccessNS is the latency of streaming one full row once (ACTIVATE,
// per-cache-line bursts, PRECHARGE) — charged for each verification read and
// the correction write-back.
func (c *Controller) rowAccessNS() float64 {
	t := c.dev.Timing()
	lines := float64(c.dev.Geometry().RowSizeBytes) / 64
	return t.TRAS + t.TRP + lines*t.TBL
}

// ExecuteOpReliable performs dk = op(di [, dj]) under the TMR
// execute-verify-retry policy.  scratch1 and scratch2 are D-group rows in the
// same subarray reserved for the two extra replicas (the driver withholds
// them from allocation); their contents are clobbered.  vote is the majority
// decoder (ecc.VoteRows).  On success the destination row holds the corrected
// result; the RowResult carries the full multi-attempt cost either way.
//
// In-place operations (dk aliasing di or dj) are supported: the scratch
// replica trains execute first, while the sources are still intact, and dk's
// own train — alias-safe on its own, since the sources stage through B-group
// rows before dk is written — runs last.  Because a retry re-reads the
// sources after dk's train has overwritten them, an aliased source is
// preserved with one extra row read up front and restored with one row write
// before each retry, both charged at full row-access latency.
//
// The replicas are read back into the bank's scratch rows and voted in place,
// so a row allocates nothing.
func (c *Controller) ExecuteOpReliable(op Op, bank, sub int, dk, di, dj, scratch1, scratch2 dram.RowAddr, pol Reliability, vote VoteFunc) (RowResult, error) {
	var res RowResult
	if vote == nil {
		return res, fmt.Errorf("controller: ExecuteOpReliable: nil vote function")
	}
	traced := c.tr.Enabled()
	thr := pol.thresholdBits(c.dev.Geometry().RowSizeBytes * 8)
	accessNS := c.rowAccessNS()
	dkPhys := dram.PhysAddr{Bank: bank, Subarray: sub, Row: dk}
	replicas := [3]dram.RowAddr{scratch1, scratch2, dk}
	rows := c.tmrRows(bank)
	var saved []uint64
	if aliased := dk == di || (!op.Unary() && dk == dj); aliased && pol.MaxRetries > 0 {
		saved = rows[3]
		if err := c.dev.ReadRowInto(dkPhys, saved); err != nil {
			return res, err
		}
		res.LatencyNS += accessNS
		if traced {
			c.emitCmd("SAVE", bank, sub, dk.String(), "", accessNS, 0, "preserve aliased source for retry")
		}
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 && saved != nil {
			if err := c.dev.WriteRow(dkPhys, saved); err != nil {
				return res, err
			}
			res.LatencyNS += accessNS
			if traced {
				c.emitCmd("RESTORE", bank, sub, dk.String(), "", accessNS, 0, "restore aliased source before retry")
			}
		}
		for _, dst := range replicas {
			lat, err := c.ExecuteOp(op, bank, sub, dst, di, dj)
			res.LatencyNS += lat
			if err != nil {
				return res, err
			}
		}
		for i, dst := range replicas {
			if err := c.dev.ReadRowInto(dram.PhysAddr{Bank: bank, Subarray: sub, Row: dst}, rows[i]); err != nil {
				return res, err
			}
		}
		res.LatencyNS += 3 * accessNS
		if traced {
			c.emitCmd("VERIFY", bank, sub, dk.String(), "", 3*accessNS, 0, "TMR replica readback")
		}
		voted := rows[0]
		bad, err := vote(voted, rows[0], rows[1], rows[2])
		if err != nil {
			return res, err
		}
		if bad > 0 {
			res.Detected++
		}
		if bad <= thr {
			if bad > 0 {
				if err := c.dev.WriteRow(dkPhys, voted); err != nil {
					return res, err
				}
				res.LatencyNS += accessNS
				res.CorrectedBits += int64(bad)
				if traced {
					c.emitCmd("CORRECT", bank, sub, dk.String(), "",
						accessNS, 0, fmt.Sprintf("majority-corrected %d bits", bad))
				}
			}
			return res, nil
		}
		if attempt >= pol.MaxRetries {
			return res, fmt.Errorf("controller: %v at bank %d subarray %d row %v: %d disagreeing bits after %d attempts: %w",
				op, bank, sub, dk, bad, attempt+1, ErrUncorrectable)
		}
		res.Retries++
		if traced {
			c.emitCmd("RETRY", bank, sub, dk.String(), "",
				0, 0, fmt.Sprintf("%d disagreeing bits > threshold %d; re-executing train", bad, thr))
		}
	}
}

// tmrRows returns the bank's TMR scratch rows — three replica readbacks,
// then the saved aliased source — allocating them on the bank's first ECC
// row, so a System that never runs ECC never pays for them.  An out-of-range
// bank gets throwaway rows; its first command reports the address.
func (c *Controller) tmrRows(bank int) *[4][]uint64 {
	var rows *[4][]uint64
	if bank >= 0 && bank < len(c.scratch) {
		rows = &c.scratch[bank].tmr
	} else {
		rows = new([4][]uint64)
	}
	if rows[0] == nil {
		words := c.dev.Geometry().WordsPerRow()
		buf := make([]uint64, len(rows)*words)
		for i := range rows {
			rows[i] = buf[i*words : (i+1)*words : (i+1)*words]
		}
	}
	return rows
}
