package dram

import "fmt"

// Persistent fault injection.
//
// The one-shot InjectTRAFault hook (subarray.go) lets tests arm a single
// deterministic fault mask.  A FaultInjector, by contrast, is consulted on
// *every* analog event that can fail on real chips — each triple-row
// activation and each write through a dual-contact cell's negation wordline —
// so a probabilistic failure model (internal/fault) can corrupt results the
// way "Functionally-Complete Boolean Logic in Real DRAM Chips" reports:
// per-cell, per-row, silently.  With no injector installed the hot paths are
// unchanged.

// FaultContext identifies where a fault-injection opportunity occurs.
type FaultContext struct {
	// Bank and Subarray locate the subarray whose sense amplifiers are
	// operating.
	Bank, Subarray int
	// Row is the D-group index of the destination row of the command train
	// currently executing (recorded by Device.BeginTrain), or -1 when no
	// train context is active.  Failure models use it to apply per-row
	// weakness: the same physical destination row fails consistently more
	// (or less) often than its neighbours.
	Row int
	// K is the number of wordlines raised simultaneously by the event (3
	// for a TRA, up to MaxSimultaneousWordlines for a many-row activation,
	// 0 when not applicable).  Failure models use it to scale rates with
	// activation width, as the many-row characterization papers measure.
	K int
}

// A FaultInjector decides which bits flip at each analog event.  Both methods
// return a mask to XOR into the affected row (nil for "no fault"); masks
// shorter than the row apply to its prefix.
//
// Implementations must be safe for concurrent use from different banks: the
// batch execution engine issues command trains bank-parallel.
type FaultInjector interface {
	// TRAFaultMask is consulted after a triple-row activation computes its
	// bitwise majority, before the result is restored into the cells.
	TRAFaultMask(ctx FaultContext, words int) []uint64
	// DCCFaultMask is consulted when the sense amplifiers overwrite a cell
	// through its negation (n-) wordline — the Ambit-NOT capture path.
	DCCFaultMask(ctx FaultContext, words int) []uint64
}

// A ManyRowFaultInjector is a FaultInjector that additionally understands
// many-row simultaneous activation.  MajFaultMask is consulted after a
// many-row activation computes its bitwise majority; weak is the
// minimum-charge-margin mask — bits whose ones-count sat closest to the tie
// point, which real-chip measurements show fail far more often (the
// data-pattern dependence of the 2024 characterizations).  Injectors that do
// not implement this interface fall back to TRAFaultMask for many-row events.
type ManyRowFaultInjector interface {
	FaultInjector
	MajFaultMask(ctx FaultContext, words int, weak []uint64) []uint64
}

// A FaultMaskRecycler is a FaultInjector that reuses the storage of the
// masks it returns.  Once a subarray has XORed a drawn mask into its row, it
// hands the mask back through RecycleFaultMask, in the context of the draw's
// subarray, and never reads it again; the injector may return that storage
// from a later draw on the same subarray.  A mask DrawFaults keeps for a
// replay is handed back only when the replayed activation applies it.
type FaultMaskRecycler interface {
	RecycleFaultMask(ctx FaultContext, mask []uint64)
}

// SetFaultInjector installs fi on every subarray of the device; nil removes
// it.  Call before issuing commands (installation is not synchronized with
// in-flight trains).
func (d *Device) SetFaultInjector(fi FaultInjector) {
	for bi, b := range d.banks {
		for si, sa := range b.subarrays {
			sa.setInjector(fi, bi, si)
		}
	}
}

// BeginTrain records the D-group destination row of the command train about
// to execute on (bank, sub), giving the fault injector its per-row context.
// Pass row = -1 for trains with no data-row destination.  Out-of-range
// coordinates are ignored.
func (d *Device) BeginTrain(bank, sub, row int) {
	if bank < 0 || bank >= len(d.banks) {
		return
	}
	b := d.banks[bank]
	if sub < 0 || sub >= len(b.subarrays) {
		return
	}
	b.subarrays[sub].beginTrain(row)
}

// setInjector installs the injector and the subarray's fixed coordinates.
func (s *Subarray) setInjector(fi FaultInjector, bank, sub int) {
	s.injector = fi
	s.fctx = FaultContext{Bank: bank, Subarray: sub, Row: -1}
}

// beginTrain records the destination row of the current command train.
func (s *Subarray) beginTrain(row int) { s.fctx.Row = row }

// applyFault XORs a drawn fault mask (nil: none fired) into row and hands
// it back to the injector.
func (s *Subarray) applyFault(row, mask []uint64) {
	if mask == nil {
		return
	}
	for i := 0; i < len(row) && i < len(mask); i++ {
		row[i] ^= mask[i]
	}
	if r, ok := s.injector.(FaultMaskRecycler); ok {
		r.RecycleFaultMask(s.fctx, mask)
	}
}

// FaultEvent is the kind of one injector consultation: a triple-row
// activation's TRAFaultMask or a negation write's DCCFaultMask.
type FaultEvent uint8

const (
	// FaultTRA is the draw of a triple-row activation.
	FaultTRA FaultEvent = iota
	// FaultDCC is the draw of a write through a negation wordline.
	FaultDCC
)

// drawFault returns the mask of one injector consultation: while a train
// replays (DrawFaults) the next predrawn mask, which must be of the same
// kind; otherwise the injector's draw.
func (s *Subarray) drawFault(e FaultEvent, words int) []uint64 {
	if s.replaying {
		if len(s.replay) == 0 || s.replayKinds[0] != e {
			panic("dram: activation does not match the train's predrawn fault events")
		}
		m := s.replay[0]
		s.replay, s.replayKinds = s.replay[1:], s.replayKinds[1:]
		return m
	}
	if e == FaultTRA {
		return s.injector.TRAFaultMask(s.fctx, words)
	}
	return s.injector.DCCFaultMask(s.fctx, words)
}

// DrawFaults takes a command train's injector draws up front: it consults
// the installed injector once per event, in order and in the train's
// context (BeginTrain), exactly as stepping the train would, keeping the
// masks in *masks (whose storage it reuses).  TRA and DCC draws never read
// row data, so taking them before the train runs changes no mask and no
// injector state.  When no mask fired it returns false, and the caller may
// apply the train's net effect instead of stepping it.  Otherwise it returns
// true with a replay armed: the train's activations take the predrawn masks
// in place of the injector, and the caller must step the train and then call
// EndReplay.  With no injector installed there is nothing to draw.
func (s *Subarray) DrawFaults(events []FaultEvent, masks *[][]uint64) bool {
	if s.injector == nil {
		return false
	}
	words := s.geom.WordsPerRow()
	ms := (*masks)[:0]
	fired := false
	for _, e := range events {
		m := s.drawFault(e, words)
		fired = fired || m != nil
		ms = append(ms, m)
	}
	*masks = ms
	if fired {
		s.replay, s.replayKinds, s.replaying = ms, events, true
	}
	return fired
}

// EndReplay closes the replay DrawFaults armed.  A predrawn mask left
// unconsumed means the train's event list disagrees with its activations —
// a bug, not a runtime condition — and panics.
func (s *Subarray) EndReplay() {
	if n := len(s.replay); n != 0 {
		panic(fmt.Sprintf("dram: %d predrawn fault mask(s) left unconsumed by the train", n))
	}
	s.replay, s.replayKinds, s.replaying = nil, nil, false
}
