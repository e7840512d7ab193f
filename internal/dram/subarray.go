package dram

import "fmt"

// Subarray models one DRAM subarray: a matrix of cells sharing one row of
// sense amplifiers, plus the Ambit-reserved rows (Figure 7):
//
//	D-group: DataRows() ordinary rows,
//	B-group: designated rows T0..T3 and two DCC rows (DCC0, DCC1),
//	C-group: control rows C0 (zeros) and C1 (ones).
//
// All row data is stored as []uint64; bit i of word w corresponds to the cell
// on bitline 64*w+i.
type Subarray struct {
	geom Geometry

	data [][]uint64 // D-group rows
	t    [4][]uint64
	dcc  [2][]uint64
	ctrl [2][]uint64 // C0, C1

	// Sense-amplifier state.  amps holds the bitline values (the row
	// buffer); ampsOn reports whether sense amplification has happened
	// since the last precharge.
	//
	// After a single-wordline non-negated activation amps *aliases* the
	// sensed cell's storage instead of copying it: the row buffer and the
	// restored cell are then physically the same data, which models the
	// charge-restore without a row-sized copy.  All other activations
	// latch into the subarray-owned ampsBuf.  Precharge re-points amps at
	// ampsBuf.
	amps    []uint64
	ampsBuf []uint64
	ampsOn  bool

	// raised is the set of wordlines raised since the last precharge, in
	// activation order.  Used for introspection and testing.
	raised []Wordline

	// faultMask, when non-nil, is XORed into the majority result of the
	// next TRA.  It is the hook through which the circuit-level failure
	// model (internal/circuit) injects process-variation bit errors.
	faultMask []uint64

	// injector, when non-nil, is consulted on every TRA and every DCC
	// negation write (see fault.go); fctx carries the subarray coordinates
	// plus the current train's destination row.
	injector FaultInjector
	fctx     FaultContext

	// replay, while replaying is set, supplies the injector consultations
	// of one command train from masks drawn up front (DrawFaults), with
	// the kind each must be.
	replay      [][]uint64
	replayKinds []FaultEvent
	replaying   bool

	// scratch buffers reused by sense() so the activation hot path does
	// not allocate.
	scratch [3][]uint64

	// weakBuf holds the minimum-charge-margin bit mask of the most recent
	// many-row activation (see ActivateMany); reused across calls so the
	// hot path does not allocate.
	weakBuf []uint64

	// The pending block of the most recent ActivateManyFrom: every data
	// row in [pendLo, pendHi) holds pendVal, which has not been written
	// into the rows yet.  cell writes the block out on the first access to
	// any of its rows, so no reader of cell storage can tell the
	// difference.  The block is empty when pendLo == pendHi.
	pendVal        []uint64
	pendLo, pendHi int
}

// NewSubarray constructs a subarray with all cells zeroed except C1, which is
// pre-initialized to all ones (Section 3.4).
//
// Data-row storage is allocated lazily on first access: a nil row reads as
// all zeros.  The nine other rows (T0..T3, DCC0, DCC1, C0, C1 and the sense
// amplifiers' row buffer) are allocated here: 72 KB per subarray at 8 KB
// rows, 96 KB with the data-row table's 24 bytes per row.  At
// DefaultGeometry's 512 subarrays that is 50.1 MB, most of the 50.7 MB the
// root package's New allocates.
func NewSubarray(g Geometry) *Subarray {
	w := g.WordsPerRow()
	s := &Subarray{geom: g, ampsBuf: make([]uint64, w)}
	s.amps = s.ampsBuf
	s.data = make([][]uint64, g.DataRows())
	for i := range s.t {
		s.t[i] = make([]uint64, w)
	}
	for i := range s.dcc {
		s.dcc[i] = make([]uint64, w)
	}
	for i := range s.ctrl {
		s.ctrl[i] = make([]uint64, w)
	}
	for i := range s.ctrl[1] {
		s.ctrl[1][i] = ^uint64(0) // C1 = all ones
	}
	return s
}

// cell returns the storage backing a wordline's row, allocating lazily for
// data rows and writing out the pending block when the row is one of its.
func (s *Subarray) cell(w Wordline) []uint64 {
	switch w.Kind {
	case WLData:
		if w.Index >= s.pendLo && w.Index < s.pendHi {
			s.writePending()
		}
		return s.dataRow(w.Index)
	case WLT:
		return s.t[w.Index]
	case WLDCCData, WLDCCNeg:
		return s.dcc[w.Index]
	case WLC:
		return s.ctrl[w.Index]
	}
	panic(fmt.Sprintf("dram: unknown wordline kind %d", w.Kind))
}

// dataRow returns data row r's storage, allocating it on first use, without
// cell's pending-block check.
func (s *Subarray) dataRow(r int) []uint64 {
	if s.data[r] == nil {
		s.data[r] = make([]uint64, s.geom.WordsPerRow())
	}
	return s.data[r]
}

// writePending writes the pending block's value into its rows and empties
// the block.
func (s *Subarray) writePending() {
	lo, hi := s.pendLo, s.pendHi
	s.pendLo, s.pendHi = 0, 0
	for r := lo; r < hi; r++ {
		copy(s.dataRow(r), s.pendVal)
	}
}

// Activated reports whether the subarray's sense amplifiers are enabled.
func (s *Subarray) Activated() bool { return s.ampsOn }

// FusedEligible reports whether a whole command train's net state transition
// may be applied to this subarray in one fused pass instead of step by step:
// the subarray must be precharged (a train's first ACTIVATE senses), and no
// fault hook may be armed (both the one-shot TRA mask and the probabilistic
// injector observe individual activations, which a fused train skips).
func (s *Subarray) FusedEligible() bool {
	return !s.ampsOn && s.faultMask == nil && s.injector == nil
}

// DrawEligible is FusedEligible for a subarray with a fault injector
// installed: precharged, with no one-shot TRA mask set.  A train may then
// take its draws up front (DrawFaults) and, when none fires, apply its net
// state transition.
func (s *Subarray) DrawEligible() bool {
	return !s.ampsOn && s.faultMask == nil && s.injector != nil
}

// CellData returns the live storage backing one wordline, allocating lazily.
// It exists for the controller's fused command-train evaluator; callers own
// the subarray (bank shard held) and must leave it precharged, exactly as a
// complete AAP/AP train would.
func (s *Subarray) CellData(wl Wordline) []uint64 { return s.cell(wl) }

// RowData returns the live cell storage behind a single-wordline,
// non-negated row address, allocating lazily.  This is the backing of the
// zero-copy host view API (Bitvector.Words in the root package): the caller
// reads and writes the slice directly, bypassing the command interface, and
// owns whatever accounting that access model requires.
func (s *Subarray) RowData(a RowAddr) ([]uint64, error) {
	var wlbuf [3]Wordline
	wls, err := AppendWordlines(wlbuf[:0], a, s.geom)
	if err != nil {
		return nil, err
	}
	if len(wls) != 1 || wls[0].Negated() {
		return nil, fmt.Errorf("dram: RowData on multi-wordline or negated address %v", a)
	}
	return s.cell(wls[0]), nil
}

// rowBufferData returns the live sense-amplifier storage, or nil when the
// amplifiers are off.  Reading it is equivalent to a full row of ReadColumn
// calls, without the per-column dispatch.
func (s *Subarray) rowBufferData() []uint64 {
	if !s.ampsOn {
		return nil
	}
	return s.amps
}

// directWritable returns the row buffer when bulk-overwriting it is
// equivalent to a full row of WriteColumn calls: exactly one non-negated
// wordline is raised and its cell storage is the row buffer itself (the
// aliasing a single-row activation establishes).  nil otherwise — negated
// wordlines and multi-wordline AAP states need WriteColumn's polarity-aware
// propagation.
func (s *Subarray) directWritable() []uint64 {
	if !s.ampsOn || len(s.raised) != 1 || s.raised[0].Negated() {
		return nil
	}
	dst := s.cell(s.raised[0])
	if len(dst) == 0 || len(s.amps) == 0 || &dst[0] != &s.amps[0] {
		return nil
	}
	return s.amps
}

// Raised returns the wordlines raised since the last precharge.
func (s *Subarray) Raised() []Wordline { return append([]Wordline(nil), s.raised...) }

// InjectTRAFault arranges for the given bit mask to be XORed into the result
// of the next triple-row activation, emulating process-variation failures
// quantified by the circuit model (Section 6).  Passing nil clears the hook.
func (s *Subarray) InjectTRAFault(mask []uint64) { s.faultMask = mask }

// Activate performs the ACTIVATE command for the wordline set wls.
//
// If the subarray is precharged, this is a *first* activation: charge sharing
// between the connected cells determines the bitline values, the sense
// amplifiers latch and then restore every connected cell (Section 2,
// Figure 3; Section 3.1, Figure 4 for TRA; Section 4, Figure 6 for the
// n-wordline).  If the sense amplifiers are already enabled, this is the
// second ACTIVATE of an AAP: the amplifiers overwrite the newly connected
// cells with the latched value (Section 5.2).
//
// Returns the number of wordlines raised (for energy accounting).
func (s *Subarray) Activate(wls []Wordline) (int, error) {
	if len(wls) == 0 {
		return 0, fmt.Errorf("dram: activate with empty wordline set")
	}
	if s.ampsOn {
		s.overwrite(wls)
		s.raised = append(s.raised, wls...)
		return len(wls), nil
	}
	if err := s.sense(wls); err != nil {
		return 0, err
	}
	s.raised = append(s.raised, wls...)
	return len(wls), nil
}

// sense implements the first activation: charge sharing + sense
// amplification + restoration.
func (s *Subarray) sense(wls []Wordline) error {
	w := s.geom.WordsPerRow()
	switch len(wls) {
	case 1:
		src := s.cell(wls[0])
		if wls[0].Negated() {
			// The cell presents its value on bitline-bar; the row
			// buffer (bitline side) therefore latches the negation.
			s.amps = s.ampsBuf
			for i := 0; i < w; i++ {
				s.amps[i] = ^src[i]
			}
		} else {
			// Alias the cell: row buffer and restored cell are the
			// same storage until precharge.
			s.amps = src
		}
	case 2:
		// Dual activation on a precharged bank is only defined when
		// both cells already agree (bitline-side view); otherwise the
		// bitline settles at a half level.
		a, b := s.contribution(0, wls[0]), s.contribution(1, wls[1])
		for i := 0; i < w; i++ {
			if a[i] != b[i] {
				return ErrUndefinedChargeSharing
			}
		}
		s.amps = s.ampsBuf
		copy(s.amps, a)
	case 3:
		// Triple-row activation: bitwise majority (Section 3.1).
		a, b, c := s.contribution(0, wls[0]), s.contribution(1, wls[1]), s.contribution(2, wls[2])
		s.amps = s.ampsBuf
		for i := 0; i < w; i++ {
			s.amps[i] = a[i]&b[i] | b[i]&c[i] | c[i]&a[i]
		}
		if s.faultMask != nil {
			for i := 0; i < w && i < len(s.faultMask); i++ {
				s.amps[i] ^= s.faultMask[i]
			}
			s.faultMask = nil
		}
		if s.injector != nil {
			s.applyFault(s.amps, s.drawFault(FaultTRA, w))
		}
	default:
		return fmt.Errorf("dram: activation of %d wordlines not supported", len(wls))
	}
	s.ampsOn = true
	s.restore(wls)
	return nil
}

// contribution returns the value a cell presents on the bitline side: the
// cell value itself for data-side wordlines, its complement for n-wordlines.
// Non-negated cells are returned directly (the callers only read); negated
// views are built in the per-slot scratch buffer to keep activation
// allocation-free.
func (s *Subarray) contribution(slot int, wl Wordline) []uint64 {
	src := s.cell(wl)
	if !wl.Negated() {
		return src
	}
	if s.scratch[slot] == nil {
		s.scratch[slot] = make([]uint64, len(src))
	}
	out := s.scratch[slot]
	for i := range src {
		out[i] = ^src[i]
	}
	return out
}

// restore writes the latched sense-amplifier value back into every connected
// cell, respecting polarity.  This models the restoration phase of
// activation: TRA overwrites all three source cells with the majority value
// (Section 3.2, issue 3), and an n-wordline cell is charged from bitline-bar,
// i.e. with the complement of the row-buffer value.
//
// Single-wordline restores are elided when they cannot change cell contents:
// a non-negated cell is the row buffer (amps aliases it), and a negated cell
// gets ^(^cell) = cell back — unless a fault injector is installed, whose
// DCC mask draw must still happen on the restore.
func (s *Subarray) restore(wls []Wordline) {
	if len(wls) == 1 {
		if !wls[0].Negated() {
			return
		}
		if s.injector == nil {
			return
		}
	}
	s.overwrite(wls)
}

// overwrite copies the row buffer into the cells of the given wordlines.
// Writes through a negation wordline — the Ambit-NOT capture into a
// dual-contact cell — pass through the fault injector: DCC restoration is an
// analog transfer from bitline-bar that can fail on real chips.
func (s *Subarray) overwrite(wls []Wordline) {
	for _, wl := range wls {
		dst := s.cell(wl)
		if !wl.Negated() && len(dst) > 0 && len(s.amps) > 0 && &dst[0] == &s.amps[0] {
			continue // cell is the row buffer itself
		}
		if wl.Negated() {
			var m []uint64
			if s.injector != nil {
				m = s.drawFault(FaultDCC, len(dst))
			}
			for i := range dst {
				dst[i] = ^s.amps[i]
			}
			s.applyFault(dst, m)
		} else {
			copy(dst, s.amps)
		}
	}
}

// Precharge closes the subarray: the wordlines are lowered and the sense
// amplifiers disabled (Section 2).
func (s *Subarray) Precharge() {
	s.ampsOn = false
	s.amps = s.ampsBuf
	s.raised = s.raised[:0]
}

// ReadColumn returns word col of the row buffer.  The bank must be activated.
func (s *Subarray) ReadColumn(col int) (uint64, error) {
	if !s.ampsOn {
		return 0, ErrBankPrecharged
	}
	if col < 0 || col >= len(s.amps) {
		return 0, ErrColumnRange
	}
	return s.amps[col], nil
}

// WriteColumn overwrites word col of the row buffer and propagates the value
// into every currently raised wordline's cell (writes go through the sense
// amplifiers into the open row).
func (s *Subarray) WriteColumn(col int, v uint64) error {
	if !s.ampsOn {
		return ErrBankPrecharged
	}
	if col < 0 || col >= len(s.amps) {
		return ErrColumnRange
	}
	s.amps[col] = v
	for _, wl := range s.raised {
		dst := s.cell(wl)
		if wl.Negated() {
			dst[col] = ^v
		} else {
			dst[col] = v
		}
	}
	return nil
}

// RowBuffer returns a copy of the current sense-amplifier contents.
func (s *Subarray) RowBuffer() ([]uint64, error) {
	if !s.ampsOn {
		return nil, ErrBankPrecharged
	}
	return append([]uint64(nil), s.amps...), nil
}

// PeekRow returns a copy of the cells behind a row address, without issuing
// any DRAM command.  For multi-wordline B-group addresses it returns the
// first wordline's row.  Intended for tests and debugging tools.
func (s *Subarray) PeekRow(a RowAddr) ([]uint64, error) {
	wls, err := DecodeRowAddr(a, s.geom)
	if err != nil {
		return nil, err
	}
	return append([]uint64(nil), s.cell(wls[0])...), nil
}

// PeekRowInto is PeekRow into a caller-supplied buffer of exactly one row's
// words, allocating nothing.
func (s *Subarray) PeekRowInto(a RowAddr, dst []uint64) error {
	var wlbuf [3]Wordline
	wls, err := AppendWordlines(wlbuf[:0], a, s.geom)
	if err != nil {
		return err
	}
	src := s.cell(wls[0])
	if len(dst) != len(src) {
		return ErrRowSize
	}
	copy(dst, src)
	return nil
}

// PeekWordline returns a copy of the cells behind one physical wordline.
func (s *Subarray) PeekWordline(wl Wordline) []uint64 {
	return append([]uint64(nil), s.cell(wl)...)
}

// PokeRow overwrites the cells behind a single-wordline row address, without
// issuing DRAM commands.  Used to initialize memory content ("load a memory
// image") in tests and by the backdoor loader of the public API.
func (s *Subarray) PokeRow(a RowAddr, data []uint64) error {
	var wlbuf [3]Wordline
	wls, err := AppendWordlines(wlbuf[:0], a, s.geom)
	if err != nil {
		return err
	}
	if len(wls) != 1 {
		return fmt.Errorf("dram: PokeRow on multi-wordline address %v", a)
	}
	dst := s.cell(wls[0])
	if len(data) != len(dst) {
		return ErrRowSize
	}
	copy(dst, data)
	return nil
}
