package ambit

import (
	"fmt"
	"math/bits"

	"ambit/internal/dram"
)

// Bitvector is a bit vector resident in simulated Ambit DRAM.  Its storage
// is a sequence of full DRAM rows interleaved across (bank, subarray) slots;
// bit i lives in row i/RowSizeBits, word (i%RowSizeBits)/64, bit i%64.
//
// A Bitvector is safe for concurrent use through its exported methods (they
// synchronize on the owning System); a freed vector is rejected with an
// error by every data-touching method.
type Bitvector struct {
	sys  *System
	bits int64
	rows []dram.PhysAddr

	// quota is the row budget the vector was allocated under (nil for
	// unmetered vectors); Free credits the rows back to it.
	quota *Quota

	// views caches the per-row storage slices handed out by Words, built
	// on first use and cleared by Free (the rows return to the allocator;
	// a stale view would alias another vector's data).
	views [][]uint64
}

// checkLive verifies the vector has not been freed; failures wrap ErrFreed
// for errors.Is.  The caller holds v.sys.execMu.
func (v *Bitvector) checkLive(name string) error {
	if v.rows == nil {
		return fmt.Errorf("ambit: %s: %w", name, ErrFreed)
	}
	return nil
}

// Len returns the logical length in bits (0 after Free).
func (v *Bitvector) Len() int64 {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	return v.bits
}

// Rows returns the number of DRAM rows backing the vector (0 after Free).
func (v *Bitvector) Rows() int {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	return len(v.rows)
}

// Row returns the physical address of backing row r.
func (v *Bitvector) Row(r int) dram.PhysAddr {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	return v.rows[r]
}

// wordsPerRow returns 64-bit words per backing row.
func (v *Bitvector) wordsPerRow() int { return v.sys.dev.Geometry().WordsPerRow() }

// WordCount returns the number of 64-bit words the vector's rows hold (its
// padded capacity; Len()/64 rounded up to whole rows).
func (v *Bitvector) WordCount() int {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	return v.words()
}

// words is WordCount without locking; the caller holds v.sys.execMu.
func (v *Bitvector) words() int { return len(v.rows) * v.wordsPerRow() }

// Words returns zero-copy views of the vector's backing rows: one slice of
// WordsPerRow 64-bit words per DRAM row, in row order, aliasing the
// simulated cell storage directly.  Reading or writing the slices is host
// access to the rows without staging copies — the data plane of the serving
// layer and ambitbench's host I/O path.
//
// Cost model (the coherence contract): by default the call charges one full
// transfer of the vector's rows over the DRAM channel, with the same command
// census as Read — acquiring a host-visible image of DRAM contents is not
// free — plus the Section 5.4.4 coherence accounting for the vector's rows.
// Subsequent access through the views models cached host access and costs
// nothing until the views are refreshed (call Words again) or the data is
// pushed back (SetWords / Write).  With Backdoor the views are handed out
// cost-free.  Either way, host writes through a view are NOT automatically
// visible to Ambit operations at zero cost in the model: every bulk
// operation already charges coherence flushes for its operand rows, which is
// exactly the flush such dirty host lines need.
//
// The views stay valid until the vector is freed; Free invalidates them (the
// rows return to the allocator).  Views alias live simulation state: using
// them concurrently with operations on the same vector is a data race, just
// as with any shared memory.
func (v *Bitvector) Words(opts ...IOOption) ([][]uint64, error) {
	io := applyIO(opts)
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("Words"); err != nil {
		return nil, err
	}
	if err := v.materializeViews(); err != nil {
		return nil, err
	}
	if !io.backdoor {
		v.chargeViewTransfer(false)
	}
	return v.views, nil
}

// ViewWords invokes fn with the vector's zero-copy row views (see Words)
// while holding the System's execution lock, so the access is serialized
// against every operation on the System — the safe form of view access for
// concurrent callers such as the serving layer's data plane, which would
// otherwise race with operations mutating the same rows.  The views must not
// be retained after fn returns.  Costs are charged exactly as Words: one full
// view transfer on the costed path, nothing with Backdoor.  fn's error is
// returned unchanged.
func (v *Bitvector) ViewWords(fn func(views [][]uint64) error, opts ...IOOption) error {
	io := applyIO(opts)
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("ViewWords"); err != nil {
		return err
	}
	if err := v.materializeViews(); err != nil {
		return err
	}
	if !io.backdoor {
		v.chargeViewTransfer(false)
	}
	return fn(v.views)
}

// SetWords installs words into the vector's backing rows from offset 0
// without staging copies or zero-filling (use Write for install-with-
// zero-fill semantics), returning how many words were stored:
// min(len(words), WordCount).  By default the touched rows are charged as
// one channel transfer with Write's command census plus coherence
// accounting; with Backdoor the install is cost-free.
func (v *Bitvector) SetWords(words []uint64, opts ...IOOption) (int, error) {
	io := applyIO(opts)
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("SetWords"); err != nil {
		return 0, err
	}
	if err := v.materializeViews(); err != nil {
		return 0, err
	}
	if len(words) > v.words() {
		words = words[:v.words()]
	}
	n := len(words)
	for _, row := range v.views {
		if len(words) == 0 {
			break
		}
		c := copy(row, words)
		words = words[c:]
	}
	if !io.backdoor && n > 0 {
		v.chargeViewTransferRows(true, (n+v.wordsPerRow()-1)/v.wordsPerRow())
	}
	return n, nil
}

// materializeViews builds the per-row storage views on first use; the caller
// holds v.sys.execMu and has checked liveness.
func (v *Bitvector) materializeViews() error {
	if v.views != nil {
		return nil
	}
	views := make([][]uint64, len(v.rows))
	for r, addr := range v.rows {
		row, err := v.sys.dev.RowData(addr)
		if err != nil {
			return fmt.Errorf("ambit: Words: row %d: %w", r, err)
		}
		views[r] = row
	}
	v.views = views
	return nil
}

// chargeViewTransfer charges the costed Words/SetWords path for all rows.
func (v *Bitvector) chargeViewTransfer(write bool) {
	v.chargeViewTransferRows(write, len(v.rows))
}

// chargeViewTransferRows commits the command census of moving `rows` full
// rows between host and DRAM (one single-wordline ACTIVATE, a full row of
// column accesses, and a PRECHARGE per row — Read/Write's census), charges
// the channel time, and accounts the coherence flush for those rows.  The
// caller holds execMu exclusively.
func (v *Bitvector) chargeViewTransferRows(write bool, rows int) {
	s := v.sys
	g := s.dev.Geometry()
	var st dram.Stats
	st.Activates[0] = int64(rows)
	st.Precharges = int64(rows)
	if write {
		st.ColumnWrites = int64(rows) * int64(g.WordsPerRow())
	} else {
		st.ColumnReads = int64(rows) * int64(g.WordsPerRow())
	}
	s.dev.CommitStats(st)
	s.stats.ElapsedNS += s.coherenceNS(int64(rows))
	s.chargeChannel(int64(rows) * int64(g.RowSizeBytes))
}

// IOOption configures one host I/O transfer (Read, ReadInto, Write,
// WriteAt).  The zero configuration is the costed path: data moves over the
// simulated DRAM channel, charging the corresponding commands, channel time,
// and energy.
type IOOption func(ioConfig) ioConfig

type ioConfig struct{ backdoor bool }

// Backdoor routes the transfer through the simulation backdoor: cell
// contents are copied directly, free of simulated cost and without issuing
// DRAM commands.  Use it to install experiment state or inspect results when
// the transfer itself is not part of the workload being measured.
func Backdoor() IOOption {
	return func(c ioConfig) ioConfig { c.backdoor = true; return c }
}

// applyIO folds the options into a config by value, keeping it off the heap
// so the ReadInto/WriteAt hot paths stay allocation-free.
func applyIO(opts []IOOption) ioConfig {
	var c ioConfig
	for _, o := range opts {
		c = o(c)
	}
	return c
}

// Write stores words into the vector from offset 0, zero-filling the unset
// tail up to the padded capacity (Words).  This is the canonical bulk
// install: by default it moves the vector's rows over the DRAM channel and
// charges commands plus channel time; with Backdoor it is cost-free.
// Writing more than Words words wraps ErrOutOfRange.
func (v *Bitvector) Write(words []uint64, opts ...IOOption) error {
	io := applyIO(opts)
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("Write"); err != nil {
		return err
	}
	if len(words) > v.words() {
		return fmt.Errorf("ambit: Write: %d words exceed capacity %d: %w", len(words), v.words(), ErrOutOfRange)
	}
	writeRow := v.sys.dev.WriteRow
	if io.backdoor {
		writeRow = v.sys.dev.PokeRow
	}
	wpr := v.wordsPerRow()
	var zero []uint64 // scratch, zeroed lazily for the all-zero tail rows
	for r, addr := range v.rows {
		lo := r * wpr
		var src []uint64
		switch {
		case lo+wpr <= len(words):
			// Fully covered: write straight from the caller's slice.
			src = words[lo : lo+wpr]
		case lo < len(words):
			// Partially covered boundary row: stage through scratch with
			// the tail zero-filled.
			buf := v.sys.rowScratch()
			n := copy(buf, words[lo:])
			for i := n; i < len(buf); i++ {
				buf[i] = 0
			}
			src = buf
		default:
			// Unset tail row: all zeros (the boundary row, if any, was
			// already written, so re-zeroing the scratch is safe).
			if zero == nil {
				zero = v.sys.rowScratch()
				for i := range zero {
					zero[i] = 0
				}
			}
			src = zero
		}
		if err := writeRow(addr, src); err != nil {
			return err
		}
	}
	if !io.backdoor {
		v.sys.chargeChannel(int64(len(v.rows)) * int64(v.sys.dev.Geometry().RowSizeBytes))
	}
	return nil
}

// WriteAt stores words at the given word offset without touching the rest of
// the vector (no zero-fill).  Only the covered rows move: partially covered
// rows are read-modified through the backdoor and written back whole.  The
// costed path charges channel time for every touched row; with Backdoor the
// update is cost-free.  A range past the padded capacity wraps ErrOutOfRange.
func (v *Bitvector) WriteAt(wordOff int, words []uint64, opts ...IOOption) error {
	io := applyIO(opts)
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("WriteAt"); err != nil {
		return err
	}
	if wordOff < 0 || wordOff+len(words) > v.words() {
		return fmt.Errorf("ambit: WriteAt: words [%d,%d) exceed capacity %d: %w",
			wordOff, wordOff+len(words), v.words(), ErrOutOfRange)
	}
	if len(words) == 0 {
		return nil
	}
	writeRow := v.sys.dev.WriteRow
	if io.backdoor {
		writeRow = v.sys.dev.PokeRow
	}
	wpr := v.wordsPerRow()
	buf := v.sys.rowScratch()
	first, last := wordOff/wpr, (wordOff+len(words)-1)/wpr
	for r := first; r <= last; r++ {
		lo, hi := r*wpr, (r+1)*wpr // this row's word range within the vector
		src := buf
		if wordOff <= lo && hi <= wordOff+len(words) {
			// Fully covered: write straight from the caller's slice.
			src = words[lo-wordOff : hi-wordOff]
		} else {
			// Partially covered: read-modify-write through the backdoor.
			if err := v.sys.dev.PeekRowInto(v.rows[r], buf); err != nil {
				return err
			}
			for i := lo; i < hi; i++ {
				if i >= wordOff && i < wordOff+len(words) {
					buf[i-lo] = words[i-wordOff]
				}
			}
		}
		if err := writeRow(v.rows[r], src); err != nil {
			return err
		}
	}
	if !io.backdoor {
		v.sys.chargeChannel(int64(last-first+1) * int64(v.sys.dev.Geometry().RowSizeBytes))
	}
	return nil
}

// Read returns the vector's full padded content (Words words).  By default
// the rows stream over the DRAM channel, charging commands and channel time;
// with Backdoor the copy is cost-free.
func (v *Bitvector) Read(opts ...IOOption) ([]uint64, error) {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("Read"); err != nil {
		return nil, err
	}
	out := make([]uint64, v.words())
	if err := v.readInto(out, applyIO(opts)); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is Read into a caller-supplied buffer, allocating nothing: it
// fills dst with min(len(dst), Words) words from offset 0 and returns the
// count.  Only the rows needed to cover dst move (and are charged, on the
// costed path); a partially needed final row is staged through a per-System
// scratch row.  This is the hot read path of the serving layer and
// ambitbench — size dst with Words once and reuse it across calls.
func (v *Bitvector) ReadInto(dst []uint64, opts ...IOOption) (int, error) {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("ReadInto"); err != nil {
		return 0, err
	}
	if len(dst) > v.words() {
		dst = dst[:v.words()]
	}
	if err := v.readInto(dst, applyIO(opts)); err != nil {
		return 0, err
	}
	return len(dst), nil
}

// readInto fills dst (len(dst) <= words()) from word offset 0; the caller
// holds v.sys.execMu exclusively.
func (v *Bitvector) readInto(dst []uint64, io ioConfig) error {
	if len(dst) == 0 {
		return nil
	}
	readRow := v.sys.dev.ReadRowInto
	if io.backdoor {
		readRow = v.sys.dev.PeekRowInto
	}
	wpr := v.wordsPerRow()
	rows := (len(dst) + wpr - 1) / wpr
	for r := 0; r < rows; r++ {
		lo := r * wpr
		if lo+wpr <= len(dst) {
			if err := readRow(v.rows[r], dst[lo:lo+wpr]); err != nil {
				return err
			}
			continue
		}
		// Partially needed final row: stage through the scratch row.
		buf := v.sys.rowScratch()
		if err := readRow(v.rows[r], buf); err != nil {
			return err
		}
		copy(dst[lo:], buf)
	}
	if !io.backdoor {
		v.sys.chargeChannel(int64(rows) * int64(v.sys.dev.Geometry().RowSizeBytes))
	}
	return nil
}

// peek returns the full content through the backdoor without locking; the
// caller holds v.sys.execMu.
func (v *Bitvector) peek() ([]uint64, error) {
	out := make([]uint64, v.words())
	if err := v.readInto(out, ioConfig{backdoor: true}); err != nil {
		return nil, err
	}
	return out, nil
}

// Bit returns bit i (backdoor, cost-free).
func (v *Bitvector) Bit(i int64) (bool, error) {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("Bit"); err != nil {
		return false, err
	}
	if i < 0 || i >= v.bits {
		return false, fmt.Errorf("ambit: Bit(%d) outside [0,%d): %w", i, v.bits, ErrOutOfRange)
	}
	rowBits := int64(v.sys.RowSizeBits())
	row, err := v.sys.dev.PeekRow(v.rows[i/rowBits])
	if err != nil {
		return false, err
	}
	off := i % rowBits
	return row[off/64]&(1<<uint(off%64)) != 0, nil
}

// SetBit sets or clears bit i (backdoor, cost-free).
func (v *Bitvector) SetBit(i int64, val bool) error {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("SetBit"); err != nil {
		return err
	}
	if i < 0 || i >= v.bits {
		return fmt.Errorf("ambit: SetBit(%d) outside [0,%d): %w", i, v.bits, ErrOutOfRange)
	}
	rowBits := int64(v.sys.RowSizeBits())
	addr := v.rows[i/rowBits]
	row, err := v.sys.dev.PeekRow(addr)
	if err != nil {
		return err
	}
	off := i % rowBits
	if val {
		row[off/64] |= 1 << uint(off%64)
	} else {
		row[off/64] &^= 1 << uint(off%64)
	}
	return v.sys.dev.PokeRow(addr, row)
}

// PopcountFree counts set bits through the backdoor (no simulated cost);
// bits beyond Len() are ignored if the caller kept them zero (Load/Write
// zero-fill them).
func (v *Bitvector) PopcountFree() (int64, error) {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	if err := v.checkLive("PopcountFree"); err != nil {
		return 0, err
	}
	words, err := v.peek()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, w := range words {
		n += int64(bits.OnesCount64(w))
	}
	return n, nil
}

// SameShape reports whether two vectors have identical row counts and
// co-located corresponding rows (the bbop alignment requirement of
// Section 5.4.3 plus the placement contract of Section 5.4.2).
func (v *Bitvector) SameShape(o *Bitvector) bool {
	v.sys.execMu.Lock()
	defer v.sys.execMu.Unlock()
	return v.sameShape(o)
}

// sameShape is SameShape without locking; the caller holds v.sys.execMu.
func (v *Bitvector) sameShape(o *Bitvector) bool {
	if len(v.rows) != len(o.rows) {
		return false
	}
	for i := range v.rows {
		if v.rows[i].Bank != o.rows[i].Bank || v.rows[i].Subarray != o.rows[i].Subarray {
			return false
		}
	}
	return true
}
