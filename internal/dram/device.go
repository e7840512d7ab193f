package dram

import (
	"fmt"
	"math/bits"
	"sync"
)

// Stats counts the DRAM commands a device has executed, broken down the way
// the energy model needs them (Section 7: "the activation energy increases by
// 22% for each additional wordline raised").
type Stats struct {
	// Activates[k] counts ACTIVATE commands that raised k+1 wordlines.
	// Conventional and Ambit commands use k = 0..2; many-row simultaneous
	// activation (ActivateMany) uses k up to MaxSimultaneousWordlines-1.
	Activates [MaxSimultaneousWordlines]int64
	// Precharges counts PRECHARGE commands.
	Precharges int64
	// ColumnReads and ColumnWrites count 64-bit column accesses.
	ColumnReads  int64
	ColumnWrites int64
}

// TotalActivates returns the total number of ACTIVATE commands.
func (s Stats) TotalActivates() int64 {
	var n int64
	for _, v := range s.Activates {
		n += v
	}
	return n
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	for i := range s.Activates {
		s.Activates[i] += o.Activates[i]
	}
	s.Precharges += o.Precharges
	s.ColumnReads += o.ColumnReads
	s.ColumnWrites += o.ColumnWrites
}

// Sub returns s - o (useful for windowed measurements).
func (s Stats) Sub(o Stats) Stats {
	var r Stats
	for i := range s.Activates {
		r.Activates[i] = s.Activates[i] - o.Activates[i]
	}
	r.Precharges = s.Precharges - o.Precharges
	r.ColumnReads = s.ColumnReads - o.ColumnReads
	r.ColumnWrites = s.ColumnWrites - o.ColumnWrites
	return r
}

// Device models one Ambit DRAM device: a set of banks plus the command
// interface the memory controller drives.  Per Section 5, the command and
// address interface is exactly that of commodity DRAM — ACTIVATE, READ,
// WRITE, PRECHARGE — with the Ambit behaviour selected purely by the row
// address group.
//
// Concurrency: the command counters are guarded by an internal mutex, so
// command trains running on *different* banks may be issued from different
// goroutines (the batch execution engine in the root package does exactly
// that, holding one lock per bank).  Bank state itself — the open row, the
// subarray cells, the scheduling timeline — is not locked here; callers must
// not drive the same bank from two goroutines at once.
type Device struct {
	cfg   Config
	banks []*Bank

	mu    sync.Mutex // guards stats
	stats Stats
}

// NewDevice constructs a device from cfg.  It panics only on nil-safety
// violations; configuration errors are returned.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg}
	d.banks = make([]*Bank, cfg.Geometry.Banks)
	for i := range d.banks {
		d.banks[i] = NewBank(cfg.Geometry)
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.cfg.Geometry }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.cfg.Timing }

// Bank returns bank i.
func (d *Device) Bank(i int) *Bank { return d.banks[i] }

// Stats returns a snapshot of the command counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the command counters.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// ResetTimelines rewinds every bank's scheduling clock to zero.
func (d *Device) ResetTimelines() {
	for _, b := range d.banks {
		b.ResetTimeline()
	}
}

// BankBusyNS returns a snapshot of every bank's accumulated busy time —
// the per-bank occupancy breakdown the system-level Stats expose.
func (d *Device) BankBusyNS() []float64 {
	out := make([]float64, len(d.banks))
	for i, b := range d.banks {
		out[i] = b.BusyNS()
	}
	return out
}

// Activate issues ACTIVATE to the addressed bank/subarray/row.
func (d *Device) Activate(p PhysAddr) error {
	if err := p.Validate(d.cfg.Geometry); err != nil {
		return err
	}
	n, err := d.banks[p.Bank].Activate(p.Subarray, p.Row)
	if err != nil {
		return fmt.Errorf("activate %v: %w", p, err)
	}
	d.mu.Lock()
	d.stats.Activates[n-1]++
	d.mu.Unlock()
	return nil
}

// Precharge issues PRECHARGE to bank.
func (d *Device) Precharge(bank int) error {
	if bank < 0 || bank >= len(d.banks) {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	d.banks[bank].Precharge()
	d.mu.Lock()
	d.stats.Precharges++
	d.mu.Unlock()
	return nil
}

// PrechargeAll precharges every bank (the "precharge all" DRAM command).
func (d *Device) PrechargeAll() {
	for _, b := range d.banks {
		b.Precharge()
	}
	d.mu.Lock()
	d.stats.Precharges += int64(len(d.banks))
	d.mu.Unlock()
}

// ReadColumn reads 64-bit column col from the open row of bank.
func (d *Device) ReadColumn(bank, col int) (uint64, error) {
	if bank < 0 || bank >= len(d.banks) {
		return 0, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	v, err := d.banks[bank].ReadColumn(col)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.stats.ColumnReads++
	d.mu.Unlock()
	return v, nil
}

// WriteColumn writes 64-bit column col of the open row of bank.
func (d *Device) WriteColumn(bank, col int, v uint64) error {
	if bank < 0 || bank >= len(d.banks) {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	if err := d.banks[bank].WriteColumn(col, v); err != nil {
		return err
	}
	d.mu.Lock()
	d.stats.ColumnWrites++
	d.mu.Unlock()
	return nil
}

// ActivateLocal is Activate with the command count accumulated into st
// instead of the device counters.  Hot paths batch a whole command train's
// counts locally and publish them with one CommitStats call, replacing one
// mutex round-trip per command with one per train.
func (d *Device) ActivateLocal(p PhysAddr, st *Stats) error {
	if err := p.Validate(d.cfg.Geometry); err != nil {
		return err
	}
	n, err := d.banks[p.Bank].Activate(p.Subarray, p.Row)
	if err != nil {
		return fmt.Errorf("activate %v: %w", p, err)
	}
	st.Activates[n-1]++
	return nil
}

// PrechargeLocal is Precharge with the command count accumulated into st.
func (d *Device) PrechargeLocal(bank int, st *Stats) error {
	if bank < 0 || bank >= len(d.banks) {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	d.banks[bank].Precharge()
	st.Precharges++
	return nil
}

// CommitStats publishes locally accumulated command counts to the device
// counters in one locked operation.
func (d *Device) CommitStats(st Stats) {
	d.mu.Lock()
	d.stats.Add(st)
	d.mu.Unlock()
}

// ReadRow performs an ACTIVATE, a full row of column reads, and a PRECHARGE,
// returning the row contents.  This is the conventional (non-Ambit) way to
// get data out of the array, used by baselines and by the public API's Read.
func (d *Device) ReadRow(p PhysAddr) ([]uint64, error) {
	out := make([]uint64, d.cfg.Geometry.WordsPerRow())
	if err := d.ReadRowInto(p, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRowInto is ReadRow into a caller-supplied buffer of exactly
// WordsPerRow words, allocating nothing — the host read path of the
// zero-copy Bitvector API.
func (d *Device) ReadRowInto(p PhysAddr, dst []uint64) error {
	if len(dst) != d.cfg.Geometry.WordsPerRow() {
		return ErrRowSize
	}
	var st Stats
	if err := d.ActivateLocal(p, &st); err != nil {
		d.CommitStats(st)
		return err
	}
	b := d.banks[p.Bank]
	if buf := b.RowBufferData(); len(buf) == len(dst) {
		// Bulk fast path: the row buffer is live after a successful
		// ACTIVATE, and a full-row read is exactly its contents.  Same
		// command census as the column loop, one memmove instead of
		// per-column dispatch.
		copy(dst, buf)
		st.ColumnReads += int64(len(dst))
	} else {
		for c := range dst {
			v, err := b.ReadColumn(c)
			if err != nil {
				st.ColumnReads += int64(c)
				d.CommitStats(st)
				return err
			}
			dst[c] = v
		}
		st.ColumnReads += int64(len(dst))
	}
	err := d.PrechargeLocal(p.Bank, &st)
	d.CommitStats(st)
	return err
}

// PopcountRow counts the set bits of one row with ReadRowInto's exact census
// — an ACTIVATE, WordsPerRow column reads, a PRECHARGE — reading the words
// straight from the live row buffer instead of copying them out first.
func (d *Device) PopcountRow(p PhysAddr) (int64, error) {
	var st Stats
	if err := d.ActivateLocal(p, &st); err != nil {
		d.CommitStats(st)
		return 0, err
	}
	b := d.banks[p.Bank]
	words := d.cfg.Geometry.WordsPerRow()
	var n int64
	if buf := b.RowBufferData(); len(buf) == words {
		for _, w := range buf {
			n += int64(bits.OnesCount64(w))
		}
	} else {
		for c := 0; c < words; c++ {
			v, err := b.ReadColumn(c)
			if err != nil {
				st.ColumnReads += int64(c)
				d.CommitStats(st)
				return 0, err
			}
			n += int64(bits.OnesCount64(v))
		}
	}
	st.ColumnReads += int64(words)
	err := d.PrechargeLocal(p.Bank, &st)
	d.CommitStats(st)
	return n, err
}

// WriteRow performs an ACTIVATE, a full row of column writes, and a
// PRECHARGE.
func (d *Device) WriteRow(p PhysAddr, data []uint64) error {
	if len(data) != d.cfg.Geometry.WordsPerRow() {
		return ErrRowSize
	}
	var st Stats
	if err := d.ActivateLocal(p, &st); err != nil {
		d.CommitStats(st)
		return err
	}
	b := d.banks[p.Bank]
	if buf := b.DirectWritable(); len(buf) == len(data) {
		// Bulk fast path: a single non-negated activation leaves the row
		// buffer aliasing the cell storage, so overwriting it wholesale is
		// exactly what the column loop would do — same census, one memmove.
		copy(buf, data)
		st.ColumnWrites += int64(len(data))
	} else {
		for c, v := range data {
			if err := b.WriteColumn(c, v); err != nil {
				st.ColumnWrites += int64(c)
				d.CommitStats(st)
				return err
			}
		}
		st.ColumnWrites += int64(len(data))
	}
	err := d.PrechargeLocal(p.Bank, &st)
	d.CommitStats(st)
	return err
}

// PeekRow returns the cell contents behind p without issuing commands.
func (d *Device) PeekRow(p PhysAddr) ([]uint64, error) {
	if err := p.Validate(d.cfg.Geometry); err != nil {
		return nil, err
	}
	return d.banks[p.Bank].Subarray(p.Subarray).PeekRow(p.Row)
}

// PeekRowInto is PeekRow into a caller-supplied buffer of exactly
// WordsPerRow words, allocating nothing.
func (d *Device) PeekRowInto(p PhysAddr, dst []uint64) error {
	if err := p.Validate(d.cfg.Geometry); err != nil {
		return err
	}
	return d.banks[p.Bank].Subarray(p.Subarray).PeekRowInto(p.Row, dst)
}

// RowData returns the live cell storage behind a single-wordline,
// non-negated row address, allocating lazily and issuing no commands — the
// device-level entry of the zero-copy host view API.  The caller owns
// synchronization and accounting.
func (d *Device) RowData(p PhysAddr) ([]uint64, error) {
	if err := p.Validate(d.cfg.Geometry); err != nil {
		return nil, err
	}
	return d.banks[p.Bank].Subarray(p.Subarray).RowData(p.Row)
}

// PokeRow overwrites the cell contents behind p without issuing commands.
func (d *Device) PokeRow(p PhysAddr, data []uint64) error {
	if err := p.Validate(d.cfg.Geometry); err != nil {
		return err
	}
	return d.banks[p.Bank].Subarray(p.Subarray).PokeRow(p.Row, data)
}
