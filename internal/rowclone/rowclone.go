// Package rowclone implements the RowClone in-DRAM copy mechanisms that
// Ambit builds on (Section 3.4 of the Ambit paper; Seshadri et al.,
// MICRO 2013):
//
//   - FPM (Fast Parallel Mode): two back-to-back ACTIVATEs to the source and
//     destination rows of the *same subarray* copy an entire row through the
//     sense amplifiers in ~80 ns.
//   - PSM (Pipelined Serial Mode): copies between two banks over the
//     internal DRAM bus, one cache line at a time — faster than a
//     controller-mediated copy but much slower than FPM.
//
// Row initialization is an FPM copy from a pre-initialized control row
// (C0 = zeros, C1 = ones).
package rowclone

import (
	"fmt"
	"sync"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// Mode identifies which copy mechanism an operation used.
type Mode uint8

const (
	// ModeFPM is RowClone Fast Parallel Mode (intra-subarray).
	ModeFPM Mode = iota
	// ModePSM is RowClone Pipelined Serial Mode (inter-bank).
	ModePSM
	// ModeMC is a conventional memory-controller-mediated copy: read the
	// source row over the channel and write it back.  Modelled only for
	// baseline comparisons.
	ModeMC
	// ModeLISA is a Low-cost-Interlinked-Subarrays row-buffer-movement
	// copy between subarrays of one bank (footnote 3 of the Ambit paper;
	// optional, see Engine.EnableLISA).
	ModeLISA
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFPM:
		return "RowClone-FPM"
	case ModePSM:
		return "RowClone-PSM"
	case ModeMC:
		return "memcpy"
	case ModeLISA:
		return "LISA"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Stats counts copy operations by mode.
type Stats struct {
	FPMCopies  int64
	PSMCopies  int64
	MCCopies   int64
	LISACopies int64
	// TotalNS is the accumulated simulated latency of all copies.
	TotalNS float64
}

// Engine executes RowClone operations against a DRAM device and accounts for
// their latency.
type Engine struct {
	dev *dram.Device
	// InternalBusGBps is the internal bus bandwidth used by PSM copies.
	// RowClone models PSM as pipelined cache-line transfers over the
	// shared internal bus.
	InternalBusGBps float64
	// ChannelGBps is the external channel bandwidth used by
	// controller-mediated copies (ModeMC).
	ChannelGBps float64
	// EnableLISA enables the Low-cost-Interlinked-Subarrays extension
	// (footnote 3: future work in the paper, modelled here so its
	// benefit can be quantified).  When on, Copy prefers LISA over PSM
	// for intra-bank inter-subarray copies.
	EnableLISA bool

	// tr receives one command event per copy; nil costs one check.
	tr *obs.Tracer

	mu    sync.Mutex // guards stats
	stats Stats
}

// SetTracer installs an observability tracer.  Call before issuing copies;
// not synchronized with execution.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tr = tr }

// emitCopy emits one copy command event onto the destination bank's lane.
// Callers check e.tr.Enabled() first, so an untraced copy formats no
// addresses and allocates nothing.
func (e *Engine) emitCopy(mode Mode, bank, sub int, src, dst, comment string, durNS float64) {
	e.tr.Emit(obs.Event{
		Kind: obs.KindCommand, Name: mode.String(), Bank: bank, Subarray: sub,
		StartNS: -1, DurNS: durNS, A1: src, A2: dst, Comment: comment,
	})
}

// New creates an engine over dev with default bus bandwidths.
func New(dev *dram.Device) *Engine {
	return &Engine{
		dev:             dev,
		InternalBusGBps: 6.4,
		ChannelGBps:     dev.Timing().ChannelGBps,
	}
}

// Stats returns a snapshot of the copy counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
}

// FPMLatencyNS returns the latency of one FPM copy: two serial ACTIVATEs
// plus a PRECHARGE (2·tRAS + tRP; 80 ns for DDR3-1600, matching the 80 ns
// the paper quotes for RowClone-FPM).
func (e *Engine) FPMLatencyNS() float64 { return e.dev.Timing().AAPNaive() }

// PSMLatencyNS returns the latency of one PSM copy of a full row: the
// source activation, the pipelined transfer of the row over the internal
// bus, the destination write-back, and both precharges.
func (e *Engine) PSMLatencyNS() float64 {
	t := e.dev.Timing()
	row := float64(e.dev.Geometry().RowSizeBytes)
	transfer := row / e.InternalBusGBps // bytes / (GB/s) = ns
	return 2*t.TRAS + 2*t.TRP + transfer
}

// MCLatencyNS returns the latency of a conventional copy through the memory
// controller: the row crosses the external channel twice (read to the
// controller, write back), paying column-access latency per cache line in
// each direction.
func (e *Engine) MCLatencyNS() float64 {
	t := e.dev.Timing()
	row := float64(e.dev.Geometry().RowSizeBytes)
	lines := row / 64
	if lines < 1 {
		lines = 1
	}
	return 2*t.TRAS + 2*t.TRP + lines*2*t.TCL + 2*row/e.ChannelGBps
}

// FPM copies row src to row dst within subarray sub of the given bank using
// Fast Parallel Mode, returning the operation latency in nanoseconds.
//
// src may be any single- or multi-wordline address (activating B12, for
// example, performs a TRA whose result is copied); dst receives the
// sense-amplifier contents.
func (e *Engine) FPM(bank, sub int, src, dst dram.RowAddr) (float64, error) {
	if err := e.dev.Activate(dram.PhysAddr{Bank: bank, Subarray: sub, Row: src}); err != nil {
		return 0, fmt.Errorf("rowclone: FPM source: %w", err)
	}
	if err := e.dev.Activate(dram.PhysAddr{Bank: bank, Subarray: sub, Row: dst}); err != nil {
		return 0, fmt.Errorf("rowclone: FPM destination: %w", err)
	}
	if err := e.dev.Precharge(bank); err != nil {
		return 0, err
	}
	lat := e.FPMLatencyNS()
	e.mu.Lock()
	e.stats.FPMCopies++
	e.stats.TotalNS += lat
	e.mu.Unlock()
	if e.tr.Enabled() {
		e.emitCopy(ModeFPM, bank, sub, src.String(), dst.String(), "intra-subarray amplifier copy", lat)
	}
	return lat, nil
}

// InitZero initializes row dst of the subarray to all zeros via an FPM copy
// from control row C0 (Section 3.4).
func (e *Engine) InitZero(bank, sub int, dst dram.RowAddr) (float64, error) {
	return e.FPM(bank, sub, dram.C(0), dst)
}

// InitOne initializes row dst of the subarray to all ones via an FPM copy
// from control row C1.
func (e *Engine) InitOne(bank, sub int, dst dram.RowAddr) (float64, error) {
	return e.FPM(bank, sub, dram.C(1), dst)
}

// PSM copies a full row between two locations that do not share a subarray,
// transferring the data over the internal DRAM bus one column at a time.
func (e *Engine) PSM(src, dst dram.PhysAddr) (float64, error) {
	if src.Bank == dst.Bank && src.Subarray == dst.Subarray {
		return 0, fmt.Errorf("rowclone: PSM within one subarray; use FPM")
	}
	if src.Bank == dst.Bank {
		// Same bank, different subarray: the bank cannot have two open
		// rows, so the transfer is serialized through a buffered read
		// then write.  Functionally identical; latency identical to the
		// inter-bank case in this model.
		data, err := e.dev.ReadRow(src)
		if err != nil {
			return 0, fmt.Errorf("rowclone: PSM read: %w", err)
		}
		if err := e.dev.WriteRow(dst, data); err != nil {
			return 0, fmt.Errorf("rowclone: PSM write: %w", err)
		}
	} else {
		// Different banks: both rows open simultaneously; columns are
		// piped from the source amplifiers to the destination.
		if err := e.dev.Activate(src); err != nil {
			return 0, fmt.Errorf("rowclone: PSM source: %w", err)
		}
		if err := e.dev.Activate(dst); err != nil {
			return 0, fmt.Errorf("rowclone: PSM destination: %w", err)
		}
		words := e.dev.Geometry().WordsPerRow()
		for c := 0; c < words; c++ {
			v, err := e.dev.ReadColumn(src.Bank, c)
			if err != nil {
				return 0, err
			}
			if err := e.dev.WriteColumn(dst.Bank, c, v); err != nil {
				return 0, err
			}
		}
		if err := e.dev.Precharge(src.Bank); err != nil {
			return 0, err
		}
		if err := e.dev.Precharge(dst.Bank); err != nil {
			return 0, err
		}
	}
	lat := e.PSMLatencyNS()
	e.mu.Lock()
	e.stats.PSMCopies++
	e.stats.TotalNS += lat
	e.mu.Unlock()
	if e.tr.Enabled() {
		e.emitCopy(ModePSM, dst.Bank, dst.Subarray, src.String(), dst.String(), "pipelined internal-bus copy", lat)
	}
	return lat, nil
}

// Copy copies src to dst choosing the fastest applicable mode: FPM when the
// rows share a subarray, LISA (if enabled) for intra-bank inter-subarray
// copies, PSM otherwise.
func (e *Engine) Copy(src, dst dram.PhysAddr) (Mode, float64, error) {
	if src.Bank == dst.Bank && src.Subarray == dst.Subarray {
		lat, err := e.FPM(src.Bank, src.Subarray, src.Row, dst.Row)
		return ModeFPM, lat, err
	}
	if e.EnableLISA && src.Bank == dst.Bank {
		lat, err := e.LISA(src, dst)
		return ModeLISA, lat, err
	}
	lat, err := e.PSM(src, dst)
	return ModePSM, lat, err
}

// MCCopy models a conventional copy through the memory controller (the
// baseline RowClone compares against): functionally a read + write, with the
// row crossing the external channel twice.
func (e *Engine) MCCopy(src, dst dram.PhysAddr) (float64, error) {
	data, err := e.dev.ReadRow(src)
	if err != nil {
		return 0, err
	}
	if err := e.dev.WriteRow(dst, data); err != nil {
		return 0, err
	}
	lat := e.MCLatencyNS()
	e.mu.Lock()
	e.stats.MCCopies++
	e.stats.TotalNS += lat
	e.mu.Unlock()
	if e.tr.Enabled() {
		e.emitCopy(ModeMC, dst.Bank, dst.Subarray, src.String(), dst.String(), "controller-mediated channel copy", lat)
	}
	return lat, nil
}

// LISA support (Low-cost Interlinked Subarrays, Chang et al., HPCA 2016).
// The Ambit paper's footnote 3 leaves LISA integration as future work: LISA
// adds isolation transistors next to the sense amplifiers to move a row
// buffer between *adjacent subarrays of the same bank* far faster than PSM.
// We implement it as an optional engine mode so the speedup it would give
// Ambit's inter-subarray copies can be quantified (BenchmarkLISAAblation).

// LISAHopNS is the latency of moving a row buffer across one subarray
// boundary (the LISA paper's RBM operation is ~8 ns per hop).
const LISAHopNS = 8.0

// LISALatencyNS returns the latency of a LISA copy between two subarrays of
// one bank: source activation, one row-buffer-movement hop per subarray
// boundary crossed, destination write, and precharge.
func (e *Engine) LISALatencyNS(srcSub, dstSub int) float64 {
	t := e.dev.Timing()
	hops := srcSub - dstSub
	if hops < 0 {
		hops = -hops
	}
	return 2*t.TRAS + t.TRP + float64(hops)*LISAHopNS
}

// LISA copies a row between two different subarrays of the same bank using
// row-buffer movement.  It requires EnableLISA.
func (e *Engine) LISA(src, dst dram.PhysAddr) (float64, error) {
	if !e.EnableLISA {
		return 0, fmt.Errorf("rowclone: LISA not enabled on this engine")
	}
	if src.Bank != dst.Bank {
		return 0, fmt.Errorf("rowclone: LISA requires one bank (got %d and %d)", src.Bank, dst.Bank)
	}
	if src.Subarray == dst.Subarray {
		return 0, fmt.Errorf("rowclone: LISA within one subarray; use FPM")
	}
	// Functionally: read the source row, write the destination row (the
	// interlinked buffers carry the data between subarrays).
	data, err := e.dev.ReadRow(src)
	if err != nil {
		return 0, fmt.Errorf("rowclone: LISA read: %w", err)
	}
	if err := e.dev.WriteRow(dst, data); err != nil {
		return 0, fmt.Errorf("rowclone: LISA write: %w", err)
	}
	lat := e.LISALatencyNS(src.Subarray, dst.Subarray)
	e.mu.Lock()
	e.stats.LISACopies++
	e.stats.TotalNS += lat
	e.mu.Unlock()
	if e.tr.Enabled() {
		e.emitCopy(ModeLISA, dst.Bank, dst.Subarray, src.String(), dst.String(), "row-buffer-movement copy", lat)
	}
	return lat, nil
}
