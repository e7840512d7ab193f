// Package ambit is a library-level reproduction of "Ambit: In-Memory
// Accelerator for Bulk Bitwise Operations Using Commodity DRAM Technology"
// (Seshadri et al., MICRO-50, 2017).
//
// Ambit performs bulk bitwise operations — AND, OR, NOT, NAND, NOR, XOR,
// XNOR on multi-kilobyte bit vectors — completely inside DRAM, by
// (a) activating three rows simultaneously to compute a bitwise majority
// (Ambit-AND-OR, Section 3), and (b) using dual-contact cells connected to
// both sides of the sense amplifier to compute NOT (Ambit-NOT, Section 4).
//
// This package is the system-level API of the reproduction (the paper's
// Section 5.4 "bbop" instructions plus the driver of Section 5.4.2).  It
// owns:
//
//   - a simulated Ambit DRAM device (internal/dram) driven by an Ambit
//     controller (internal/controller),
//   - an allocator that interleaves bitvectors across subarrays so that
//     corresponding rows of different vectors share a subarray — the
//     placement contract that lets every copy use RowClone-FPM
//     (Section 5.4.2),
//   - per-operation latency and energy accounting (internal/energy),
//   - a batch execution engine (Batch) that records programs of bulk
//     operations, orders them by their operand conflicts, and dispatches
//     independent operations concurrently across banks.
//
// All operations are functionally exact (the simulated DRAM really computes
// through triple-row-activation majority and DCC negation), and the
// accounting reproduces the paper's performance and energy models.
//
// # Quick start
//
//	sys, _ := ambit.New()
//	a, _ := sys.Alloc(1 << 20) // 1 Mib bitvector
//	b, _ := sys.Alloc(1 << 20)
//	dst, _ := sys.Alloc(1 << 20)
//	... install data with a.Write(wa, ambit.Backdoor()) (cost-free) or
//	... a.Write(wa) (charged over the simulated channel)
//	sys.And(dst, a, b)         // executed inside simulated DRAM
//	words, _ := dst.Read(ambit.Backdoor())
//	fmt.Println(sys.Stats().ElapsedNS, "ns simulated")
//
// # Batch execution
//
// Issuing operations one at a time serializes them on the system's global
// clock even when they occupy different banks.  A Batch instead records a
// program of operations, orders each after the earlier ones it conflicts
// with on an operand vector, and schedules independent operations
// concurrently: per-bank timelines advance independently (Section 7's
// bank-level parallelism, as programs of primitives in the spirit of the
// follow-up "In-DRAM Bulk Bitwise Execution Engine", arXiv 1905.09822), and
// the host-side functional simulation runs each bank's rows as one
// recording-order stream, the banks in parallel.
//
//	batch := sys.NewBatch()
//	batch.Xor(t, a, b)   // recorded, not yet executed
//	batch.And(u, c, d)   // independent of the xor -> runs concurrently
//	batch.Or(out, t, u)  // depends on both -> runs after them
//	rep, _ := batch.Run()
//	fmt.Println(rep.MakespanNS, "ns makespan over", rep.Waves, "waves")
//
// # Concurrency
//
// A System is safe for concurrent use: every exported method of System,
// Bitvector, and Batch may be called from multiple goroutines.  Execution is
// sharded by bank (internal/exec): a direct bulk operation groups its rows by
// bank, locks those banks' shards, and runs the per-bank command trains on a
// bounded worker pool, so concurrent operations touching disjoint banks
// proceed in parallel while operations sharing a bank serialize on its shard.
// The parallel dispatch is deterministic — results, statistics, traces and
// fault draws are bit-identical to a sequential run.  Operations that need a
// consistent global view (a Copy whose rows cross banks, Batch.Run,
// Popcount, Stats, Free) briefly take the execution lock exclusively
// instead.  Direct access to the underlying Device, Controller,
// or RowClone engine (via their accessors) is NOT synchronized and should be
// confined to one goroutine.
package ambit

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"ambit/internal/compile"
	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/energy"
	"ambit/internal/exec"
	"ambit/internal/fault"
	"ambit/internal/isa"
	"ambit/internal/obs"
	"ambit/internal/rowclone"
	"ambit/internal/telemetry"
)

// Reliability is the controller's execute-verify-retry policy (re-exported
// so callers configure it without importing internal packages).
type Reliability = controller.Reliability

// FaultConfig is the seeded probabilistic TRA/DCC failure model
// (re-exported so callers configure it without importing internal packages).
type FaultConfig = fault.Config

// FaultProfile is a named chip-to-chip variation profile: a base fault
// configuration plus temperature scaling, data-pattern bias, an activation-
// width failure curve, and per-subarray weakness/quarantine entries
// (re-exported so callers configure it without importing internal packages).
// Load one with LoadFaultProfile or look a builtin up with FaultProfileByName.
type FaultProfile = fault.Profile

// FaultProfileByName returns a copy of the named builtin profile and whether
// the name is known; see FaultProfiles for the names.
func FaultProfileByName(name string) (*FaultProfile, bool) { return fault.ProfileByName(name) }

// FaultProfiles lists the builtin variation-profile names, sorted.
func FaultProfiles() []string { return fault.Profiles() }

// LoadFaultProfile parses and validates a variation profile from a JSON file.
func LoadFaultProfile(path string) (*FaultProfile, error) { return fault.LoadProfileFile(path) }

// DRAMConfig is the device geometry and timing configuration (re-exported so
// callers configure it without importing internal packages).
type DRAMConfig = dram.Config

// EnergyModel is the per-primitive energy model (re-exported so callers
// configure it without importing internal packages).
type EnergyModel = energy.Model

// Tracer is the observability event tracer (re-exported from internal/obs so
// callers configure tracing without importing internal packages).  A Tracer
// fans Event values out to its sinks; a nil Tracer is valid and disabled.
type Tracer = obs.Tracer

// TraceEvent is one observability event: an op-level span or one DRAM
// command (AAP, AP, RowClone copy, reliability verification, ...).
type TraceEvent = obs.Event

// TraceSink consumes trace events (re-exported from internal/obs).
type TraceSink = obs.Sink

// TraceEventKind classifies a TraceEvent.
type TraceEventKind = obs.EventKind

// Trace event kinds (re-exported from internal/obs).
const (
	// KindSpan is an op-level span: one public operation end to end.
	KindSpan = obs.KindSpan
	// KindCommand is one DRAM command-level event (AAP, AP, RowClone copy,
	// reliability verification, ...).
	KindCommand = obs.KindCommand
)

// MetricsRegistry accumulates per-opcode latency/energy histograms and named
// counters (re-exported from internal/obs).
type MetricsRegistry = obs.Registry

// HistogramSnapshot is a self-contained histogram copy (re-exported from
// internal/obs).
type HistogramSnapshot = obs.HistogramSnapshot

// Label is one key="value" pair of a labeled metric series (re-exported from
// internal/obs).  The registry's Labeled* methods accept any label keys;
// the serving layer uses ns="<namespace>" throughout.
type Label = obs.Label

// WallBucketsNS are the registry's request wall-clock histogram bounds
// (re-exported from internal/obs): real host durations from 1 µs to 10 s,
// unlike the simulated-time latency buckets.
var WallBucketsNS = obs.WallBucketsNS

// NewTracer creates a tracer fanning out to the given sinks; with at least
// one sink it starts enabled.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.NewTracer(sinks...) }

// NewLastNSink creates an in-memory ring buffer keeping the last n events.
func NewLastNSink(n int) *obs.LastN { return obs.NewLastN(n) }

// NewJSONLSink creates a sink writing Chrome trace-event-format JSON
// (loadable in chrome://tracing or Perfetto).  Call Tracer.Flush to close the
// JSON array when done.
func NewJSONLSink(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewMetrics creates an empty metrics registry.  One registry may be shared
// by several Systems; their observations merge.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// DefaultDRAMConfig returns the paper's standard device: an 8-bank
// DDR3-1600 module with 8 KB rows.
func DefaultDRAMConfig() DRAMConfig { return dram.DefaultConfig() }

// DefaultEnergyModel returns the Table 3 energy calibration.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// Config configures a System.
type Config struct {
	// DRAM is the device geometry and timing.  Defaults to the paper's
	// 8-bank DDR3-1600 module with 8 KB rows.
	DRAM dram.Config
	// Energy is the energy model (Table 3 calibration by default).
	Energy energy.Model
	// SplitDecoder enables the Section 5.3 AAP latency optimization
	// (default on; turn off for ablation).
	SplitDecoder bool
	// CoherenceNSPerRow is the time charged per involved row for cache
	// flush/invalidate before an Ambit operation (Section 5.4.4).  The
	// default of 0 models clean/uncached operands; the full-system model
	// supplies a realistic value.  See DESIGN.md ("Coherence model") for
	// which rows each primitive charges.
	CoherenceNSPerRow float64
	// Fault configures the seeded probabilistic TRA/DCC failure model
	// (internal/fault) injected into the device.  The zero value (the
	// default) disables injection entirely: the system is byte- and
	// stat-identical to an unfaulted one.
	Fault fault.Config
	// FaultProfile, when non-nil, selects a chip-to-chip variation profile
	// — a base fault configuration plus temperature scaling, data-pattern
	// bias, an activation-width (MAJ-X) failure curve, and per-subarray
	// weak/quarantine entries.  Mutually exclusive with Fault: a profile
	// wraps its own base configuration.  Subarrays the profile quarantines
	// are excluded from allocation placement entirely.
	FaultProfile *FaultProfile
	// MaxMajInputs, when positive, enables many-row majority (System.Maj):
	// it is the largest odd operand count Maj accepts (3..15).  Enabling it
	// reserves a per-subarray staging block of 16 rows (32 when
	// MaxMajInputs > 7) at the top of the D group, withheld from
	// allocation, into which operands are replicated before the
	// simultaneous many-row ACTIVATE.  0 disables Maj and reserves
	// nothing.
	MaxMajInputs int
	// Reliability configures TMR-replicated execution with per-row
	// verification, bounded retry, and corrected write-back (DESIGN.md
	// "Reliability model").  When enabled, two D-group rows per subarray
	// are reserved as replica scratch space and withheld from allocation.
	Reliability Reliability
	// QuarantineAfter, when positive, quarantines a data row after it
	// accumulates that many detected faulty verification rounds: once
	// freed, the row is never handed out again (graceful degradation).
	QuarantineAfter int
	// ExecWorkers caps the goroutine pool the execution core uses to fan
	// per-bank command trains out (both direct operations and batches).
	// 0 means GOMAXPROCS.  The worker count never affects results or
	// statistics, only host-side wall-clock.
	ExecWorkers int
	// Tracer, when non-nil and enabled, receives one span event per public
	// operation and one command event per DRAM primitive (AAP/AP, RowClone
	// copies, reliability verification rounds).  Nil or disabled tracing
	// costs one atomic load per primitive (see bench_test.go's overhead
	// gate) and leaves Stats byte-identical.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates per-opcode latency and energy
	// histograms plus reliability counters for every operation this System
	// executes.  A registry may be shared across Systems.
	Metrics *obs.Registry
	// TraceSampling, when > 1, keeps one in TraceSampling op-level span
	// events and drops the rest — back-pressure relief for sustained
	// workloads.  Command events are never sampled.  0 or 1 keeps every
	// span.  Applied to the configured Tracer at construction.
	TraceSampling int
	// BankUtil enables the per-bank utilization collector (bank busy-interval
	// timelines, saturation, and per-tenant busy attribution via
	// System.TagBusyNS) without a telemetry server.  Implied by
	// TelemetryAddr.
	BankUtil bool
	// TelemetryAddr, when non-empty, starts a live telemetry HTTP server on
	// the address ("localhost:8612", ":0" for an ephemeral port — see
	// System.TelemetryAddr) serving /metrics (Prometheus text), /healthz,
	// /trace (SSE event stream), /banks (per-bank busy-fraction timelines),
	// and /debug/pprof.  A Metrics registry and a Tracer stream sink are
	// wired in automatically when not configured.  Shut down with
	// System.Close.
	TelemetryAddr string
}

// DefaultConfig returns the paper's standard configuration.
func DefaultConfig() Config {
	return Config{
		DRAM:         dram.DefaultConfig(),
		Energy:       energy.DefaultModel(),
		SplitDecoder: true,
	}
}

// System is an Ambit-enabled memory system: the DRAM device, its controller,
// the RowClone engine, and the driver-level allocator.  All exported methods
// are safe for concurrent use; see the package comment for the exact
// guarantees.
type System struct {
	cfg  Config
	dev  *dram.Device
	ctrl *controller.Controller
	rc   *rowclone.Engine

	// eng is the shared execution core: per-bank shard locks plus the
	// bounded worker pool both direct ops and batches run on.
	eng *exec.Engine

	// execMu is the execution lock.  Direct operations hold it for
	// reading — many may run at once, coordinated by eng's bank shards and
	// statsMu — while everything needing a consistent global view (a Copy
	// with a cross-bank row pair, Batch.Run, Popcount, Stats snapshots,
	// Free, raw bitvector data access) holds it exclusively.  Lock order:
	// execMu > mu > bank shards > statsMu.
	execMu sync.RWMutex

	// mu guards the allocator state below (nextRow, freeRows).
	mu sync.Mutex

	// statsMu guards stats, faultScore, and quarantined against concurrent
	// parallel operations (exclusive execMu holders may skip it: no reader
	// or writer can run concurrently with them).
	statsMu sync.Mutex

	// Allocator state: nextRow[slot] is the next free D-group row in
	// each (bank, subarray) slot; vector row r is placed in slot
	// (base + r) mod slots — base is 0 for Alloc — giving corresponding
	// rows of all vectors allocated with the same base the same subarray
	// (Section 5.4.2's placement contract).  freeRows[slot] holds rows
	// returned by Free, reused before fresh rows so the co-location
	// invariant (row r of equal-sized, equal-base vectors shares a slot)
	// still holds: freed rows re-enter the same slot they came from.
	nextRow  []int
	freeRows [][]int

	// slotRing is the allocator's placement ring: the slot indices that
	// accept allocations, in ascending order.  Without a variation profile
	// it is the identity [0..slots); with one, subarrays the profile
	// quarantines are excluded, so placement simply never reaches weak
	// silicon.  Immutable after construction.
	slotRing []int

	// Many-row majority state (Config.MaxMajInputs > 0): majW is the
	// staging-block width (16 or 32 wordlines) and majScratchBase the
	// first staging row, directly below the ECC scratch rows at the top
	// of every subarray's D group.  majW == 0 means Maj is disabled.
	majW           int
	majScratchBase int

	// Reliability state: fm is the installed fault model (nil without
	// one); faultScore accumulates detected faulty verification rounds
	// per data row, and quarantined rows are withheld from reallocation
	// by Free.  Guarded by statsMu (see execMu).
	fm          *fault.Model
	faultScore  map[dram.PhysAddr]int
	quarantined map[dram.PhysAddr]bool

	// Telemetry state, set at construction when Config.TelemetryAddr is
	// non-empty and immutable afterwards: util collects per-bank busy
	// intervals (nil keeps the hot paths free of collection), telemetry is
	// the live HTTP server (closed by Close).
	util      *exec.Util
	telemetry *telemetry.Server

	// funcCache interns compiled command trains by canonical expression
	// key, so structurally identical Compile calls share one train (and
	// one scheduling/allocation pass).  Guarded by funcMu; entries are
	// immutable once stored.
	funcMu    sync.Mutex
	funcCache map[string]*compile.Compiled

	// ioScratch is the one-row staging buffer of the host I/O paths
	// (Bitvector Write/WriteAt/ReadInto), allocated lazily and reused —
	// all of those hold execMu exclusively, so one buffer suffices.
	ioScratch []uint64

	// frontier is Batch.schedule's dependency frontier, allocated lazily,
	// reused across batches and cleared after each so it keeps no freed
	// vector alive.  Batch.Run holds execMu exclusively.
	frontier map[*Bitvector]vecFrontier

	stats Stats
}

// rowScratch returns the lazily allocated one-row staging buffer; the caller
// holds execMu exclusively.
func (s *System) rowScratch() []uint64 {
	if s.ioScratch == nil {
		s.ioScratch = make([]uint64, s.dev.Geometry().WordsPerRow())
	}
	return s.ioScratch
}

// New creates a System with the default configuration, adjusted by the given
// functional options (see Option).  New() with no options is the paper's
// standard 8-bank DDR3-1600 module.
func New(opts ...Option) (*System, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return NewSystem(cfg)
}

// NewSystem creates a System from cfg — the compatibility construction route
// (New with functional options builds the same Config).
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.DRAM.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Energy.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	if cfg.FaultProfile != nil {
		if err := cfg.FaultProfile.Validate(); err != nil {
			return nil, err
		}
		if cfg.Fault.Enabled() {
			return nil, fmt.Errorf("ambit: Fault and FaultProfile are mutually exclusive; profile %q carries its own base fault configuration", cfg.FaultProfile.Name)
		}
	}
	if cfg.MaxMajInputs != 0 {
		if cfg.MaxMajInputs < 3 || cfg.MaxMajInputs%2 == 0 || cfg.MaxMajInputs > isa.MaxMajInputs {
			return nil, fmt.Errorf("ambit: MaxMajInputs must be 0 or odd in [3,%d], got %d", isa.MaxMajInputs, cfg.MaxMajInputs)
		}
	}
	if err := cfg.Reliability.Validate(); err != nil {
		return nil, err
	}
	if cfg.QuarantineAfter < 0 {
		return nil, fmt.Errorf("ambit: QuarantineAfter must be non-negative, got %d", cfg.QuarantineAfter)
	}
	if cfg.ExecWorkers < 0 {
		return nil, fmt.Errorf("ambit: ExecWorkers must be non-negative, got %d", cfg.ExecWorkers)
	}
	if cfg.TraceSampling < 0 {
		return nil, fmt.Errorf("ambit: TraceSampling must be non-negative, got %d", cfg.TraceSampling)
	}
	g := cfg.DRAM.Geometry

	// Telemetry wiring must precede construction: the server scrapes the
	// metrics registry and streams the tracer's events, so both must exist
	// (and the stream sink be attached) before the controller captures the
	// tracer.  The stream is bounded; a System without telemetry pays none
	// of this.
	var stream *obs.Stream
	if cfg.TelemetryAddr != "" {
		stream = obs.NewStream(telemetryRingEvents)
		if cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}
		if cfg.Tracer == nil {
			cfg.Tracer = obs.NewTracer(stream)
		} else {
			cfg.Tracer.AddSink(stream)
		}
	}
	if cfg.TraceSampling > 1 && cfg.Tracer != nil {
		cfg.Tracer.SetSpanSampling(cfg.TraceSampling)
	}
	if cfg.Reliability.ECC && g.DataRows() <= eccScratchRows {
		return nil, fmt.Errorf("ambit: geometry has %d data rows per subarray; reliability needs more than the %d ECC scratch rows",
			g.DataRows(), eccScratchRows)
	}
	// The MAJ-X staging block: wide enough for two replicas of every
	// operand (controller.PlanMaj), 16 wordlines up to 7 inputs, the full
	// 32 beyond.  It sits directly below the ECC scratch rows, so both
	// reservations must leave allocable rows behind.
	majW := 0
	if cfg.MaxMajInputs > 0 {
		majW = 16
		if cfg.MaxMajInputs > 7 {
			majW = 32
		}
		reserved := majW
		if cfg.Reliability.ECC {
			reserved += eccScratchRows
		}
		if g.DataRows() <= reserved {
			return nil, fmt.Errorf("ambit: geometry has %d data rows per subarray; MaxMajInputs=%d needs more than the %d reserved staging/scratch rows",
				g.DataRows(), cfg.MaxMajInputs, reserved)
		}
	}
	dev, err := dram.NewDevice(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	var fm *fault.Model
	if cfg.Fault.Enabled() {
		if fm, err = fault.New(cfg.Fault); err != nil {
			return nil, err
		}
	} else if p := cfg.FaultProfile; p != nil && p.Base.Enabled() {
		// A profile whose base rates are all zero (e.g. profile:clean)
		// installs no injector at all: the fast paths stay fused and the
		// run is byte-identical to an unfaulted one.  Quarantine entries
		// still shape the allocator's placement ring below.
		if fm, err = fault.NewFromProfile(p); err != nil {
			return nil, err
		}
	}
	if fm != nil {
		// Eagerly build every per-(bank, subarray) stream so parallel
		// workers reach them lock-free (fault.Model.Prepare).
		fm.Prepare(g.Banks, g.SubarraysPerBank)
		dev.SetFaultInjector(fm)
	}
	ctrl := controller.New(dev)
	ctrl.SplitDecoder = cfg.SplitDecoder
	rc := rowclone.New(dev)
	if cfg.Tracer != nil {
		ctrl.SetTracer(cfg.Tracer, stepEnergyFunc(cfg.Energy, g))
		rc.SetTracer(cfg.Tracer)
	}
	sys := &System{
		cfg:         cfg,
		dev:         dev,
		ctrl:        ctrl,
		rc:          rc,
		eng:         exec.New(g.Banks, cfg.ExecWorkers),
		nextRow:     make([]int, g.Banks*g.SubarraysPerBank),
		freeRows:    make([][]int, g.Banks*g.SubarraysPerBank),
		fm:          fm,
		faultScore:  make(map[dram.PhysAddr]int),
		quarantined: make(map[dram.PhysAddr]bool),
		funcCache:   make(map[string]*compile.Compiled),
		majW:        majW,
	}
	// Placement ring: every slot, minus the subarrays the profile marks
	// quarantined — weak silicon is never placed on at all.
	for slot := 0; slot < g.Banks*g.SubarraysPerBank; slot++ {
		if p := cfg.FaultProfile; p != nil && p.Quarantined(slot%g.Banks, slot/g.Banks) {
			continue
		}
		sys.slotRing = append(sys.slotRing, slot)
	}
	if len(sys.slotRing) == 0 {
		return nil, fmt.Errorf("ambit: profile %q quarantines every (bank, subarray) slot", cfg.FaultProfile.Name)
	}
	sys.majScratchBase = sys.dataRows()
	if cfg.TelemetryAddr != "" || cfg.BankUtil {
		sys.util = exec.NewUtil(g.Banks, exec.DefaultUtilBinNS)
	}
	if cfg.TelemetryAddr != "" {
		srv, err := telemetry.Serve(cfg.TelemetryAddr, telemetry.Sources{
			Metrics: cfg.Metrics,
			Stream:  stream,
			Util:    sys.util,
		})
		if err != nil {
			return nil, fmt.Errorf("ambit: telemetry: %w", err)
		}
		sys.telemetry = srv
	}
	return sys, nil
}

// eccScratchRows is the number of D-group rows per subarray reserved as TMR
// replica scratch space when the reliability policy is enabled.
const eccScratchRows = 2

// telemetryRingEvents bounds the telemetry stream's retained event history
// (the /trace endpoint's replay window).
const telemetryRingEvents = 4096

// stepEnergyFunc builds the controller's per-primitive energy pricer from the
// energy model (the controller cannot import internal/energy, which imports
// it for the Op type): each ACTIVATE is weighted by the number of wordlines
// the address raises (the paper's 22%-per-extra-wordline rule), plus one
// PRECHARGE.
func stepEnergyFunc(m energy.Model, g dram.Geometry) controller.StepEnergyFunc {
	wordlines := func(a dram.RowAddr) int {
		// Alloc-free equivalent of len(dram.DecodeRowAddr(a, g)): only
		// B-group addresses raise more than one wordline, and the pricer
		// runs once per traced primitive.
		if a.Group == dram.GroupB && (a.Index < 0 || a.Index >= dram.BGroupAddresses) {
			return 1
		}
		return dram.WordlineCount(a)
	}
	return func(kind controller.StepKind, a1, a2 dram.RowAddr) float64 {
		if kind == controller.StepMaj {
			// The many-row train: one ACTIVATE raising a1.Index
			// wordlines (the StepMaj convention), one single-row
			// ACTIVATE of the destination, one PRECHARGE.
			return m.ActivateEnergyNJ(a1.Index) + m.ActivateEnergyNJ(1) + m.PrechargeNJ
		}
		e := m.ActivateEnergyNJ(wordlines(a1)) + m.PrechargeNJ
		if kind == controller.StepAAP {
			e += m.ActivateEnergyNJ(wordlines(a2))
		}
		return e
	}
}

// observing reports whether any observability consumer is configured; the
// guard every operation checks before paying for span bookkeeping.
func (s *System) observing() bool {
	return s.cfg.Tracer.Enabled() || s.cfg.Metrics != nil
}

// observeOp records one completed operation into the metrics registry and
// the tracer: a latency/energy histogram observation and one span event.
// devBefore is the device-stats snapshot taken before the operation, so the
// span's energy is the operation's own device energy.  bank is -1 for
// operations spanning banks.  Safe from both the exclusive and the parallel
// paths: the registry is atomic, the tracer locks internally, and the device
// snapshot has its own lock.  (Under concurrent clients the energy
// attribution between overlapping spans blends — totals are conserved; a
// single-client program observes exactly what a serial run would.)
func (s *System) observeOp(tag Tag, name string, bank, rows int, startNS, durNS float64, devBefore dram.Stats) {
	nj := s.cfg.Energy.DeviceEnergyNJ(s.dev.Stats().Sub(devBefore))
	if m := s.cfg.Metrics; m != nil {
		m.ObserveLatencyNS(name, durNS)
		m.ObserveEnergyNJ(name, nj)
	}
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Event{
			Kind: obs.KindSpan, Name: name, Bank: bank, Subarray: -1,
			StartNS: startNS, DurNS: durNS, EnergyPJ: nj * 1000, Rows: rows,
			NS: tag.NS, Req: tag.Req,
		})
	}
}

// utilRecord folds one reserved command-train interval into the bank
// utilization collector, attributing the busy time to the tag's namespace
// when one is set.  A System without telemetry has no collector and pays
// only this nil check.  endNS is the train's completion time on the bank's
// timeline and durNS its latency, so the busy interval is
// [endNS-durNS, endNS).
func (s *System) utilRecord(tag Tag, bank int, endNS, durNS float64) {
	if s.util != nil {
		s.util.RecordTagged(tag.NS, bank, endNS-durNS, endNS)
	}
}

// Close shuts down the live telemetry server, if Config.TelemetryAddr
// started one; otherwise it is a no-op.  Idempotent.  The System remains
// usable for simulation after Close — only the HTTP endpoints go away.
func (s *System) Close() error {
	if s.telemetry == nil {
		return nil
	}
	return s.telemetry.Close()
}

// TelemetryAddr returns the telemetry server's listen address ("" when
// telemetry is off).  With Config.TelemetryAddr ":0" this is where the
// ephemeral port landed.
func (s *System) TelemetryAddr() string {
	if s.telemetry == nil {
		return ""
	}
	return s.telemetry.Addr()
}

// RegisterHTTP mounts an additional handler on the live telemetry server
// under the given path prefix and lists it on the server's index page —
// how the serving layer (internal/service) exposes its namespace API on the
// same port as /metrics.  It fails when the System was built without
// Config.TelemetryAddr.
func (s *System) RegisterHTTP(path, desc string, h http.Handler) error {
	if s.telemetry == nil {
		return fmt.Errorf("ambit: RegisterHTTP(%s): no telemetry server (set Config.TelemetryAddr)", path)
	}
	return s.telemetry.Register(path, desc, h)
}

// BankSaturation returns the mean busy fraction of all banks over the
// trailing windowNS of recorded simulated time — the admission-control
// signal behind the telemetry server's /banks timelines.  The second result
// is false when the System has no utilization collector (neither
// Config.TelemetryAddr nor Config.BankUtil).  A fraction near 1 means the
// device's banks are back to back
// with command trains: new work will only queue.
func (s *System) BankSaturation(windowNS float64) (float64, bool) {
	if s.util == nil {
		return 0, false
	}
	return s.util.TailBusyFraction(windowNS), true
}

// dataRows returns the D-group rows available to the allocator: the
// geometry's data rows, minus the per-subarray ECC scratch rows when the
// reliability policy is enabled, minus the MAJ-X staging block when many-row
// majority is enabled.  Equivalently, the base of the reserved region: the
// staging block occupies [dataRows, dataRows+majW), the ECC scratch rows the
// top two rows above that.
func (s *System) dataRows() int {
	n := s.dev.Geometry().DataRows()
	if s.cfg.Reliability.ECC {
		n -= eccScratchRows
	}
	return n - s.majW
}

// scratchRows returns the two reserved replica scratch rows (the top of each
// subarray's D group).  Valid only when the reliability policy is enabled.
func (s *System) scratchRows() (dram.RowAddr, dram.RowAddr) {
	n := s.dev.Geometry().DataRows()
	return dram.D(n - 1), dram.D(n - 2)
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Device exposes the underlying DRAM device (for inspection and tools).
// Direct device access is not synchronized with concurrent System calls.
func (s *System) Device() *dram.Device { return s.dev }

// Controller exposes the Ambit controller.  Direct controller access is not
// synchronized with concurrent System calls.
func (s *System) Controller() *controller.Controller { return s.ctrl }

// RowClone exposes the RowClone engine.  Direct engine access is not
// synchronized with concurrent System calls.
func (s *System) RowClone() *rowclone.Engine { return s.rc }

// Tracer returns the configured tracer (nil without one).  Flush it after the
// workload to finalize streaming sinks (the JSONL sink's closing bracket).
func (s *System) Tracer() *Tracer { return s.cfg.Tracer }

// Metrics returns the configured metrics registry (nil without one).
func (s *System) Metrics() *MetricsRegistry { return s.cfg.Metrics }

// slots returns the number of (bank, subarray) placement slots.
func (s *System) slots() int {
	g := s.dev.Geometry()
	return g.Banks * g.SubarraysPerBank
}

// slotAddr converts a slot index and row number into a physical address.
func (s *System) slotAddr(slot, row int) dram.PhysAddr {
	g := s.dev.Geometry()
	return dram.PhysAddr{
		Bank:     slot % g.Banks,
		Subarray: slot / g.Banks,
		Row:      dram.D(row),
	}
}

// RowSizeBits returns the number of bits one DRAM row holds; Ambit operation
// sizes must be a multiple of this (Section 5.4.1: "size must be a multiple
// of DRAM row size").
func (s *System) RowSizeBits() int { return s.dev.Geometry().RowSizeBytes * 8 }

// Quota is a row-count budget carved out of the System's allocator — the
// per-tenant admission unit of the serving layer.  AllocQuota charges a
// vector's rows against a quota at allocation time and rejects the
// allocation with ErrQuotaExceeded when the budget would overflow; Free
// credits the rows back.  A Quota is safe for concurrent use and may meter
// vectors on any number of goroutines.
type Quota struct {
	mu    sync.Mutex
	limit int
	used  int
}

// NewQuota creates a budget of maxRows DRAM rows (non-positive means an
// unlimited quota that only tracks usage).
func NewQuota(maxRows int) *Quota { return &Quota{limit: maxRows} }

// Limit returns the row budget (0 = unlimited).
func (q *Quota) Limit() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.limit
}

// Used returns the rows currently charged against the quota.
func (q *Quota) Used() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used
}

// reserve charges n rows, failing without side effects on overflow.
func (q *Quota) reserve(n int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.limit > 0 && q.used+n > q.limit {
		return fmt.Errorf("ambit: %d rows over budget (%d used of %d): %w", n, q.used, q.limit, ErrQuotaExceeded)
	}
	q.used += n
	return nil
}

// release credits n rows back.
func (q *Quota) release(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.used -= n; q.used < 0 {
		q.used = 0
	}
}

// Alloc allocates a bitvector of at least `bits` bits, rounded up to whole
// DRAM rows.  Row r of the vector is placed in the r-th (mod ring length)
// slot of the placement ring — all slots, minus any subarrays the active
// variation profile quarantines — so the corresponding rows of all vectors
// allocated by this System share a subarray and every bitwise operation runs
// entirely on RowClone-FPM-reachable rows.
func (s *System) Alloc(bits int64) (*Bitvector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocLocked(bits, 0, nil)
}

// AllocQuota allocates like AllocAt but meters the vector's rows against the
// given quota: the rows are reserved from q before any device row is
// committed (ErrQuotaExceeded when the budget would overflow, with nothing
// allocated), and Free credits them back.  A nil quota makes AllocQuota
// identical to AllocAt.  Vectors of one tenant that cooperate in bulk
// operations must share a base slot, exactly as with AllocAt.
func (s *System) AllocQuota(bits int64, baseSlot int, q *Quota) (*Bitvector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if baseSlot < 0 || baseSlot >= s.slots() {
		return nil, fmt.Errorf("ambit: AllocQuota: base slot %d out of range [0,%d)", baseSlot, s.slots())
	}
	return s.allocLocked(bits, baseSlot, q)
}

// AllocAt allocates like Alloc but starts placement at the given
// (bank, subarray) slot: row r of the vector is placed in slot
// (baseSlot + r) mod slots.  Vectors that cooperate in bulk bitwise
// operations must share a base slot (they are then co-located row for row);
// vectors with *different* bases occupy disjoint banks when they are small,
// which is how a Batch spreads independent operations across the device.
// The number of slots is Config().DRAM.Geometry.Banks * SubarraysPerBank.
func (s *System) AllocAt(bits int64, baseSlot int) (*Bitvector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if baseSlot < 0 || baseSlot >= s.slots() {
		return nil, fmt.Errorf("ambit: AllocAt: base slot %d out of range [0,%d)", baseSlot, s.slots())
	}
	return s.allocLocked(bits, baseSlot, nil)
}

// allocLocked implements Alloc/AllocAt/AllocQuota; the caller holds s.mu.
// The quota reservation happens before any row is committed, so a failed
// reservation leaves the allocator untouched; a failed row grab rolls the
// whole allocation (and the reservation) back.
func (s *System) allocLocked(bits int64, baseSlot int, q *Quota) (*Bitvector, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("ambit: Alloc(%d): size must be positive", bits)
	}
	rowBits := int64(s.RowSizeBits())
	nRows := int((bits + rowBits - 1) / rowBits)
	if q != nil {
		if err := q.reserve(nRows); err != nil {
			return nil, err
		}
	}
	rows := make([]dram.PhysAddr, nRows)
	for r := 0; r < nRows; r++ {
		// Placement walks the ring of non-quarantined slots, so a
		// variation profile's weak subarrays are never reached; without
		// a profile the ring is the identity and this is the historical
		// (baseSlot + r) mod slots placement.
		slot := s.slotRing[(baseSlot+r)%len(s.slotRing)]
		var row int
		if free := s.freeRows[slot]; len(free) > 0 {
			row = free[len(free)-1]
			s.freeRows[slot] = free[:len(free)-1]
		} else {
			row = s.nextRow[slot]
			if row >= s.dataRows() {
				// Roll back the rows committed so far and the reservation.
				for _, a := range rows[:r] {
					sl := a.Subarray*s.dev.Geometry().Banks + a.Bank
					s.freeRows[sl] = append(s.freeRows[sl], a.Row.Index)
				}
				if q != nil {
					q.release(nRows)
				}
				return nil, fmt.Errorf("ambit: slot %d exhausted after %d rows: %w", slot, row, ErrCapacity)
			}
			s.nextRow[slot]++
		}
		rows[r] = s.slotAddr(slot, row)
	}
	return &Bitvector{sys: s, bits: bits, rows: rows, quota: q}, nil
}

// Free returns a bitvector's rows to the allocator for reuse.  The vector
// must not be used afterwards (operations on a freed vector are rejected);
// its contents are not scrubbed (call Fill first if the data is sensitive).
// Rows quarantined by graceful degradation are retired instead of recycled:
// they never re-enter the free list.
func (s *System) Free(v *Bitvector) error {
	if v == nil {
		return fmt.Errorf("ambit: Free: %w", ErrNilOperand)
	}
	if v.sys != s {
		return fmt.Errorf("ambit: Free: %w", ErrForeignSystem)
	}
	// Freeing mutates v.rows, which parallel operations read under the
	// execution read-lock, so Free needs the exclusive lock; the allocator
	// lists themselves are guarded by mu.
	s.execMu.Lock()
	defer s.execMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.rows == nil {
		return fmt.Errorf("ambit: Free: double free: %w", ErrFreed)
	}
	g := s.dev.Geometry()
	for _, addr := range v.rows {
		if s.quarantined[addr] {
			continue
		}
		slot := addr.Subarray*g.Banks + addr.Bank
		s.freeRows[slot] = append(s.freeRows[slot], addr.Row.Index)
	}
	// Credit the full row count back to the vector's quota — quarantined
	// rows too: the tenant does not pay for retired hardware.
	if v.quota != nil {
		v.quota.release(len(v.rows))
		v.quota = nil
	}
	v.rows = nil
	v.bits = 0
	v.views = nil // the rows may be reallocated; stale views must not alias them
	return nil
}

// Quarantined returns the physical addresses of every data row quarantined by
// graceful degradation (rows whose accumulated detected-fault score reached
// Config.QuarantineAfter).  Quarantine is permanent for the System's
// lifetime: quarantined rows are retired on Free and never reallocated, and
// there is no scrub path that returns them to service.
func (s *System) Quarantined() []dram.PhysAddr {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	out := make([]dram.PhysAddr, 0, len(s.quarantined))
	for addr := range s.quarantined {
		out = append(out, addr)
	}
	return out
}

// MustAlloc is Alloc that panics on failure; for examples and tests.
func (s *System) MustAlloc(bits int64) *Bitvector {
	v, err := s.Alloc(bits)
	if err != nil {
		panic(err)
	}
	return v
}

// FreeRows reports how many D-group rows remain unallocated (including rows
// recycled by Free; excluding reliability scratch rows, MAJ-X staging rows,
// quarantined rows, and rows in profile-quarantined subarrays, none of which
// are ever handed out).
func (s *System) FreeRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, slot := range s.slotRing {
		total += s.dataRows() - s.nextRow[slot] + len(s.freeRows[slot])
	}
	return total
}
