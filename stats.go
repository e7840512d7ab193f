package ambit

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"ambit/internal/controller"
	"ambit/internal/fault"
	"ambit/internal/obs"
)

// channelIOEnergyPerKB is the I/O and termination energy of moving one KB
// over the DDR channel, charged on top of the in-device command energy for
// Read/Write/Popcount traffic.  (The energy.Model Read/WritePerKB figures
// are end-to-end and would double-count the device commands the simulator
// already executed.)
const channelIOEnergyPerKB = 40.0

// Stats accumulates the simulated cost of everything a System has executed.
// Snapshots returned by System.Stats and System.TagStats are self-contained
// values; the BankBusyNS slice is freshly allocated per snapshot.
type Stats struct {
	// ElapsedNS is the simulated wall-clock time: bulk operations advance
	// it by their cross-bank makespan, channel transfers by their
	// bandwidth-bound streaming time.
	ElapsedNS float64
	// CoherenceNS is the portion of ElapsedNS spent flushing caches
	// before Ambit operations (Section 5.4.4).
	CoherenceNS float64
	// ChannelBytes counts bytes moved over the external channel
	// (Read/Write/Popcount); Ambit bulk operations move none.
	ChannelBytes int64
	// BulkOps counts completed bulk bitwise operations by opcode.
	BulkOps [7]int64
	// RowOps counts row-level command trains executed.
	RowOps int64
	// FuncOps counts completed compiled-function executions (Func.Run,
	// Func.RunMulti, and Batch.Call), each covering all its rows.
	FuncOps int64
	// MajOps counts completed many-row majority operations (System.Maj),
	// each covering all its rows.
	MajOps int64
	// Copies counts RowClone row copies and initializations.
	Copies int64
	// BankBusyNS[i] is the total simulated time bank i spent occupied by
	// command trains; ElapsedNS - BankBusyNS[i] is bank i's idle time.
	// The per-bank breakdown makes batch overlap observable: a serial
	// workload leaves every bank idle while any other bank works, while a
	// well-packed batch drives the mean utilization toward 1.  Under the
	// reliability policy each row's busy time includes the full TMR cost —
	// every replica train of every attempt, the verification reads, and any
	// restore/correction write-backs — so retries inflate BankBusyNS along
	// with ElapsedNS (the retried trains really occupy the bank).
	BankBusyNS []float64

	// Reliability counters (all zero unless a fault model or the
	// reliability policy is configured; see DESIGN.md "Reliability model").

	// InjectedFaults counts fault-injection events: TRA activations and
	// DCC negations in which the fault model flipped at least one bit.
	InjectedFaults int64
	// InjectedFaultBits counts the total bits flipped by the fault model.
	InjectedFaultBits int64
	// CorrectedBits counts replica bits corrected by the TMR majority
	// vote during verified execution.
	CorrectedBits int64
	// Retries counts full command-train re-executions after a
	// verification round found more disagreeing bits than the policy
	// threshold (detected-uncorrectable).
	Retries int64
	// DetectedRows counts verification rounds whose replicas disagreed at
	// all: the failure evidence the quarantine policy accumulates.  Not
	// part of String.
	DetectedRows int64
	// UncorrectableRows counts rows that exhausted the retry budget and
	// surfaced ErrUncorrectable to the caller.
	UncorrectableRows int64
	// QuarantinedRows is the number of data rows currently quarantined by
	// graceful degradation (snapshot of live state, not a running total;
	// unaffected by ResetStats).
	QuarantinedRows int64
	// FaultProfile is the name of the active chip-to-chip variation
	// profile (Config.FaultProfile), empty without one.  Constant over the
	// System's lifetime; carried in the snapshot so sweep reports can
	// label results.
	FaultProfile string
}

// TotalBulkOps sums BulkOps.
func (st Stats) TotalBulkOps() int64 {
	var n int64
	for _, c := range st.BulkOps {
		n += c
	}
	return n
}

// MeanBankUtilization returns the average busy fraction across banks —
// mean(BankBusyNS) / ElapsedNS — or 0 before any time has elapsed.
func (st Stats) MeanBankUtilization() float64 {
	if st.ElapsedNS <= 0 || len(st.BankBusyNS) == 0 {
		return 0
	}
	var busy float64
	for _, b := range st.BankBusyNS {
		busy += b
	}
	return busy / (st.ElapsedNS * float64(len(st.BankBusyNS)))
}

// String renders a compact summary.
func (st Stats) String() string {
	var ops []string
	for i, n := range st.BulkOps {
		if n > 0 {
			ops = append(ops, fmt.Sprintf("%v:%d", controller.Op(i), n))
		}
	}
	s := fmt.Sprintf("elapsed %.0f ns, %d row-ops [%s], %d copies, %d channel bytes",
		st.ElapsedNS, st.RowOps, strings.Join(ops, " "), st.Copies, st.ChannelBytes)
	if st.FuncOps > 0 {
		s += fmt.Sprintf(", %d func-ops", st.FuncOps)
	}
	if st.MajOps > 0 {
		s += fmt.Sprintf(", %d maj-ops", st.MajOps)
	}
	if st.FaultProfile != "" {
		s += fmt.Sprintf(", profile %s", st.FaultProfile)
	}
	if len(st.BankBusyNS) > 0 && st.ElapsedNS > 0 {
		s += fmt.Sprintf(", %.0f%% mean bank utilization", st.MeanBankUtilization()*100)
	}
	if st.InjectedFaults > 0 || st.CorrectedBits > 0 || st.Retries > 0 ||
		st.UncorrectableRows > 0 || st.QuarantinedRows > 0 {
		s += fmt.Sprintf(", reliability: %d faults (%d bits) injected, %d bits corrected, %d retries, %d uncorrectable rows, %d quarantined rows",
			st.InjectedFaults, st.InjectedFaultBits, st.CorrectedBits, st.Retries, st.UncorrectableRows, st.QuarantinedRows)
	}
	return s
}

// ledger is the one place the simulator counts what it executed: the
// System's Stats plus one Stats per tenant (Tag.NS; TagStats lists its
// fields), at most obs.MaxSeriesPerFamily of them, later tenants sharing
// overflow.  Each commit helper writes the System's Stats and, for a tagged
// operation, its tenant's.  A metrics registry renders the reliability
// counters from here when scraped, so the ledger is its own allocation with
// no pointer back to the System: a registry may outlive its Systems.
type ledger struct {
	// statsMu guards the ledger, and the System's faultScore and
	// quarantined, against parallel operations and scrapes.  Exclusive
	// execMu holders may skip it only for fields render does not read.
	statsMu  sync.Mutex
	stats    Stats
	tenants  map[string]*Stats
	overflow *Stats
	banks    int
}

// tenantLocked returns the ledger of tenant ns, creating it on first use.
// The caller holds statsMu.
func (l *ledger) tenantLocked(ns string) *Stats {
	if t := l.tenants[ns]; t != nil {
		return t
	}
	if len(l.tenants) >= obs.MaxSeriesPerFamily {
		if l.overflow == nil {
			l.overflow = &Stats{BankBusyNS: make([]float64, l.banks)}
		}
		return l.overflow
	}
	if l.tenants == nil {
		l.tenants = make(map[string]*Stats)
	}
	t := &Stats{BankBusyNS: make([]float64, l.banks)}
	l.tenants[ns] = t
	return t
}

// render is the ledger's obs.CounterSource: the reliability counters of the
// System's ledger unlabeled, each tenant's under ns="<name>", the overflow
// ledger's under overflow="true".  The System's own InjectedFaults and
// InjectedFaultBits stay zero here (Stats reads them from the fault model),
// so those two families render per tenant only.  It copies the ledgers
// under statsMu and emits after releasing it.
func (l *ledger) render(emit func(family string, v int64, labels ...obs.Label)) {
	type labeled struct {
		labels []obs.Label
		st     Stats
	}
	l.statsMu.Lock()
	// Of the System's own ledger, only the reliability counters are always
	// written under statsMu; a tenant ledger is written under it whole.
	ledgers := []labeled{{nil, Stats{Retries: l.stats.Retries, CorrectedBits: l.stats.CorrectedBits,
		DetectedRows: l.stats.DetectedRows, UncorrectableRows: l.stats.UncorrectableRows}}}
	for ns, t := range l.tenants {
		ledgers = append(ledgers, labeled{[]obs.Label{{Key: "ns", Value: ns}}, *t})
	}
	if l.overflow != nil {
		ledgers = append(ledgers, labeled{[]obs.Label{{Key: "overflow", Value: "true"}}, *l.overflow})
	}
	l.statsMu.Unlock()
	for _, c := range ledgers {
		emit("retries", c.st.Retries, c.labels...)
		emit("corrected_bits", c.st.CorrectedBits, c.labels...)
		emit("detected_rows", c.st.DetectedRows, c.labels...)
		emit("uncorrectable_rows", c.st.UncorrectableRows, c.labels...)
		emit("injected_faults", c.st.InjectedFaults, c.labels...)
		emit("injected_fault_bits", c.st.InjectedFaultBits, c.labels...)
	}
}

// injected returns the fault model's event and flipped-bit counts.
func injected(fc fault.Counters) (events, bits int64) {
	return fc.TRAEvents + fc.MajEvents + fc.DCCEvents, fc.FlippedBits
}

// Stats returns a snapshot of the accumulated counters, including the
// per-bank busy breakdown.  Fault-injection counters are read live from the
// fault model; QuarantinedRows reflects the current quarantine set.
func (s *System) Stats() Stats {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	st := s.stats
	st.BankBusyNS = s.dev.BankBusyNS()
	if s.fm != nil {
		st.InjectedFaults, st.InjectedFaultBits = injected(s.fm.Counters())
	}
	if p := s.cfg.FaultProfile; p != nil {
		st.FaultProfile = p.Name
	}
	st.QuarantinedRows = int64(len(s.quarantined))
	return st
}

// TagStats returns the ledger of tenant ns: what the direct operations run
// under a Tag with that NS executed since New or the last ResetStats.  A
// tenant ledger carries the operation counters (BulkOps, RowOps, FuncOps,
// MajOps, Copies), the reliability counters (CorrectedBits, Retries,
// DetectedRows, UncorrectableRows), the fault model's injections during the
// tenant's operations (InjectedFaults, InjectedFaultBits) and its per-bank
// busy time (BankBusyNS).  ElapsedNS, CoherenceNS, ChannelBytes,
// QuarantinedRows and FaultProfile are System-wide and stay zero in it.
//
// ok is false when no such operation has run, or when ns arrived after
// MaxSeriesPerFamily (internal/obs) other tenants and shares the overflow
// ledger, which the metrics view renders as {overflow="true"}.  The ledgers
// of tenants whose operations ran one at a time partition Stats' counters
// exactly; under concurrent clients InjectedFaults and InjectedFaultBits
// blend between overlapping operations (their totals are conserved), the
// same caveat as span energy.
func (s *System) TagStats(ns string) (Stats, bool) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	t := s.tenants[ns]
	if t == nil {
		return Stats{}, false
	}
	st := *t
	st.BankBusyNS = slices.Clone(t.BankBusyNS)
	return st, true
}

// ResetStats zeroes the system, tenant, device, controller, RowClone, and
// fault-model counters.  Memory contents, allocations, and the quarantine
// set are untouched (quarantine is memory state, not a statistic).
func (s *System) ResetStats() {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	s.statsMu.Lock()
	s.stats = Stats{}
	s.tenants, s.overflow = nil, nil
	s.statsMu.Unlock()
	s.dev.ResetStats()
	s.dev.ResetTimelines()
	s.ctrl.ResetStats()
	s.rc.ResetStats()
	if s.fm != nil {
		s.fm.ResetCounters()
	}
}

// EnergyNJ returns the total simulated energy: the device's command energy
// under the configured model plus channel I/O energy for external traffic.
func (s *System) EnergyNJ() float64 {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	device := s.cfg.Energy.DeviceEnergyNJ(s.dev.Stats())
	io := float64(s.stats.ChannelBytes) / 1024 * channelIOEnergyPerKB
	return device + io
}

// ElapsedNS returns the simulated time consumed so far.
func (s *System) ElapsedNS() float64 {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	return s.stats.ElapsedNS
}
