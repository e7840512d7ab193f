package exec

import "sync"

// Bank-utilization collector: the data source of the telemetry server's
// /banks endpoint.  Every reserved command-train interval [startNS, endNS) on
// a bank is folded into fixed-width simulated-time bins, giving the per-bank
// busy-fraction timeline the paper's Figure 10-style utilization discussion
// reports.  Banks reserve disjoint intervals on their own timelines, so the
// per-bin busy time never exceeds the bin width and the fraction is exact,
// not sampled.

// DefaultUtilBinNS is the default timeline resolution: 1 µs of simulated
// time per bin, fine enough to resolve individual multi-row operations
// (a row-wide AND is ~200 ns) without unbounded growth on long runs.
const DefaultUtilBinNS = 1000.0

// Util accumulates per-bank busy time in fixed-width simulated-time bins.
// All methods are safe for concurrent use; Record is called once per
// row-level command train, far off any per-command hot path.
type Util struct {
	mu    sync.Mutex
	binNS float64
	bins  [][]float64 // [bank][bin] -> busy ns within the bin
	endNS float64     // latest interval end seen
}

// NewUtil creates a collector for the given bank count; binNS <= 0 selects
// DefaultUtilBinNS.
func NewUtil(banks int, binNS float64) *Util {
	if binNS <= 0 {
		binNS = DefaultUtilBinNS
	}
	return &Util{binNS: binNS, bins: make([][]float64, banks)}
}

// Record folds one busy interval [startNS, endNS) on a bank into the
// timeline.  Intervals outside the bank range or with non-positive length
// are ignored.
func (u *Util) Record(bank int, startNS, endNS float64) {
	if u == nil || bank < 0 || bank >= len(u.bins) || !(endNS > startNS) || startNS < 0 {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if endNS > u.endNS {
		u.endNS = endNS
	}
	first := int(startNS / u.binNS)
	last := int(endNS / u.binNS)
	if need := last + 1; need > len(u.bins[bank]) {
		grown := make([]float64, need)
		copy(grown, u.bins[bank])
		u.bins[bank] = grown
	}
	for b := first; b <= last; b++ {
		lo, hi := float64(b)*u.binNS, float64(b+1)*u.binNS
		if startNS > lo {
			lo = startNS
		}
		if endNS < hi {
			hi = endNS
		}
		if hi > lo {
			u.bins[bank][b] += hi - lo
		}
	}
}

// BankUtil is one bank's busy-fraction timeline.
type BankUtil struct {
	// Bank is the bank index.
	Bank int `json:"bank"`
	// BusyFraction[i] is the fraction of bin i the bank spent executing
	// command trains, in [0, 1].
	BusyFraction []float64 `json:"busy_fraction"`
	// TotalBusyNS is the bank's total recorded busy time.
	TotalBusyNS float64 `json:"total_busy_ns"`
}

// UtilSnapshot is a self-contained copy of the collector's state.  Every
// bank's timeline is padded to the same length, so rows align column for
// column.
type UtilSnapshot struct {
	// BinNS is the timeline resolution in simulated nanoseconds per bin.
	BinNS float64 `json:"bin_ns"`
	// EndNS is the latest simulated completion time recorded.
	EndNS float64 `json:"end_ns"`
	// Banks holds one timeline per bank, in bank order.
	Banks []BankUtil `json:"banks"`
}

// TailBusyFraction returns the mean busy fraction across all banks over the
// trailing windowNS of recorded simulated time (ending at the latest
// recorded interval end), in [0, 1].  It scans only the tail bins, so it is
// cheap enough to call per admission decision; before anything is recorded
// it returns 0.
func (u *Util) TailBusyFraction(windowNS float64) float64 {
	if u == nil || windowNS <= 0 {
		return 0
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.endNS <= 0 || len(u.bins) == 0 {
		return 0
	}
	startNS := u.endNS - windowNS
	if startNS < 0 {
		startNS = 0
	}
	first, last := int(startNS/u.binNS), int(u.endNS/u.binNS)
	var busy float64
	for _, bins := range u.bins {
		for b := first; b <= last && b < len(bins); b++ {
			lo, hi := float64(b)*u.binNS, float64(b+1)*u.binNS
			if startNS > lo {
				lo = startNS
			}
			if u.endNS < hi {
				hi = u.endNS
			}
			if hi <= lo {
				continue
			}
			// The bin's busy time, attributed uniformly within the bin.
			busy += bins[b] * (hi - lo) / u.binNS
		}
	}
	window := u.endNS - startNS
	f := busy / (window * float64(len(u.bins)))
	if f > 1 {
		f = 1
	}
	return f
}

// Snapshot returns the busy-fraction timelines.
func (u *Util) Snapshot() UtilSnapshot {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, bins := range u.bins {
		if len(bins) > n {
			n = len(bins)
		}
	}
	snap := UtilSnapshot{BinNS: u.binNS, EndNS: u.endNS, Banks: make([]BankUtil, len(u.bins))}
	for bank, bins := range u.bins {
		bu := BankUtil{Bank: bank, BusyFraction: make([]float64, n)}
		for i, busy := range bins {
			f := busy / u.binNS
			if f > 1 {
				f = 1 // float round-off; busy time per bin cannot exceed the bin
			}
			bu.BusyFraction[i] = f
			bu.TotalBusyNS += busy
		}
		snap.Banks[bank] = bu
	}
	return snap
}
