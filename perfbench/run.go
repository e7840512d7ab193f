package main

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ambit"
)

// options are one workload run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	scale    float64
	stdout   io.Writer // where a traced run prints its per-layer table
}

// setupRepeats is how many times a run sets its workload up from scratch;
// setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 9

// setupTimes is one set-up's phase split.
type setupTimes struct {
	new, alloc, write, compile time.Duration
}

func (st setupTimes) total() time.Duration { return st.new + st.alloc + st.write + st.compile }

// timePhase runs fn and adds its wall time to *d.
func timePhase(d *time.Duration, fn func() error) error {
	start := time.Now()
	err := fn()
	*d += time.Since(start)
	return err
}

// repeatSetup sets the workload up setupRepeats times, keeping the last one,
// and records the median set-up time, scaled by the calibration taken
// between set-ups, and each phase's median share of it.  teardown releases
// every set-up but the last; each set-up then starts from a returned heap, as
// a fresh process would.
func repeatSetup(res *result, cal *calibrator, setup func(*setupTimes) error, teardown func()) error {
	var runs []setupTimes
	defer func() { cal.samples = cal.samples[:0] }()
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown()
			runtime.GC()
			debug.FreeOSMemory()
		}
		for j := 0; j < 3; j++ {
			cal.measure()
		}
		var st setupTimes
		if err := setup(&st); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		runs = append(runs, st)
	}
	totals := make([]float64, len(runs))
	for i, st := range runs {
		totals[i] = st.total().Seconds()
	}
	raw := median(totals)
	res.set("host.raw_setup_s", raw)
	res.set("setup_s", raw*cal.factor())
	share := func(name string, get func(setupTimes) time.Duration) {
		vs := make([]float64, len(runs))
		for i, st := range runs {
			vs[i] = 100 * get(st).Seconds() / st.total().Seconds()
		}
		res.set("ambit.setup."+name+"_share_pct", median(vs))
	}
	share("new", func(st setupTimes) time.Duration { return st.new })
	share("alloc", func(st setupTimes) time.Duration { return st.alloc })
	share("write", func(st setupTimes) time.Duration { return st.write })
	share("compile", func(st setupTimes) time.Duration { return st.compile })
	return nil
}

func newResult(o options) *result {
	return &result{
		Workload:   o.workload,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    make(map[string]metricValue),
	}
}

// scaled returns n scaled down by the run's -scale factor, at least min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		return min
	}
	return v
}

// ---- simulated-work accounting ----

// simSnap is the System's simulated ledger at one moment.
type simSnap struct {
	st     ambit.Stats
	energy float64
}

func snapshot(sys *ambit.System) simSnap {
	return simSnap{st: sys.Stats(), energy: sys.EnergyNJ()}
}

// work is what this program observed on top of Stats over a span of queries.
type work struct {
	majErr     int64 // Σ |popcount(Maj result) - reference|
	batches    int
	makespanNS float64
	waves      int
}

func (w *work) merge(o outcome) {
	w.majErr += o.majErr
	if o.batch.Ops > 0 {
		w.batches++
		w.makespanNS += o.batch.MakespanNS
		w.waves += o.batch.Waves
	}
}

// setExact records the simulated-work metrics of ops operations between two
// snapshots.  They are exact: a seed fixes every one of them.
func setExact(res *result, a, b simSnap, ops int, w work) {
	n := float64(ops)
	st0, st1 := a.st, b.st
	res.set("sim.ns_per_op", (st1.ElapsedNS-st0.ElapsedNS)/n)
	res.set("sim.nj_per_op", (b.energy-a.energy)/n)
	res.set("controller.row_ops_per_op", float64(st1.RowOps-st0.RowOps)/n)
	res.set("controller.bulk_ops_per_op", float64(st1.TotalBulkOps()-st0.TotalBulkOps())/n)
	res.set("controller.func_ops_per_op", float64(st1.FuncOps-st0.FuncOps)/n)
	res.set("controller.maj_ops_per_op", float64(st1.MajOps-st0.MajOps)/n)
	res.set("rowclone.copies_per_op", float64(st1.Copies-st0.Copies)/n)
	res.set("dram.channel_bytes_per_op", float64(st1.ChannelBytes-st0.ChannelBytes)/n)
	var busy float64
	for i := range st1.BankBusyNS {
		busy += st1.BankBusyNS[i] - st0.BankBusyNS[i]
	}
	if el := st1.ElapsedNS - st0.ElapsedNS; el > 0 && len(st1.BankBusyNS) > 0 {
		res.set("exec.bank_util_mean", busy/(el*float64(len(st1.BankBusyNS))))
	}
	if w.batches > 0 {
		res.set("ambit.batch_makespan_ns_mean", w.makespanNS/float64(w.batches))
		res.set("ambit.batch_waves_mean", float64(w.waves)/float64(w.batches))
	}
	res.set("controller.retries", float64(st1.Retries-st0.Retries))
	res.set("controller.corrected_bits", float64(st1.CorrectedBits-st0.CorrectedBits))
	res.set("controller.injected_faults", float64(st1.InjectedFaults-st0.InjectedFaults))
	res.set("controller.uncorrectable_rows", float64(st1.UncorrectableRows-st0.UncorrectableRows))
	if flipped := st1.InjectedFaultBits - st0.InjectedFaultBits; flipped > 0 {
		res.set("controller.corrected_per_injected", float64(st1.CorrectedBits-st0.CorrectedBits)/float64(flipped))
	}
	res.set("controller.maj_popcount_error", float64(w.majErr))
}

// setRuntime records the Go runtime's work over ops timed operations.
func setRuntime(res *result, m0, m1 *runtime.MemStats, ops int64) {
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	res.set("runtime.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
	res.set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(ops))
}

// setLatency records throughput and the latency percentiles of the timed
// operations, raw and scaled to the reference host speed.  lat holds one
// end-to-end time per operation, in ns.
func setLatency(res *result, lat []int64, elapsed time.Duration, cal *calibrator) {
	f := cal.factor()
	tp := float64(len(lat)) / elapsed.Seconds()
	q := nsQuantiles(lat, 0.5, 0.99)
	res.set("host.calibration_us", cal.medianNS()/1e3)
	res.set("host.raw_throughput_ops_s", tp)
	res.set("host.raw_latency_p50_ms", q[0]/1e3)
	res.set("host.raw_latency_p99_ms", q[1]/1e3)
	res.set("throughput_ops_s", tp/f)
	res.set("latency_p50_ms", q[0]/1e3*f)
	res.set("latency_p99_ms", q[1]/1e3*f)
}

func setRSS(res *result) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", mb)
	return nil
}

// traceOverhead compares the mean root time of traced and untraced
// operations of one run, in percent.
func traceOverhead(tracedNS, tracedN, plainNS, plainN int64) float64 {
	if tracedN == 0 || plainN == 0 {
		return 0
	}
	return 100 * (float64(tracedNS)/float64(tracedN)/(float64(plainNS)/float64(plainN)) - 1)
}

// finishTrace summarizes a traced run's spans, prints the per-layer table and
// writes the Chrome trace.
func finishTrace(res *result, o options, clients [][]span, server []span) error {
	ts := summarize(clients, server)
	ts.setLayerMetrics(res)
	fmt.Fprintln(o.stdout, "perfbench: per-layer host time (traced operations only)")
	ts.print(o.stdout)
	fmt.Fprintf(o.stdout, "  tracing overhead on mean operation time: %+.2f%%\n", res.Metrics["trace.overhead_pct"].Value)
	path := filepath.Join(o.traceDir, o.workload+".json")
	if err := writeChrome(path, clients, server); err != nil {
		return err
	}
	fmt.Fprintf(o.stdout, "perfbench: wrote Chrome trace %s\n", path)
	return nil
}

// ---- seeded data ----

// densityWord returns a word whose bits are each set with probability q/256:
// eight binary refinement steps, least significant first, each either
// halving the density (0 bit) or raising half the clear bits (1 bit).
func densityWord(rng *rand.Rand, q int) uint64 {
	var w uint64
	for b := 0; b < 8; b++ {
		r := rng.Uint64()
		if q&(1<<b) != 0 {
			w |= ^w & r
		} else {
			w &= r
		}
	}
	return w
}

// randomWords returns n words of the given bit density (in 256ths).
func randomWords(rng *rand.Rand, n, q int) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = densityWord(rng, q)
	}
	return ws
}

// digest is a cheap order-sensitive hash of generated inputs.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(words ...uint64) {
	h := uint64(*d)
	for _, w := range words {
		h = (h ^ w) * 1099511628211
	}
	*d = digest(h)
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

func popcount(ws []uint64) int64 {
	var n int64
	for _, w := range ws {
		n += int64(bits.OnesCount64(w))
	}
	return n
}
