package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// metricDef describes one reported metric.  BENCHMARK.json at the repository
// root lists the same names, units and directions (perfbench_test.go keeps
// the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks simulated-work metrics: they repeat exactly for a seed,
	// so two runs with one seed must agree to the last digit.
	Exact bool
}

// endToEnd are the metrics a user of the library or the service sees; they
// come only from untraced runs (--trace 0).  Host times and rates are scaled
// to the reference host speed (calib.go); the raw values are the host.raw_*
// per-layer metrics.  Each bound sits at or above three times the widest
// interquartile spread measured (README.md); set-up time, timed over only
// ~30 ms, gets the largest.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.20},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers, named after them; they come
// from traced runs (--trace 1).  README.md maps each to the end-to-end metric
// and workload it should move.
var perLayer = buildPerLayer()

// callLayers are the root package's public calls the library workloads time.
var callLayers = []string{"apply", "copy", "func_run", "popcount", "maj", "batch_record", "batch_run"}

// serviceRoutes are the service routes the service workload exercises.
var serviceRoutes = []string{"op", "query", "data_read", "data_write"}

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string, exact bool) {
		ms = append(ms, metricDef{Name: name, Unit: unit, Better: better, Exact: exact})
	}
	// Host time per layer is reported as the layer's share of query time: a
	// layer a workload never calls then reads 0%, not a constant 0 µs.  The
	// traced run's table prints each layer's count, total, self time and
	// p50/p99 as well.
	add("host.calibration_us", "us", "lower", false)
	add("host.raw_throughput_ops_s", "ops/s", "higher", false)
	add("host.raw_latency_p50_ms", "ms", "lower", false)
	add("host.raw_latency_p99_ms", "ms", "lower", false)
	add("host.raw_setup_s", "s", "lower", false)
	for _, c := range callLayers {
		add("ambit."+c+".calls_per_op", "count", "lower", false)
		add("ambit."+c+".share_pct", "%", "lower", false)
	}
	for _, p := range []string{"new", "alloc", "write", "compile"} {
		add("ambit.setup."+p+"_share_pct", "%", "lower", false)
	}
	add("ambit.host_ns_per_row_op", "ns", "lower", false)
	add("sim.ns_per_op", "sim_ns", "lower", true)
	add("sim.nj_per_op", "nJ", "lower", true)
	add("controller.row_ops_per_op", "count", "lower", true)
	add("controller.bulk_ops_per_op", "count", "lower", true)
	add("controller.func_ops_per_op", "count", "lower", true)
	add("controller.maj_ops_per_op", "count", "lower", true)
	add("rowclone.copies_per_op", "count", "lower", true)
	add("dram.channel_bytes_per_op", "B", "lower", true)
	add("exec.bank_util_mean", "ratio", "higher", true)
	add("ambit.batch_makespan_ns_mean", "sim_ns", "lower", true)
	add("ambit.batch_waves_mean", "count", "lower", true)
	add("controller.retries", "count", "lower", true)
	add("controller.corrected_bits", "count", "lower", true)
	add("controller.injected_faults", "count", "lower", true)
	add("controller.uncorrectable_rows", "count", "lower", true)
	add("controller.corrected_per_injected", "ratio", "higher", true)
	add("controller.maj_popcount_error", "bits", "lower", true)
	for _, r := range serviceRoutes {
		add("service."+r+".share_pct", "%", "lower", false)
	}
	add("service.serve.share_pct", "%", "lower", false)
	add("service.admission_share_pct", "%", "lower", false)
	add("service.rejected", "count", "lower", false)
	add("service.reject_ratio", "ratio", "lower", false)
	add("nethttp.transport_share_pct", "%", "lower", false)
	add("runtime.gc_cycles", "count", "lower", false)
	add("runtime.alloc_bytes_per_op", "B", "lower", false)
	add("runtime.allocs_per_op", "count", "lower", false)
	add("trace.coverage_pct", "%", "higher", false)
	add("trace.overhead_pct", "%", "lower", false)
	return ms
}

// metricByName finds a definition in either set.
func metricByName(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// metricValue is one measured value with its unit, as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run measured.  The last line of standard
// output carries its correct/attempted/failed fields and the metrics of the
// run's set; -out files carry all of it.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Scale       float64                `json:"scale"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	InputDigest string                 `json:"input_digest"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// set records a metric value under its defined unit; an undefined name is a
// bug in this program.
func (r *result) set(name string, v float64) {
	def, ok := metricByName(name)
	if !ok {
		panic("perfbench: undefined metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
}

// reported returns the metric set the run's final line carries: every
// end-to-end metric untraced, every per-layer metric traced.  Metrics a
// workload does not exercise read 0.
func (r *result) reported() map[string]metricValue {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			mv = metricValue{Unit: d.Unit}
		}
		out[d.Name] = mv
	}
	return out
}

// printTable writes every reported metric by name with its unit.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d scale=%g seconds=%g trace=%v gomaxprocs=%d input_digest=%s\n",
		r.Workload, r.Seed, r.Scale, r.Seconds, r.Trace, r.GOMAXPROCS, r.InputDigest)
	fmt.Fprintf(w, "perfbench: correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16s %s\n", d.Name, formatValue(r.Metrics[d.Name].Value), d.Unit)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// ---- sample statistics ----

// quantile returns the q-quantile of sorted samples by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// nsQuantiles sorts ns samples and returns the given quantiles in µs.
func nsQuantiles(ns []int64, qs ...float64) []float64 {
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v) / 1e3
	}
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(s, q)
	}
	return out
}

// quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle of values.
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
