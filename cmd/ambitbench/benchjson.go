package main

// Machine-readable benchmarking: `ambitbench -json out.json` measures the
// host-side cost of the functional simulation executing direct bulk
// operations through the public API, across operation types and row counts
// (rows spread across banks by the allocator), a compiled-function row (the
// Figure 10 query's 3-input AND through Func.Run), plus a host-I/O grid covering
// the staged (ReadInto/Write) and zero-copy (ViewWords/SetWords) data paths,
// and writes a JSON report.  `-maxprocs 1,4` repeats the grid once per
// GOMAXPROCS setting, tagging each result, and `-cpuprofile out.pprof`
// captures a CPU profile of the whole run.  `ambitbench -compare old.json
// new.json` diffs two such reports — the benchstat-style step CI runs on the
// committed BENCH_*.json trajectory; results are keyed name@gomaxprocs so
// single-core and multi-core measurements compare independently.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"

	"ambit"
	"ambit/internal/controller"
	"ambit/internal/sysmodel"
)

// BenchResult is one benchmark's measurements.
type BenchResult struct {
	// Name identifies the benchmark (op and row count).
	Name string `json:"name"`
	// Op is the bulk bitwise operation (or host-I/O path) measured.
	Op string `json:"op"`
	// Rows is the number of DRAM rows per operand vector.
	Rows int `json:"rows"`
	// Banks is the number of distinct banks the destination rows occupy.
	Banks int `json:"banks"`
	// GOMAXPROCS records the setting this result was measured under (0 in
	// reports from before the multi-core sweep; fall back to the
	// report-level value).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// NsPerOp is the measured host wall-clock per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// GBPerS is the host-side functional throughput (output bytes/s).
	GBPerS float64 `json:"gb_per_s"`
	// AllocsPerOp is the heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is the heap bytes allocated per operation.
	BytesPerOp float64 `json:"bytes_per_op"`
	// SimNS is the simulated (modelled DRAM) latency of one operation.
	SimNS float64 `json:"sim_ns"`
	// CPUModelNS is the modelled cost of the same operation on the paper's
	// CPU baseline (streaming, Section 8).
	CPUModelNS float64 `json:"cpu_model_ns"`
	// SimSpeedupVsCPU is CPUModelNS / SimNS — the paper-style Ambit speedup.
	SimSpeedupVsCPU float64 `json:"sim_speedup_vs_cpu"`
}

// BenchReport is the top-level JSON document.
type BenchReport struct {
	Tool       string        `json:"tool"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
}

// benchOps and benchRowCounts define the measured grid.  Row counts cover the
// single-bank case, one row per bank, and a multi-row-per-bank spread (the
// default geometry has 8 banks).
var (
	benchOps       = []controller.Op{controller.OpAnd, controller.OpOr, controller.OpNot, controller.OpXor}
	benchRowCounts = []int{1, 8, 64}
)

// funcRowCounts sizes the compiled-function rows: a 3-input AND compiled
// with System.Compile and run through Func.Run, the shape of the Figure 10
// bitmap query's predicate.
var funcRowCounts = []int{8, 64}

// hostIOPaths and hostIORowCounts define the host-I/O grid: the staged read
// and write paths against their zero-copy view counterparts.
var (
	hostIOPaths     = []string{"readinto", "write", "viewwords", "setwords"}
	hostIORowCounts = []int{8, 64}
)

// benchSetup allocates and loads three co-located vectors of `rows` DRAM rows.
func benchSetup(rows int) (*ambit.System, *ambit.Bitvector, *ambit.Bitvector, *ambit.Bitvector, error) {
	sys, err := ambit.New()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	bits := int64(rows) * int64(sys.RowSizeBits())
	x, err := sys.Alloc(bits)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	y, err := sys.Alloc(bits)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	d, err := sys.Alloc(bits)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(1))
	w := make([]uint64, x.WordCount())
	for i := range w {
		w[i] = rng.Uint64()
	}
	if err := x.Write(w, ambit.Backdoor()); err != nil {
		return nil, nil, nil, nil, err
	}
	for i := range w {
		w[i] = rng.Uint64()
	}
	if err := y.Write(w, ambit.Backdoor()); err != nil {
		return nil, nil, nil, nil, err
	}
	return sys, x, y, d, nil
}

// distinctBanks counts the banks a vector's rows occupy.
func distinctBanks(v *ambit.Bitvector) int {
	seen := map[int]bool{}
	for r := 0; r < v.Rows(); r++ {
		seen[v.Row(r).Bank] = true
	}
	return len(seen)
}

// benchName is the grid naming scheme shared by the runner, -list, and -run.
func benchName(op controller.Op, rows int) string {
	return fmt.Sprintf("DirectOps/%s-rows%d", op, rows)
}

// funcName names one compiled-function grid benchmark.
func funcName(rows int) string {
	return fmt.Sprintf("DirectOps/func-and3-rows%d", rows)
}

// hostIOName names one host-I/O grid benchmark.
func hostIOName(path string, rows int) string {
	return fmt.Sprintf("HostIO/%s-rows%d", path, rows)
}

// benchGridNames returns every -json grid benchmark name in run order.
func benchGridNames() []string {
	names := make([]string, 0, len(benchRowCounts)*len(benchOps)+len(funcRowCounts)+len(hostIORowCounts)*len(hostIOPaths))
	for _, rows := range benchRowCounts {
		for _, op := range benchOps {
			names = append(names, benchName(op, rows))
		}
	}
	for _, rows := range funcRowCounts {
		names = append(names, funcName(rows))
	}
	for _, rows := range hostIORowCounts {
		for _, path := range hostIOPaths {
			names = append(names, hostIOName(path, rows))
		}
	}
	return names
}

// appendResult finalizes derived fields, tags the current GOMAXPROCS, and
// prints the human-readable line.
func appendResult(rep *BenchReport, res BenchResult, bytes int64) {
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if res.NsPerOp > 0 {
		res.GBPerS = float64(bytes) / res.NsPerOp // bytes/ns == GB/s
	}
	if res.SimNS > 0 && res.CPUModelNS > 0 {
		res.SimSpeedupVsCPU = res.CPUModelNS / res.SimNS
	}
	rep.Results = append(rep.Results, res)
	fmt.Printf("%-26s @%d %12.0f ns/op %8.3f GB/s %6.1f allocs/op %12.0f sim-ns %8.2fx vs CPU\n",
		res.Name, res.GOMAXPROCS, res.NsPerOp, res.GBPerS, res.AllocsPerOp, res.SimNS, res.SimSpeedupVsCPU)
}

// runDirectOpGrid measures the direct-op grid under the current GOMAXPROCS.
func runDirectOpGrid(rep *BenchReport, match func(string) bool, m *sysmodel.Machine) error {
	for _, rows := range benchRowCounts {
		for _, op := range benchOps {
			op, rows := op, rows
			if !match(benchName(op, rows)) {
				continue
			}
			sys, x, y, d, err := benchSetup(rows)
			if err != nil {
				return err
			}
			// Simulated latency of one op on an otherwise idle device.
			if err := sys.Apply(op, d, x, y); err != nil {
				return err
			}
			simNS := sys.ElapsedNS()
			bytes := int64(rows) * int64(sys.Config().DRAM.Geometry.RowSizeBytes)

			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bytes)
				for i := 0; i < b.N; i++ {
					if err := sys.Apply(op, d, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
			appendResult(rep, BenchResult{
				Name:        benchName(op, rows),
				Op:          op.String(),
				Rows:        rows,
				Banks:       distinctBanks(d),
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: float64(r.AllocsPerOp()),
				BytesPerOp:  float64(r.AllocedBytesPerOp()),
				SimNS:       simNS,
				// CPU baseline: streaming bulk bitwise op with an uncached
				// working set (the paper's Section 8 comparison regime).
				CPUModelNS: m.CPUBitwiseNS(op.InputRows(), bytes, 32<<20),
			}, bytes)
		}
	}
	return nil
}

// runFuncGrid measures the compiled-function rows under the current
// GOMAXPROCS: out = x AND y AND d through one compiled train per row.
func runFuncGrid(rep *BenchReport, match func(string) bool, m *sysmodel.Machine) error {
	for _, rows := range funcRowCounts {
		if !match(funcName(rows)) {
			continue
		}
		sys, x, y, d, err := benchSetup(rows)
		if err != nil {
			return err
		}
		out, err := sys.Alloc(d.Len())
		if err != nil {
			return err
		}
		f, err := sys.Compile("and3", ambit.And(ambit.Var(0), ambit.Var(1), ambit.Var(2)))
		if err != nil {
			return err
		}
		if err := f.Run(out, x, y, d); err != nil {
			return err
		}
		simNS := sys.ElapsedNS()
		bytes := int64(rows) * int64(sys.Config().DRAM.Geometry.RowSizeBytes)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if err := f.Run(out, x, y, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		appendResult(rep, BenchResult{
			Name:        funcName(rows),
			Op:          "func-and3",
			Rows:        rows,
			Banks:       distinctBanks(out),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
			SimNS:       simNS,
			CPUModelNS:  m.CPUBitwiseNS(3, bytes, 32<<20),
		}, bytes)
	}
	return nil
}

// runHostIOGrid measures the host-I/O grid: how fast the host can move data
// in and out of the simulated device over the costed channel, via the staged
// paths (ReadInto, Write) and the zero-copy view paths (ViewWords, SetWords).
func runHostIOGrid(rep *BenchReport, match func(string) bool) error {
	for _, rows := range hostIORowCounts {
		any := false
		for _, path := range hostIOPaths {
			if match(hostIOName(path, rows)) {
				any = true
			}
		}
		if !any {
			continue
		}
		sys, x, _, _, err := benchSetup(rows)
		if err != nil {
			return err
		}
		bytes := int64(rows) * int64(sys.Config().DRAM.Geometry.RowSizeBytes)
		banks := distinctBanks(x)
		words := make([]uint64, x.WordCount())
		var sink int
		view := func(views [][]uint64) error {
			for _, row := range views {
				sink += len(row)
			}
			return nil
		}
		body := map[string]func() error{
			"readinto": func() error { _, err := x.ReadInto(words); return err },
			"write":    func() error { return x.Write(words) },
			"viewwords": func() error {
				return x.ViewWords(view)
			},
			"setwords": func() error { _, err := x.SetWords(words); return err },
		}
		for _, path := range hostIOPaths {
			if !match(hostIOName(path, rows)) {
				continue
			}
			fn := body[path]
			before := sys.ElapsedNS()
			if err := fn(); err != nil {
				return err
			}
			simNS := sys.ElapsedNS() - before
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bytes)
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
			appendResult(rep, BenchResult{
				Name:        hostIOName(path, rows),
				Op:          path,
				Rows:        rows,
				Banks:       banks,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: float64(r.AllocsPerOp()),
				BytesPerOp:  float64(r.AllocedBytesPerOp()),
				SimNS:       simNS,
			}, bytes)
		}
	}
	return nil
}

// runBenchJSON measures the grid once per GOMAXPROCS setting in procs and
// writes the combined report to path.  A non-empty filter is a regexp over
// grid names; a filter matching no benchmark is an error so a typo cannot
// silently produce an empty report.  A non-empty cpuProfile captures a pprof
// CPU profile of the whole run.
func runBenchJSON(path, filter string, procs []int, cpuProfile string) error {
	match := func(string) bool { return true }
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return fmt.Errorf("-run %q: %w", filter, err)
		}
		match = re.MatchString
		any := false
		for _, name := range benchGridNames() {
			if match(name) {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("-run %q matches no benchmark in the grid (see ambitbench -list)", filter)
		}
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	if len(procs) == 0 {
		procs = []int{prev}
	}
	m := sysmodel.MustDefault()
	rep := BenchReport{
		Tool:       "ambitbench -json",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: prev,
	}
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		if err := runDirectOpGrid(&rep, match, m); err != nil {
			return err
		}
		if err := runFuncGrid(&rep, match, m); err != nil {
			return err
		}
		if err := runHostIOGrid(&rep, match); err != nil {
			return err
		}
	}
	runtime.GOMAXPROCS(prev)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadBenchReport reads a BenchReport from disk.
func loadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// resultKey keys one result for comparison: name@gomaxprocs, falling back to
// the report-level GOMAXPROCS for reports from before the per-result tag.
func resultKey(rep *BenchReport, r BenchResult) string {
	g := r.GOMAXPROCS
	if g == 0 {
		g = rep.GOMAXPROCS
	}
	return fmt.Sprintf("%s@%d", r.Name, g)
}

// runCompare prints a benchstat-style old/new comparison of two reports and
// returns the benchmarks whose ns/op regressed by more than thresholdPct
// percent (never any when thresholdPct is negative) — the CI gate's input.
// Results are matched by name@gomaxprocs, so single- and multi-core
// measurements gate independently.
func runCompare(oldPath, newPath string, thresholdPct float64) ([]string, error) {
	oldRep, err := loadBenchReport(oldPath)
	if err != nil {
		return nil, err
	}
	newRep, err := loadBenchReport(newPath)
	if err != nil {
		return nil, err
	}
	oldBy := map[string]BenchResult{}
	for _, r := range oldRep.Results {
		oldBy[resultKey(oldRep, r)] = r
	}
	keys := make([]string, 0, len(newRep.Results))
	newBy := map[string]BenchResult{}
	for _, r := range newRep.Results {
		k := resultKey(newRep, r)
		newBy[k] = r
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var regressions []string
	fmt.Printf("%-30s %14s %14s %9s %12s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	for _, key := range keys {
		n := newBy[key]
		o, ok := oldBy[key]
		if !ok {
			fmt.Printf("%-30s %14s %14.0f %9s %12s %12.1f\n", key, "-", n.NsPerOp, "new", "-", n.AllocsPerOp)
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			pct := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
			delta = fmt.Sprintf("%+.1f%%", pct)
			if thresholdPct >= 0 && pct > thresholdPct {
				regressions = append(regressions, fmt.Sprintf("%s (%s)", key, delta))
			}
		}
		fmt.Printf("%-30s %14.0f %14.0f %9s %12.1f %12.1f\n",
			key, o.NsPerOp, n.NsPerOp, delta, o.AllocsPerOp, n.AllocsPerOp)
	}
	for _, key := range sortedMissing(oldBy, newBy) {
		fmt.Printf("%-30s removed\n", key)
	}
	return regressions, nil
}

// sortedMissing lists keys present in old but absent from new.
func sortedMissing(oldBy, newBy map[string]BenchResult) []string {
	var out []string
	for key := range oldBy {
		if _, ok := newBy[key]; !ok {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
