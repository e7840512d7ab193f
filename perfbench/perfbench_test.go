package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the schema of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %q, want [perfbench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

// smallRun runs a workload at 1% scale for a moment and requires its checks
// to pass.
func smallRun(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := w.run(options{
		workload: name, seed: seed, seconds: 0.05, trace: trace,
		traceDir: t.TempDir(), scale: 0.01, stdout: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d", name, seed, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func names(m map[string]metricValue) []string {
	var ns []string
	for n := range m {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func TestWorkloadsAtSmallScale(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wantPlain, wantTraced []string
	for _, m := range b.EndToEnd {
		wantPlain = append(wantPlain, m.Name)
	}
	for _, m := range b.PerLayer {
		wantTraced = append(wantTraced, m.Name)
	}
	sort.Strings(wantPlain)
	sort.Strings(wantTraced)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := smallRun(t, w.name, w.seed, false)
			again := smallRun(t, w.name, w.seed, false)
			traced := smallRun(t, w.name, w.seed, true)
			other := smallRun(t, w.name, w.seed+1, false)
			if got := names(plain.reported()); !reflect.DeepEqual(got, wantPlain) {
				t.Errorf("untraced run reports %q, BENCHMARK.json end_to_end lists %q", got, wantPlain)
			}
			if got := names(traced.reported()); !reflect.DeepEqual(got, wantTraced) {
				t.Errorf("traced run reports %q, BENCHMARK.json per_layer lists %q", got, wantTraced)
			}
			for _, d := range perLayer {
				if !d.Exact {
					continue
				}
				p, a, tr := plain.Metrics[d.Name], again.Metrics[d.Name], traced.Metrics[d.Name]
				if p != a || p != tr {
					t.Errorf("%s: one seed gave %v, %v and (traced) %v", d.Name, p.Value, a.Value, tr.Value)
				}
			}
			if plain.InputDigest != again.InputDigest {
				t.Errorf("one seed gave input digests %s and %s", plain.InputDigest, again.InputDigest)
			}
			if plain.InputDigest == other.InputDigest {
				t.Errorf("seeds %d and %d gave the same input digest %s", w.seed, w.seed+1, plain.InputDigest)
			}
			for _, d := range endToEnd {
				if v := plain.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", d.Name, v)
				}
			}
			if v := traced.Metrics["trace.coverage_pct"].Value; !(v > 0 && v <= 100) {
				t.Errorf("trace.coverage_pct = %v", v)
			}
		})
	}
}

// TestCommandLine drives the program as the benchmark runner does and checks
// the final line's shape.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "faulted-ecc", "--seed", "5", "--seconds", "0.05", "--trace", "0", "--scale", "0.01"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("last line keys %q, want %q", keys, want)
	}
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "bitmap-direct", "--trace", "2"},
		{"--workload", "bitmap-direct", "--scale", "2"},
		{"--workload", "bitmap-direct", "-workloads", "all"},
		{"-compare-runs", "only-one-pattern"},
	} {
		stdout.Reset()
		if code := run(args, &stdout, io.Discard); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q printed %q", args, stdout.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64 // Python: statistics.quantiles(in, n=4)
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 2}, [3]float64{1, 2, 4}},
		{[]float64{3, 1, 2, 5}, [3]float64{1.25, 2.5, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestBoundVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{11.5, 11.6, 11.4, 11.55, 11.45}, "regressed"},
		{[]float64{8, 8.1, 7.9, 8.05, 7.95}, "improved"},
		{[]float64{10.2, 10.1, 10.3, 10.0, 10.25}, "no worse"},
		{[]float64{7, 13, 10.5, 8, 12}, "unresolved"},
	} {
		won := 0.0
		for i := range base {
			if tc.b[i] < base[i] {
				won++
			}
		}
		if got := boundVerdict(lower, base, tc.b, won/float64(len(base))); got != tc.want {
			t.Errorf("B = %v: verdict %s, want %s", tc.b, got, tc.want)
		}
	}
}
