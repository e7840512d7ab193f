// Command perfbench is the repository's benchmark of record: four workloads
// shaped like the paper's evaluation, run through the public API of the ambit
// package and the HTTP service, each checked against a word-level reference
// model and measured end to end and layer by layer.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload bitmap-direct --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh -workloads all -out run.json [-trace 1]
//	bash perfbench/run.sh -compare-runs 'A/*.json' 'B/*.json'
//
// A single-workload run prints every metric of its set by name with its unit
// and, as its last line, one JSON object with the keys correct, attempted,
// failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics from a traced run and writes a Chrome trace.
// The run exits 1 when any output check fails.  -workloads runs each named
// workload in its own child process, so peak RSS and GC state belong to that
// workload alone.  README.md describes the workloads, the metrics and how to
// read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errUsage marks errors in the command line.
var errUsage = errors.New("usage")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process")
	names := fs.String("workloads", "", "run these workloads (comma-separated, or all), each in its own child process")
	seed := fs.Int64("seed", -1, "input seed (-1: each workload's default seed)")
	seconds := fs.Float64("seconds", 15, "how long each workload's timed phase runs")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for the Chrome trace of a traced run")
	scale := fs.Float64("scale", 1, "scale data sizes and fixed query counts by this factor in (0,1]")
	out := fs.String("out", "", "also write the full results as JSON to this file")
	compareRuns := fs.Bool("compare-runs", false, "compare two sets of -out files: perfbench -compare-runs 'A/*.json' 'B/*.json'")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compareRuns:
		if fs.NArg() != 2 {
			err = fmt.Errorf("%w: -compare-runs needs two file patterns", errUsage)
			break
		}
		var regressed bool
		if regressed, err = compareRunSets(stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	default:
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, scale: *scale, stdout: stdout}
		switch {
		case fs.NArg() > 0:
			err = fmt.Errorf("%w: unexpected arguments %q", errUsage, fs.Args())
		case *trace != 0 && *trace != 1:
			err = fmt.Errorf("%w: -trace must be 0 or 1", errUsage)
		case !(*seconds > 0):
			err = fmt.Errorf("%w: -seconds must be positive", errUsage)
		case !(*scale > 0 && *scale <= 1):
			err = fmt.Errorf("%w: -scale must be in (0,1]", errUsage)
		case *name != "" && *names == "":
			var res *result
			if res, err = runOne(*name, o, stdout); err == nil {
				if *out != "" {
					err = writeResults(*out, []*result{res})
				}
				if err == nil && !res.Correct {
					return 1
				}
			}
		case *names != "" && *name == "":
			var ok bool
			if ok, err = runChildren(*names, o, *out, stdout, stderr); err == nil && !ok {
				return 1
			}
		default:
			err = fmt.Errorf("%w: give -workload NAME or -workloads LIST", errUsage)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if errors.Is(err, errUsage) {
			return 2
		}
		return 1
	}
	return 0
}

// runOne runs a workload in this process and prints its metrics, ending with
// the one-line JSON result.
func runOne(name string, o options, stdout io.Writer) (*result, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: unknown workload %q (want one of %s)", errUsage, name, workloadNames())
	}
	o.workload = name
	if o.seed < 0 {
		o.seed = w.seed
	}
	res, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.printTable(stdout)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.reported()})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// resultsFile is the -out format: one result per workload run.
type resultsFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, rs []*result) error {
	data, err := json.MarshalIndent(resultsFile{Results: rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}

// runChildren runs each listed workload as a child process of this binary
// and gathers their results.  It reports whether every check passed.
func runChildren(list string, o options, out string, stdout, stderr io.Writer) (bool, error) {
	var ws []workload
	if list == "all" {
		ws = workloads
	} else {
		for _, n := range strings.Split(list, ",") {
			w, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				return false, fmt.Errorf("%w: unknown workload %q (want one of %s)", errUsage, n, workloadNames())
			}
			ws = append(ws, w)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	parent := filepath.Dir(o.traceDir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(parent, "perfbench-run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	traceFlag := "0"
	if o.trace {
		traceFlag = "1"
	}
	ok := true
	var results []*result
	for _, w := range ws {
		part := filepath.Join(tmp, w.name+".json")
		cargs := []string{
			"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", traceFlag,
			"--trace-dir", o.traceDir, "--scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "--out", part,
		}
		cmd := exec.Command(exe, cargs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			ok = false
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		}
		rs, err := readResults(part)
		if err != nil {
			ok = false
			continue
		}
		results = append(results, rs...)
	}
	fmt.Fprintln(stdout, "perfbench: summary")
	for _, r := range results {
		fmt.Fprintf(stdout, "  %-16s correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
		for _, m := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p99_ms", "trace.coverage_pct"} {
			if v, has := r.Metrics[m]; has {
				fmt.Fprintf(stdout, " %s=%s", m, formatValue(v.Value))
			}
		}
		fmt.Fprintln(stdout)
	}
	if out != "" {
		if err := writeResults(out, results); err != nil {
			return false, err
		}
	}
	return ok && len(results) == len(ws), nil
}
