// Command ambitbench regenerates the tables and figures of the Ambit paper
// (Seshadri et al., MICRO-50, 2017) from the simulation models in this
// repository.
//
// Usage:
//
//	ambitbench -list
//	ambitbench                  # run every experiment
//	ambitbench fig9 table3      # run selected experiments
//	ambitbench -iterations 100000 table2
//	ambitbench -trace out.json -metrics fig9 batch
//
// Experiments: table1, table2, worstcase, fig8, fig9, table3, table4, aap,
// fig10, fig11, fig12, batch, extensions, faults.  The batch experiment
// exercises the batch execution engine (ambit.Batch): independent operations
// spread across banks overlap on per-bank timelines instead of serializing
// on the global clock.  The faults experiment sweeps TRA/DCC failure rates
// and compares raw results against the TMR + retry + quarantine reliability
// policy (also available as `ambitsim -faults`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ambit"
	"ambit/internal/exp"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ambitbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	iterations := flag.Int("iterations", 100000, "Monte-Carlo iterations per variation level (table2)")
	seed := flag.Int64("seed", 42, "random seed for Monte-Carlo experiments")
	list := flag.Bool("list", false, "list available experiments and exit")
	traceOut := flag.String("trace", "", "write a chrome://tracing JSON trace of the experiments' DRAM commands to this file")
	metrics := flag.Bool("metrics", false, "print Prometheus-format histograms aggregated across all experiments")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(exp.Names(), "\n"))
		return
	}

	// One tracer and one registry are shared by every System the
	// experiments construct, so the output aggregates the whole run.
	var obsOpts []ambit.Option
	var traceFile *os.File
	var tracer *ambit.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		traceFile = f
		tracer = ambit.NewTracer(ambit.NewJSONLSink(f))
		obsOpts = append(obsOpts, ambit.WithTracer(tracer))
	}
	var reg *ambit.MetricsRegistry
	if *metrics {
		reg = ambit.NewMetrics()
		obsOpts = append(obsOpts, ambit.WithMetrics(reg))
	}
	if len(obsOpts) > 0 {
		exp.SetObserve(obsOpts...)
	}

	names := flag.Args()
	if len(names) == 0 {
		names = exp.Names()
	}
	for _, name := range names {
		out, err := exp.Run(name, *iterations, *seed)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("=== %s ===\n%s\n", name, out)
	}
	if traceFile != nil {
		if err := tracer.Flush(); err != nil {
			fail("trace flush: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fail("trace close: %v", err)
		}
		fmt.Printf("trace: wrote %s (load in chrome://tracing)\n", *traceOut)
	}
	if reg != nil {
		fmt.Println("=== metrics ===")
		if _, err := reg.WriteTo(os.Stdout); err != nil {
			fail("metrics: %v", err)
		}
	}
}
