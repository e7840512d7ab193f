package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// loadSet reads every -out file a glob pattern names, in name order.
func loadSet(pattern string) ([]*result, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: no files match %q", errUsage, pattern)
	}
	sort.Strings(paths)
	var rs []*result
	for _, p := range paths {
		part, err := readResults(p)
		if err != nil {
			return nil, err
		}
		rs = append(rs, part...)
	}
	return rs, nil
}

// byWorkload groups results by workload, keeping their order.
func byWorkload(rs []*result) map[string][]*result {
	m := make(map[string][]*result)
	for _, r := range rs {
		m[r.Workload] = append(m[r.Workload], r)
	}
	return m
}

// compareRunSets compares run set B against baseline set A, workload by
// workload and metric by metric.  Run i of A pairs with run i of B.  It
// prints each metric's median and quartiles on both sides, the share of pairs
// B won and a verdict, and reports whether any end-to-end metric regressed
// beyond its bound or any exact metric changed between same-seed runs.
func compareRunSets(w io.Writer, patA, patB string) (bool, error) {
	setA, err := loadSet(patA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(patB)
	if err != nil {
		return false, err
	}
	ga, gb := byWorkload(setA), byWorkload(setB)
	bad := false
	fmt.Fprintf(w, "%-15s %-34s %-6s %26s %26s %9s %5s %5s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "won", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := ga[wl.name], gb[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-15s runs: A %d, B %d\n", wl.name, len(ra), len(rb))
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			a, b := values(ra, def.Name), values(rb, def.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa1, ma, qa3 := quartiles(a)
			qb1, mb, qb3 := quartiles(b)
			won := pairsWon(def, ra, rb)
			var v string
			switch {
			case def.Exact:
				v = exactVerdict(def.Name, ra, rb)
			case def.Bound > 0:
				v = boundVerdict(def, a, b, won)
			default:
				v = "info"
			}
			if v == "regressed" || v == "changed" {
				bad = true
			}
			bound, wonStr := "-", "-"
			if def.Bound > 0 {
				bound, wonStr = fmt.Sprintf("%.0f%%", 100*def.Bound), fmt.Sprintf("%.0f%%", 100*won)
			}
			fmt.Fprintf(w, "%-15s %-34s %-6s %26s %26s %+8.2f%% %5s %5s  %s\n", "", def.Name, def.Unit,
				spread(ma, qa1, qa3), spread(mb, qb1, qb3), relDelta(ma, mb), wonStr, bound, v)
		}
	}
	return bad, nil
}

func spread(m, q1, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}

// values collects one metric across runs that report it.
func values(rs []*result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if mv, ok := r.Metrics[name]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

// relDelta is B's median relative to A's, in percent.
func relDelta(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (b - a) / math.Abs(a)
}

// better reports whether x is better than y under the metric's direction.
func better(def metricDef, x, y float64) bool {
	if def.Better == "higher" {
		return x > y
	}
	return x < y
}

// pairsWon is the share of pairs (A run i, B run i) in which B is better;
// ties count for neither side.
func pairsWon(def metricDef, ra, rb []*result) float64 {
	n := min(len(ra), len(rb))
	wins, pairs := 0, 0
	for i := 0; i < n; i++ {
		va, oka := ra[i].Metrics[def.Name]
		vb, okb := rb[i].Metrics[def.Name]
		if !oka || !okb {
			continue
		}
		pairs++
		if better(def, vb.Value, va.Value) {
			wins++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

// boundVerdict judges an end-to-end metric.  Regressed: B's median is worse
// than A's by more than the bound.  Improved: B wins at least nine pairs in
// ten and the medians differ by more than A's interquartile range.
// Unresolved: either side's spread exceeds the bound and not every B run
// beats every A run.  Otherwise no worse.
func boundVerdict(def metricDef, a, b []float64, won float64) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	worse := relDelta(ma, mb) / 100
	if def.Better == "higher" {
		worse = -worse
	}
	scale := math.Abs(ma)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(def, x, y)
		}
	}
	switch {
	case worse > def.Bound:
		return "regressed"
	case worse < 0 && won >= 0.9 && math.Abs(mb-ma) > qa3-qa1:
		return "improved"
	case scale > 0 && math.Max(qa3-qa1, qb3-qb1)/scale > def.Bound && !allBetter:
		return "unresolved"
	default:
		return "no worse"
	}
}

// exactVerdict checks that an exact metric reads the same in every pair of
// runs made with one seed.
func exactVerdict(name string, ra, rb []*result) string {
	n := min(len(ra), len(rb))
	compared := 0
	for i := 0; i < n; i++ {
		if ra[i].Seed != rb[i].Seed || ra[i].Scale != rb[i].Scale {
			continue
		}
		va, oka := ra[i].Metrics[name]
		vb, okb := rb[i].Metrics[name]
		if oka != okb || va.Value != vb.Value {
			return "changed"
		}
		compared++
	}
	if compared == 0 {
		return "n/a"
	}
	return "identical"
}
