package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layer names the boundary a span times.  Root spans (query, request) cover
// one query or request end to end; every other span is a call into one layer
// made by this program, around the public call it names.
type layer uint8

const (
	layerQuery       layer = iota // root: one library query
	layerRequest                  // root: one service request, as the client sees it
	layerApply                    // ambit.System bulk op (And, Or, Xor, ...)
	layerCopy                     // ambit.System.Copy
	layerFuncRun                  // ambit.Func.Run
	layerPopcount                 // ambit.System.Popcount
	layerMaj                      // ambit.System.Maj
	layerBatchRecord              // recording one query's ambit.Batch
	layerBatchRun                 // ambit.Batch.Run
	layerClient                   // net/http client: Do through the body read
	layerServeOp                  // service.Server.ServeHTTP, by route
	layerServeQuery
	layerServeDataRead
	layerServeDataWrite
	numLayers
)

var layerNames = [numLayers]string{
	"query", "request",
	"ambit.apply", "ambit.copy", "ambit.func_run", "ambit.popcount", "ambit.maj",
	"ambit.batch_record", "ambit.batch_run",
	"nethttp.client",
	"service.op", "service.query", "service.data_read", "service.data_write",
}

func (l layer) root() bool   { return l == layerQuery || l == layerRequest }
func (l layer) server() bool { return l >= layerServeOp }

// span is one timed interval.  Spans of one query share (tid, req); a
// server span is the child of the client span with the same (tid, req),
// which the service workload links through X-Request-ID.
type span struct {
	start, end int64 // ns since the clock's epoch
	req        uint32
	tid        uint8
	layer      layer
}

// clock is the monotonic time base every span of a run shares.
type clock struct{ epoch time.Time }

func newClock() clock { return clock{epoch: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// recorder keeps one caller goroutine's spans in memory.  A nil recorder is
// an untraced query: begin and end then cost a nil check.
type recorder struct {
	clock
	tid   uint8
	req   uint32 // the query in progress
	spans []span
}

// newRecorder preallocates room for capHint spans, so recording allocates
// nothing while the run is timed.
func newRecorder(c clock, tid uint8, capHint int) *recorder {
	return &recorder{clock: c, tid: tid, spans: make([]span, 0, capHint)}
}

func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

func (r *recorder) end(l layer, start int64) {
	if r == nil {
		return
	}
	r.add(l, start, r.now())
}

func (r *recorder) add(l layer, start, end int64) {
	r.spans = append(r.spans, span{start: start, end: end, req: r.req, tid: r.tid, layer: l})
}

// serverRecorder collects server spans from the connection goroutines.
type serverRecorder struct {
	mu    sync.Mutex
	spans []span
}

func (s *serverRecorder) add(sp span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	durs  []int64
	total int64
	self  int64 // total minus the time its child spans cover
}

func (s *layerStat) add(dur, childNS int64) {
	s.durs = append(s.durs, dur)
	s.total += dur
	s.self += dur - childNS
}

// traceSummary is the per-layer breakdown of a traced run.
type traceSummary struct {
	layers [numLayers]layerStat
	// transport holds each traced request's client time outside ServeHTTP.
	transport []int64
	// rootNS and childNS sum root durations and the time their direct
	// children cover; childNS/rootNS is the layer coverage.
	rootNS, childNS int64
}

// summarize joins client and server spans.  Each client goroutine appends a
// query's child spans before its root span, so a root closes the group.
func summarize(clients [][]span, server []span) *traceSummary {
	ts := &traceSummary{}
	serverDur := make(map[uint64]int64, len(server))
	for _, sp := range server {
		serverDur[uint64(sp.tid)<<32|uint64(sp.req)] = sp.end - sp.start
		ts.layers[sp.layer].add(sp.end-sp.start, 0)
	}
	for _, spans := range clients {
		var children int64
		for _, sp := range spans {
			dur := sp.end - sp.start
			if sp.layer.root() {
				ts.layers[sp.layer].add(dur, children)
				ts.rootNS += dur
				ts.childNS += children
				children = 0
				continue
			}
			children += dur
			var inner int64
			if sp.layer == layerClient {
				inner = serverDur[uint64(sp.tid)<<32|uint64(sp.req)]
				ts.transport = append(ts.transport, dur-inner)
			}
			ts.layers[sp.layer].add(dur, inner)
		}
	}
	return ts
}

// coveragePct is the share of root-span time the named layer spans cover.
func (ts *traceSummary) coveragePct() float64 {
	if ts.rootNS == 0 {
		return 0
	}
	return 100 * float64(ts.childNS) / float64(ts.rootNS)
}

// print writes the per-layer table: count, total, self time and p50/p99.
func (ts *traceSummary) print(w io.Writer) {
	fmt.Fprintf(w, "  %-20s %9s %11s %11s %10s %10s\n", "layer", "count", "total_ms", "self_ms", "p50_us", "p99_us")
	for l := layer(0); l < numLayers; l++ {
		st := &ts.layers[l]
		if len(st.durs) == 0 {
			continue
		}
		q := nsQuantiles(st.durs, 0.5, 0.99)
		fmt.Fprintf(w, "  %-20s %9d %11.3f %11.3f %10.2f %10.2f\n", layerNames[l], len(st.durs),
			float64(st.total)/1e6, float64(st.self)/1e6, q[0], q[1])
	}
	if len(ts.transport) > 0 {
		q := nsQuantiles(ts.transport, 0.5, 0.99)
		fmt.Fprintf(w, "  %-20s %9d %11s %11s %10.2f %10.2f\n", "nethttp.transport", len(ts.transport), "", "", q[0], q[1])
	}
	fmt.Fprintf(w, "  layer coverage of root-span time: %.2f%%\n", ts.coveragePct())
}

// setLayerMetrics records each layer's calls per query and share of query
// time.
func (ts *traceSummary) setLayerMetrics(r *result) {
	roots := len(ts.layers[layerQuery].durs) + len(ts.layers[layerRequest].durs)
	share := func(ns int64) float64 {
		if ts.rootNS == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(ts.rootNS)
	}
	for i, name := range callLayers {
		st := &ts.layers[layerApply+layer(i)]
		if roots > 0 {
			r.set("ambit."+name+".calls_per_op", float64(len(st.durs))/float64(roots))
		}
		r.set("ambit."+name+".share_pct", share(st.total))
	}
	var serveNS int64
	for i, name := range serviceRoutes {
		st := &ts.layers[layerServeOp+layer(i)]
		r.set("service."+name+".share_pct", share(st.total))
		serveNS += st.total
	}
	r.set("service.serve.share_pct", share(serveNS))
	var transportNS int64
	for _, d := range ts.transport {
		transportNS += d
	}
	r.set("nethttp.transport_share_pct", share(transportNS))
	r.set("trace.coverage_pct", ts.coveragePct())
}

// maxChromeSpans caps the spans written to the Chrome trace file; the
// per-layer summary always covers every span.
const maxChromeSpans = 200_000

// writeChrome writes spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto).  Server spans sit on their own track (tid 100+client).
func writeChrome(path string, clients [][]span, server []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	n := 0
	emit := func(sp span) {
		if n >= maxChromeSpans {
			return
		}
		if n > 0 {
			fmt.Fprint(w, ",\n")
		}
		n++
		tid, parent := int(sp.tid), "query"
		switch {
		case sp.layer.root():
			parent = ""
		case sp.layer.server():
			tid, parent = 100+int(sp.tid), "nethttp.client"
		case sp.layer == layerClient:
			parent = "request"
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"req":"%d-%d","parent":%q}}`,
			layerNames[sp.layer], float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, tid, sp.tid, sp.req, parent)
	}
	for _, spans := range clients {
		for _, sp := range spans {
			emit(sp)
		}
	}
	for _, sp := range server {
		emit(sp)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
