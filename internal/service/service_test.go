package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ambit"
)

func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server, *ambit.System) {
	t.Helper()
	sys, err := ambit.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc := New(sys, cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		sys.Close()
	})
	return svc, ts, sys
}

// do issues one request and returns status + body.
func do(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func wordsToBytes(words []uint64) []byte {
	out := make([]byte, 0, 8*len(words))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

func bytesToWords(t *testing.T, b []byte) []uint64 {
	t.Helper()
	if len(b)%8 != 0 {
		t.Fatalf("body length %d not a multiple of 8", len(b))
	}
	words := make([]uint64, len(b)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return words
}

func errKind(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return e.Kind
}

// TestServiceBasicFlow walks the full API surface once: namespace, vectors,
// data in (backdoor), op, query, data out, func compile/run, free, drop.
func TestServiceBasicFlow(t *testing.T) {
	_, ts, sys := newTestService(t, Config{})
	base := ts.URL + "/v1/namespaces/t0"

	if st, b, _ := do(t, "PUT", base, mustJSON(t, map[string]int{"quota_rows": 64})); st != http.StatusCreated {
		t.Fatalf("ns create: %d %s", st, b)
	}
	// Duplicate create conflicts.
	if st, b, _ := do(t, "PUT", base, nil); st != http.StatusConflict || errKind(t, b) != "conflict" {
		t.Fatalf("duplicate ns create: %d %s", st, b)
	}

	bits := int64(sys.RowSizeBits())
	for _, name := range []string{"a", "b", "c"} {
		if st, b, _ := do(t, "PUT", base+"/vectors/"+name, mustJSON(t, map[string]int64{"bits": bits})); st != http.StatusCreated {
			t.Fatalf("vec create %s: %d %s", name, st, b)
		}
	}

	rng := rand.New(rand.NewSource(7))
	words := sys.RowSizeBits() / 64
	aw := make([]uint64, words)
	bw := make([]uint64, words)
	for i := range aw {
		aw[i], bw[i] = rng.Uint64(), rng.Uint64()
	}
	if st, b, _ := do(t, "PUT", base+"/vectors/a/data?backdoor=1", wordsToBytes(aw)); st != http.StatusOK {
		t.Fatalf("write a: %d %s", st, b)
	}
	if st, b, _ := do(t, "PUT", base+"/vectors/b/data?backdoor=1", wordsToBytes(bw)); st != http.StatusOK {
		t.Fatalf("write b: %d %s", st, b)
	}

	if st, b, _ := do(t, "POST", base+"/ops", mustJSON(t, map[string]string{"op": "xor", "dst": "c", "a": "a", "b": "b"})); st != http.StatusOK {
		t.Fatalf("xor: %d %s", st, b)
	}
	st, body, _ := do(t, "GET", base+"/vectors/c/data?backdoor=1", nil)
	if st != http.StatusOK {
		t.Fatalf("read c: %d %s", st, body)
	}
	got := bytesToWords(t, body)
	var wantPop int64
	for i := range got {
		want := aw[i] ^ bw[i]
		if got[i] != want {
			t.Fatalf("c[%d] = %#x, want %#x", i, got[i], want)
		}
		for w := want; w != 0; w &= w - 1 {
			wantPop++
		}
	}

	st, body, _ = do(t, "POST", base+"/query", mustJSON(t, map[string]string{"op": "popcount", "vector": "c"}))
	if st != http.StatusOK {
		t.Fatalf("popcount: %d %s", st, body)
	}
	var pc struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(body, &pc); err != nil || pc.Count != wantPop {
		t.Fatalf("popcount = %s (err %v), want %d", body, err, wantPop)
	}

	// Compiled func: c = maj(a, b, a&b) == a AND b here; use xor+not.
	fn := map[string]any{"outputs": []map[string]any{
		{"xnor": []map[string]any{{"var": 0}, {"var": 1}}},
	}}
	if st, b, _ := do(t, "PUT", base+"/funcs/eq", mustJSON(t, fn)); st != http.StatusCreated {
		t.Fatalf("compile: %d %s", st, b)
	}
	run := map[string]any{"dsts": []string{"c"}, "srcs": []string{"a", "b"}}
	if st, b, _ := do(t, "POST", base+"/funcs/eq/run", mustJSON(t, run)); st != http.StatusOK {
		t.Fatalf("func run: %d %s", st, b)
	}
	st, body, _ = do(t, "GET", base+"/vectors/c/data?backdoor=1", nil)
	if st != http.StatusOK {
		t.Fatalf("read c: %d %s", st, body)
	}
	for i, w := range bytesToWords(t, body) {
		if want := ^(aw[i] ^ bw[i]); w != want {
			t.Fatalf("xnor c[%d] = %#x, want %#x", i, w, want)
		}
	}

	if st, b, _ := do(t, "DELETE", base+"/vectors/a", nil); st != http.StatusOK {
		t.Fatalf("free a: %d %s", st, b)
	}
	if st, b, _ := do(t, "GET", base+"/vectors/a/data", nil); st != http.StatusNotFound {
		t.Fatalf("read freed a: %d %s", st, b)
	}
	if st, b, _ := do(t, "DELETE", base, nil); st != http.StatusOK {
		t.Fatalf("ns drop: %d %s", st, b)
	}
	if st, _, _ := do(t, "GET", base, nil); st != http.StatusNotFound {
		t.Fatalf("dropped ns still visible: %d", st)
	}
}

// TestServiceErrorMapping checks the documented status/kind mapping for the
// common client mistakes.
func TestServiceErrorMapping(t *testing.T) {
	_, ts, sys := newTestService(t, Config{})
	base := ts.URL + "/v1/namespaces"

	st, b, _ := do(t, "GET", base+"/nope", nil)
	if st != http.StatusNotFound || errKind(t, b) != "not_found" {
		t.Fatalf("unknown ns: %d %s", st, b)
	}
	if st, b, _ = do(t, "PUT", base+"/bad name", nil); st != http.StatusBadRequest {
		t.Fatalf("bad ns name: %d %s", st, b)
	}
	if st, b, _ = do(t, "PUT", base+"/t", nil); st != http.StatusCreated {
		t.Fatalf("ns create: %d %s", st, b)
	}
	if st, b, _ = do(t, "PUT", base+"/t/vectors/v", mustJSON(t, map[string]int64{"bits": 128})); st != http.StatusCreated {
		t.Fatalf("vec create: %d %s", st, b)
	}
	// Body not a multiple of 8 bytes.
	if st, b, _ = do(t, "PUT", base+"/t/vectors/v/data", []byte{1, 2, 3}); st != http.StatusBadRequest {
		t.Fatalf("ragged write: %d %s", st, b)
	}
	// Unknown op name.
	if st, b, _ = do(t, "POST", base+"/t/ops", mustJSON(t, map[string]string{"op": "frobnicate", "dst": "v"})); st != http.StatusBadRequest {
		t.Fatalf("unknown op: %d %s", st, b)
	}
	// Shape mismatch (2 rows vs 1) is rejected by the library, maps to 400.
	if st, b, _ = do(t, "PUT", base+"/t/vectors/w", mustJSON(t, map[string]int64{"bits": int64(sys.RowSizeBits()) + 1})); st != http.StatusCreated {
		t.Fatalf("vec create: %d %s", st, b)
	}
	st, b, _ = do(t, "POST", base+"/t/ops", mustJSON(t, map[string]string{"op": "xor", "dst": "v", "a": "w", "b": "w"}))
	if st != http.StatusBadRequest || errKind(t, b) != "bad_request" {
		t.Fatalf("shape-mismatched xor: %d %s", st, b)
	}
}

// TestServiceQuotaExhaustion exercises the per-tenant row quota: allocation
// beyond the budget fails with 429/quota_exceeded and nothing allocated;
// freeing credits the rows back.
func TestServiceQuotaExhaustion(t *testing.T) {
	_, ts, sys := newTestService(t, Config{})
	base := ts.URL + "/v1/namespaces/tenant"
	rowBits := int64(sys.RowSizeBits())

	if st, b, _ := do(t, "PUT", base, mustJSON(t, map[string]int{"quota_rows": 2})); st != http.StatusCreated {
		t.Fatalf("ns create: %d %s", st, b)
	}
	if st, b, _ := do(t, "PUT", base+"/vectors/big", mustJSON(t, map[string]int64{"bits": 2 * rowBits})); st != http.StatusCreated {
		t.Fatalf("2-row alloc inside quota: %d %s", st, b)
	}
	st, b, _ := do(t, "PUT", base+"/vectors/over", mustJSON(t, map[string]int64{"bits": 1}))
	if st != http.StatusTooManyRequests || errKind(t, b) != "quota_exceeded" {
		t.Fatalf("over-quota alloc: %d %s", st, b)
	}
	// The failed allocation must not leak a vector.
	if st, b, _ = do(t, "GET", base+"/vectors/over", nil); st != http.StatusNotFound {
		t.Fatalf("phantom vector: %d %s", st, b)
	}
	// Freeing credits the quota back.
	if st, b, _ = do(t, "DELETE", base+"/vectors/big", nil); st != http.StatusOK {
		t.Fatalf("free: %d %s", st, b)
	}
	if st, b, _ = do(t, "PUT", base+"/vectors/again", mustJSON(t, map[string]int64{"bits": 2 * rowBits})); st != http.StatusCreated {
		t.Fatalf("post-free alloc: %d %s", st, b)
	}
	var info nsInfo
	st, b, _ = do(t, "GET", base, nil)
	if st != http.StatusOK {
		t.Fatalf("ns info: %d %s", st, b)
	}
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatalf("ns info: %v", err)
	}
	if info.UsedRows != 2 || info.QuotaRows != 2 {
		t.Fatalf("quota accounting: used %d of %d, want 2 of 2", info.UsedRows, info.QuotaRows)
	}
}

// TestServiceAdmissionRejection drives the bounded queue to overflow: with
// the single execution slot held and the queue full, the next request is
// turned away immediately with 429 + Retry-After, and a queued request that
// outlives MaxWait degrades the same way.
func TestServiceAdmissionRejection(t *testing.T) {
	svc, ts, _ := newTestService(t, Config{
		MaxInflight:         1,
		MaxQueue:            1,
		MaxWait:             100 * time.Millisecond,
		SaturationThreshold: -1, // isolate the queue from the saturation veto
	})

	// Occupy the only execution slot.
	release, err := svc.adm.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	// Fill the queue with one waiter.
	waiterErr := make(chan error, 1)
	go func() {
		rel, err := svc.adm.acquire(context.Background())
		if err == nil {
			rel()
		}
		waiterErr <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.adm.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next HTTP request is rejected fast.
	st, b, hdr := do(t, "PUT", ts.URL+"/v1/namespaces/t", nil)
	if st != http.StatusTooManyRequests || errKind(t, b) != "saturated" {
		t.Fatalf("overflow request: %d %s", st, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The queued waiter times out with a saturation error.
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ambit.ErrSaturated) {
			t.Fatalf("queued waiter error = %v, want ErrSaturated", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter never timed out")
	}

	// Releasing the slot restores service.
	release()
	if st, b, _ := do(t, "PUT", ts.URL+"/v1/namespaces/t", nil); st != http.StatusCreated {
		t.Fatalf("post-release request: %d %s", st, b)
	}
	if got := svc.reg.Counter("svc_rejected_saturated"); got < 1 {
		t.Fatalf("svc_rejected_saturated_total = %d, want >= 1", got)
	}
}

// TestServiceConcurrentLifecycle races namespace and vector lifecycle
// against data-plane traffic from many clients (run under -race in CI).
// Every response must be one of the documented statuses — never a 500.
func TestServiceConcurrentLifecycle(t *testing.T) {
	_, ts, sys := newTestService(t, Config{MaxInflight: 8, MaxQueue: 256, MaxWait: 10 * time.Second})
	rowBits := int64(sys.RowSizeBits())
	client := ts.Client()

	req := func(method, url string, body []byte) (int, string) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		r, err := http.NewRequest(method, url, rd)
		if err != nil {
			return 0, err.Error()
		}
		resp, err := client.Do(r)
		if err != nil {
			return 0, err.Error()
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusCreated: true,
		http.StatusNotFound: true, http.StatusConflict: true,
		http.StatusTooManyRequests: true,
	}

	const workers = 8
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan string, workers*iters*16)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers fight over one shared namespace; the rest
			// own a private one.
			ns := fmt.Sprintf("shared-%d", w%2)
			base := ts.URL + "/v1/namespaces/" + ns
			check := func(st int, body string) {
				if !allowed[st] {
					errc <- fmt.Sprintf("worker %d: status %d: %s", w, st, body)
				}
			}
			for i := 0; i < iters; i++ {
				check(req("PUT", base, nil))
				vec := fmt.Sprintf("v%d", w)
				check(req("PUT", base+"/vectors/"+vec, mustJSON(t, map[string]int64{"bits": rowBits})))
				data := wordsToBytes(make([]uint64, int(rowBits)/64))
				check(req("PUT", base+"/vectors/"+vec+"/data?backdoor=1", data))
				check(req("POST", base+"/ops", mustJSON(t, map[string]string{"op": "not", "dst": vec, "a": vec})))
				check(req("POST", base+"/query", mustJSON(t, map[string]string{"op": "popcount", "vector": vec})))
				check(req("DELETE", base+"/vectors/"+vec, nil))
				if i%3 == 2 {
					check(req("DELETE", base, nil))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
}

// TestServiceLibraryDifferential is the oracle for the whole serving layer:
// the same workload driven once through the HTTP API and once through the
// library must produce byte-identical vector contents AND identical
// simulated Stats — the service may add no hidden simulated work.
func TestServiceLibraryDifferential(t *testing.T) {
	// Service side.
	_, ts, svcSys := newTestService(t, Config{})
	base := ts.URL + "/v1/namespaces/t"
	// Library side: an identical fresh system.
	libSys, err := ambit.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer libSys.Close()

	rowBits := int64(svcSys.RowSizeBits())
	bits := 2*rowBits - 64 // partial final row: exercises the scratch path
	words := int((bits + 63) / 64)
	rng := rand.New(rand.NewSource(42))
	aw := make([]uint64, words)
	bw := make([]uint64, words)
	for i := range aw {
		aw[i], bw[i] = rng.Uint64(), rng.Uint64()
	}

	// --- service run ---
	if st, b, _ := do(t, "PUT", base, nil); st != http.StatusCreated {
		t.Fatalf("ns create: %d %s", st, b)
	}
	for _, name := range []string{"a", "b", "c"} {
		if st, b, _ := do(t, "PUT", base+"/vectors/"+name, mustJSON(t, map[string]int64{"bits": bits})); st != http.StatusCreated {
			t.Fatalf("vec create: %d %s", st, b)
		}
	}
	// Costed channel writes (no backdoor): the differential covers transfer
	// accounting too.
	if st, b, _ := do(t, "PUT", base+"/vectors/a/data", wordsToBytes(aw)); st != http.StatusOK {
		t.Fatalf("write a: %d %s", st, b)
	}
	if st, b, _ := do(t, "PUT", base+"/vectors/b/data", wordsToBytes(bw)); st != http.StatusOK {
		t.Fatalf("write b: %d %s", st, b)
	}
	for _, op := range []string{"and", "xor", "nor"} {
		if st, b, _ := do(t, "POST", base+"/ops", mustJSON(t, map[string]string{"op": op, "dst": "c", "a": "a", "b": "b"})); st != http.StatusOK {
			t.Fatalf("%s: %d %s", op, st, b)
		}
	}
	if st, b, _ := do(t, "POST", base+"/query", mustJSON(t, map[string]string{"op": "popcount", "vector": "c"})); st != http.StatusOK {
		t.Fatalf("popcount: %d %s", st, b)
	}
	st, svcBytes, _ := do(t, "GET", base+"/vectors/c/data", nil)
	if st != http.StatusOK {
		t.Fatalf("read c: %d %s", st, svcBytes)
	}
	svcStats := svcSys.Stats()

	// --- library run (first namespace gets base slot 0, so AllocAt(, 0)
	// reproduces the service's placement exactly) ---
	var lib [3]*ambit.Bitvector
	for i := range lib {
		if lib[i], err = libSys.AllocAt(bits, 0); err != nil {
			t.Fatalf("AllocAt: %v", err)
		}
	}
	la, lb, lc := lib[0], lib[1], lib[2]
	if err := la.Write(aw); err != nil {
		t.Fatalf("Write a: %v", err)
	}
	if err := lb.Write(bw); err != nil {
		t.Fatalf("Write b: %v", err)
	}
	if err := libSys.And(lc, la, lb); err != nil {
		t.Fatalf("And: %v", err)
	}
	if err := libSys.Xor(lc, la, lb); err != nil {
		t.Fatalf("Xor: %v", err)
	}
	if err := libSys.Nor(lc, la, lb); err != nil {
		t.Fatalf("Nor: %v", err)
	}
	if _, err := libSys.Popcount(lc); err != nil {
		t.Fatalf("Popcount: %v", err)
	}
	// The service's GET data plane serializes from the zero-copy views, so
	// the mirror must read — and charge — the same way.
	libWords := make([]uint64, 0, lc.WordCount())
	if err := lc.ViewWords(func(views [][]uint64) error {
		for _, row := range views {
			libWords = append(libWords, row...)
		}
		return nil
	}); err != nil {
		t.Fatalf("ViewWords: %v", err)
	}
	libStats := libSys.Stats()

	if !bytes.Equal(svcBytes, wordsToBytes(libWords)) {
		t.Fatal("service and library runs produced different vector contents")
	}
	if !reflect.DeepEqual(svcStats, libStats) {
		t.Fatalf("service and library Stats diverge:\nservice: %+v\nlibrary: %+v", svcStats, libStats)
	}
}

// spillExpr returns a function needing seven live values at once, one more
// than the designated rows hold: seven pairwise ANDs, each combined with
// every other (as internal/compile's TestCompileSpillReport builds it).
func spillExpr() string {
	ps := make([]string, 7)
	for i := range ps {
		ps[i] = fmt.Sprintf(`{"and":[{"var":%d},{"var":%d}]}`, 2*i, 2*i+1)
	}
	var qs []string
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			qs = append(qs, `{"and":[`+ps[i]+`,`+ps[j]+`]}`)
		}
	}
	return `{"or":[` + strings.Join(qs, ",") + `]}`
}

// TestFuncCompileRejectsUncompilable: a function that cannot compile is a
// bad request, not a server error — one naming a variable index far past the
// operand limit (rejected without allocating per input) and one needing more
// live values than the designated rows hold.
func TestFuncCompileRejectsUncompilable(t *testing.T) {
	_, ts, _ := newTestService(t, Config{})
	base := ts.URL + "/v1/namespaces/t0"
	if st, b, _ := do(t, "PUT", base, nil); st != http.StatusCreated {
		t.Fatalf("ns create: %d %s", st, b)
	}
	for name, body := range map[string]string{
		"big":   `{"outputs":[{"var":4194304}]}`,
		"spill": `{"outputs":[` + spillExpr() + `]}`,
	} {
		st, b, _ := do(t, "PUT", base+"/funcs/"+name, []byte(body))
		if st != http.StatusBadRequest || errKind(t, b) != "bad_request" {
			t.Errorf("compile %s: %d %.200s, want 400 bad_request", name, st, b)
		}
	}
}

// exprParseGood and exprParseBad are the wire expressions TestExprParse
// checks, and FuzzParseExpr's seed corpus; each bad one maps to a fragment of
// its error.
var (
	exprParseGood = []string{
		`{"var": 3}`,
		`{"lit": true}`,
		`{"not": {"var": 0}}`,
		`{"and": [{"var": 0}, {"var": 1}, {"var": 2}]}`,
		`{"maj": [{"var": 0}, {"var": 1}, {"lit": false}]}`,
		`{"xnor": [{"var": 0}, {"nand": [{"var": 1}, {"var": 2}]}]}`,
	}
	exprParseBad = map[string]string{
		`{}`:                                "exactly one",
		`{"var": 0, "lit": true}`:           "exactly one",
		`{"var": -1}`:                       "negative",
		`{"maj": [{"var": 0}, {"var": 1}]}`: "exactly 3",
		`{"and": []}`:                       "at least one",
	}
)

// TestExprParse covers the wire-format validation corners.
func TestExprParse(t *testing.T) {
	parse := func(s string) (*ambit.Expr, error) {
		var e exprJSON
		if err := json.Unmarshal([]byte(s), &e); err != nil {
			t.Fatalf("unmarshal %q: %v", s, err)
		}
		return e.parse()
	}
	for _, s := range exprParseGood {
		if _, err := parse(s); err != nil {
			t.Errorf("parse(%s): %v", s, err)
		}
	}
	for s, frag := range exprParseBad {
		_, err := parse(s)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("parse(%s) = %v, want error containing %q", s, err, frag)
		}
	}
}

// FuzzParseExpr drives arbitrary bytes through the function wire format:
// decode into exprJSON, parse, and compile on one System.  Nothing may
// panic, and an input either yields a result or comes back as an error.
func FuzzParseExpr(f *testing.F) {
	for _, s := range exprParseGood {
		f.Add([]byte(s))
	}
	for s := range exprParseBad {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"var":4194304}`))
	f.Add([]byte(spillExpr()))
	sys, err := ambit.New()
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { sys.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		var e exprJSON
		if json.Unmarshal(data, &e) != nil {
			return
		}
		x, err := e.parse()
		if err != nil {
			return
		}
		if x == nil {
			t.Fatalf("parse(%q) returned neither an expression nor an error", data)
		}
		if fn, err := sys.Compile("fuzz", x); err == nil && fn == nil {
			t.Fatalf("Compile(%q) returned neither a function nor an error", data)
		}
	})
}
