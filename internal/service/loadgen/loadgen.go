// Package loadgen drives the ambit service API (internal/service) with
// multi-tenant workloads shaped like the paper's Section 8 applications —
// bitmap-index analytics and BitFunnel document filtering — over plain HTTP.
// It is the engine of cmd/ambitload and of the CI service smoke test: many
// tenants, each a namespace with its own quota, issuing concurrent loads,
// bulk operations, and popcount queries, with 429 rejections retried and
// counted rather than treated as failures (graceful degradation is part of
// the contract under test).
package loadgen

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal HTTP client for the /v1 namespace API.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8612".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) hc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the service.
type APIError struct {
	Status int
	Kind   string
	Msg    string
	// RetryAfter is the server-advised delay (zero when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: %d %s: %s", e.Status, e.Kind, e.Msg)
}

// Retryable reports whether the request was turned away transiently (429).
func (e *APIError) Retryable() bool { return e.Status == http.StatusTooManyRequests }

// do issues one request; a non-2xx response decodes into *APIError.
func (c *Client) do(method, path string, contentType string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := &APIError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
		var e struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Kind != "" {
			ae.Kind, ae.Msg = e.Kind, e.Error
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			ae.RetryAfter = time.Duration(ra) * time.Second
		}
		return ae
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func (c *Client) doJSON(method, path string, req, out any) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return err
		}
	}
	return c.do(method, path, "application/json", body, out)
}

// CreateNamespace creates ns with the given row quota (0 = server default,
// negative = unlimited).
func (c *Client) CreateNamespace(ns string, quotaRows int) error {
	return c.doJSON("PUT", "/v1/namespaces/"+ns, map[string]int{"quota_rows": quotaRows}, nil)
}

// DropNamespace drops ns and frees all its vectors.
func (c *Client) DropNamespace(ns string) error {
	return c.doJSON("DELETE", "/v1/namespaces/"+ns, nil, nil)
}

// CreateVector allocates a named bitvector of the given length.
func (c *Client) CreateVector(ns, vec string, bits int64) error {
	return c.doJSON("PUT", "/v1/namespaces/"+ns+"/vectors/"+vec, map[string]int64{"bits": bits}, nil)
}

// FreeVector frees a named bitvector.
func (c *Client) FreeVector(ns, vec string) error {
	return c.doJSON("DELETE", "/v1/namespaces/"+ns+"/vectors/"+vec, nil, nil)
}

// WriteData installs words into a vector; backdoor skips the simulated
// channel cost.
func (c *Client) WriteData(ns, vec string, words []uint64, backdoor bool) error {
	body := make([]byte, 0, 8*len(words))
	for _, w := range words {
		body = binary.LittleEndian.AppendUint64(body, w)
	}
	path := "/v1/namespaces/" + ns + "/vectors/" + vec + "/data"
	if backdoor {
		path += "?backdoor=1"
	}
	return c.do("PUT", path, "application/octet-stream", body, nil)
}

// ReadData fetches a vector's contents as words.
func (c *Client) ReadData(ns, vec string, backdoor bool) ([]uint64, error) {
	path := "/v1/namespaces/" + ns + "/vectors/" + vec + "/data"
	if backdoor {
		path += "?backdoor=1"
	}
	req, err := http.NewRequest("GET", c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("data length %d not a multiple of 8", len(raw))
	}
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return words, nil
}

// Op runs a bulk operation; b is ignored for unary ops ("not") and "fill"
// takes the bit via dst-only form FillOp.
func (c *Client) Op(ns, op, dst, a, b string) error {
	return c.doJSON("POST", "/v1/namespaces/"+ns+"/ops",
		map[string]string{"op": op, "dst": dst, "a": a, "b": b}, nil)
}

// Fill sets every bit of dst.
func (c *Client) Fill(ns, dst string, bit bool) error {
	return c.doJSON("POST", "/v1/namespaces/"+ns+"/ops",
		map[string]any{"op": "fill", "dst": dst, "bit": bit}, nil)
}

// Popcount counts the set bits of a vector in-namespace.
func (c *Client) Popcount(ns, vec string) (int64, error) {
	var out struct {
		Count int64 `json:"count"`
	}
	err := c.doJSON("POST", "/v1/namespaces/"+ns+"/query",
		map[string]string{"op": "popcount", "vector": vec}, &out)
	return out.Count, err
}

// ServiceStats fetches GET /v1/stats as a loosely typed map.
func (c *Client) ServiceStats() (map[string]any, error) {
	var out map[string]any
	err := c.doJSON("GET", "/v1/stats", nil, &out)
	return out, err
}

// MetricSamples fetches /metrics and returns every numeric sample keyed by
// its full series identity, labels included — the plain
// "ambit_svc_requests_total" next to the per-tenant
// `ambit_svc_requests_total{ns="bmi-0"}`.  Keys match the exposition text
// verbatim (labels sorted by key, values %q-quoted).
func (c *Client) MetricSamples() (map[string]float64, error) {
	resp, err := c.hc().Get(c.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return ParseSamples(string(raw)), nil
}

// ParseSamples parses Prometheus text exposition into MetricSamples' map:
// every numeric sample keyed by its series identity, labels included.
func ParseSamples(exposition string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything past the last space; the numeric value
		// itself never contains one, so the cut is safe even when a quoted
		// label value does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = f
	}
	return out
}

// WaitHealthy polls /healthz until the server answers or the deadline
// passes.
func (c *Client) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.hc().Get(c.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %v: %v", timeout, err)
			}
			return fmt.Errorf("server not healthy after %v", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
