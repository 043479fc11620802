// Package loadgen is the edb-serve load generator: a well-behaved
// client (it honors Retry-After, sends hash-only submissions when it
// can, and backs off on shed) plus a thread-safe report aggregating
// latency quantiles, failure counts, dedupe hits, and per-submission
// result-hash consistency — the soak gate's evidence that a loaded
// multi-tenant server answers every request correctly.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"edb/internal/serve"
)

// Client submits replay requests to one edb-serve instance on behalf
// of one tenant.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant is sent as X-EDB-Tenant.
	Tenant string
	// DeadlineMS is sent as X-EDB-Deadline-Ms when > 0.
	DeadlineMS int64
	// MaxAttempts bounds retries of shed requests (429/503 with
	// Retry-After); 0 means 5.
	MaxAttempts int
	// Path is the endpoint to POST to; "" means "/v1/replay". Session
	// mutations go to "/v1/session".
	Path string
	// HTTP is the transport; nil uses a dedicated client.
	HTTP *http.Client
}

// Result is one submission's outcome.
type Result struct {
	Code      int
	Cached    bool
	ResultSHA string
	Sessions  int
	Latency   time.Duration
	Attempts  int
	Err       error
	// Injected and Kind echo the server's fault taxonomy when the
	// failure was an injected fault — chaos drills assert on them.
	Injected bool
	Kind     string
}

// Failed reports whether the submission ultimately failed.
func (r *Result) Failed() bool { return r.Err != nil || r.Code != http.StatusOK }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 5
}

// Submit uploads one envelope (full when traceBytes is non-nil,
// hash-only otherwise), retrying shed responses per their
// Retry-After. It never retries 4xx other than 429.
func (c *Client) Submit(ctx context.Context, hdr *serve.RequestHeader, traceBytes []byte) *Result {
	var env bytes.Buffer
	if err := serve.EncodeRequest(&env, hdr, traceBytes); err != nil {
		return &Result{Err: err}
	}
	start := time.Now()
	res := &Result{}
	for attempt := 1; attempt <= c.maxAttempts(); attempt++ {
		res.Attempts = attempt
		code, retryAfter, err := c.once(ctx, env.Bytes(), res)
		res.Code = code
		res.Err = err
		res.Latency = time.Since(start)
		if err == nil && code == http.StatusOK {
			return res
		}
		if code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
			return res
		}
		select {
		case <-time.After(retryAfter):
		case <-ctx.Done():
			res.Err = ctx.Err()
			return res
		}
	}
	if res.Err == nil {
		res.Err = fmt.Errorf("loadgen: %d attempts exhausted (last code %d)", c.maxAttempts(), res.Code)
	}
	return res
}

// SubmitHashFirst tries a hash-only submission and falls back to the
// full upload on 404 — the dedupe-friendly strategy: at most one copy
// of the trace crosses the wire per content hash.
func (c *Client) SubmitHashFirst(ctx context.Context, hdr *serve.RequestHeader, traceBytes []byte, hash string) *Result {
	ho := *hdr
	ho.ContentSHA256 = hash
	res := c.Submit(ctx, &ho, nil)
	if res.Code == http.StatusNotFound {
		full := res.Attempts
		res = c.Submit(ctx, &ho, traceBytes)
		res.Attempts += full
	}
	return res
}

// once performs a single HTTP exchange, parsing the JSONL stream into
// res on success. Returns the status code and the server's suggested
// retry delay for shed responses.
func (c *Client) once(ctx context.Context, envelope []byte, res *Result) (int, time.Duration, error) {
	path := c.Path
	if path == "" {
		path = "/v1/replay"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(envelope))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("X-EDB-Tenant", c.Tenant)
	if c.DeadlineMS > 0 {
		req.Header.Set("X-EDB-Deadline-Ms", strconv.FormatInt(c.DeadlineMS, 10))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var body struct {
			Error    string `json:"error"`
			Injected bool   `json:"injected"`
			Kind     string `json:"kind"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		res.Injected, res.Kind = body.Injected, body.Kind
		retry := retryAfterOf(resp)
		if body.Error != "" {
			return resp.StatusCode, retry, fmt.Errorf("loadgen: HTTP %d: %s", resp.StatusCode, body.Error)
		}
		return resp.StatusCode, retry, fmt.Errorf("loadgen: HTTP %d", resp.StatusCode)
	}
	return resp.StatusCode, 0, c.parseStream(resp, res)
}

// parseStream walks the JSONL response; a stream without a trailer
// (respond-path fault) or with an in-band error line is a failure.
func (c *Client) parseStream(resp *http.Response, res *Result) error {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var line struct {
		Error     string `json:"error"`
		Injected  bool   `json:"injected"`
		Kind      string `json:"kind"`
		Cached    *bool  `json:"cached"`
		Index     *int   `json:"index"`
		ResultSHA string `json:"result_sha"`
	}
	sawTrailer := false
	for sc.Scan() {
		line.Error, line.Injected, line.Kind = "", false, ""
		line.Cached, line.Index, line.ResultSHA = nil, nil, ""
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("loadgen: bad stream line: %w", err)
		}
		switch {
		case line.Error != "":
			res.Injected, res.Kind = line.Injected, line.Kind
			return fmt.Errorf("loadgen: in-band error: %s", line.Error)
		case line.Cached != nil:
			res.Cached = *line.Cached
		case line.Index != nil:
			res.Sessions++
		case line.ResultSHA != "":
			res.ResultSHA = line.ResultSHA
			sawTrailer = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("loadgen: reading stream: %w", err)
	}
	if !sawTrailer {
		return fmt.Errorf("loadgen: stream ended without a trailer")
	}
	return nil
}

// retryAfterOf reads the server's suggested delay, preferring the
// millisecond-precision extension header.
func retryAfterOf(resp *http.Response) time.Duration {
	if ms := resp.Header.Get("X-EDB-Retry-After-Ms"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return time.Duration(v) * time.Second
		}
	}
	return 50 * time.Millisecond
}

// Report aggregates submission outcomes across goroutines.
type Report struct {
	mu        sync.Mutex
	latencies []time.Duration
	total     int
	failures  int
	cached    int
	attempts  int
	// resultsBySpec maps a submission hash to the set of distinct
	// result hashes observed for it — more than one is a determinism
	// violation.
	resultsBySpec map[string]map[string]bool
	failErrs      []error
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{resultsBySpec: make(map[string]map[string]bool)}
}

// Record folds one submission outcome in. specHash keys the
// result-consistency check (use the submission's content hash).
func (r *Report) Record(specHash string, res *Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.attempts += res.Attempts
	if res.Failed() {
		r.failures++
		if len(r.failErrs) < 8 && res.Err != nil {
			r.failErrs = append(r.failErrs, res.Err)
		}
		return
	}
	r.latencies = append(r.latencies, res.Latency)
	if res.Cached {
		r.cached++
	}
	set := r.resultsBySpec[specHash]
	if set == nil {
		set = make(map[string]bool)
		r.resultsBySpec[specHash] = set
	}
	set[res.ResultSHA] = true
}

// Summary is a report's aggregate view.
type Summary struct {
	Total    int     `json:"total"`
	Failures int     `json:"failures"`
	Cached   int     `json:"cached"`
	Attempts int     `json:"attempts"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
	// InconsistentSpecs counts submissions whose repeats disagreed on
	// the result hash; determinism demands zero.
	InconsistentSpecs int `json:"inconsistent_specs"`
}

// Summarize computes the aggregate view.
func (r *Report) Summarize() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{Total: r.total, Failures: r.failures, Cached: r.cached, Attempts: r.attempts}
	for _, set := range r.resultsBySpec {
		if len(set) > 1 {
			s.InconsistentSpecs++
		}
	}
	if len(r.latencies) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return float64(sorted[i].Microseconds()) / 1000
	}
	s.P50MS, s.P99MS, s.MaxMS = q(0.50), q(0.99), q(1.0)
	return s
}

// Errors returns a sample of recorded failure causes (at most 8).
func (r *Report) Errors() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.failErrs...)
}
