// Package serve is the edb-serve daemon core: a survivable
// multi-tenant breakpoint service. Clients POST trace + session-set
// submissions (the EDBS envelope, proto.go) to /v1/replay and receive
// a streamed JSONL result; /v1/experiment runs the full experiment
// pipeline through the same admission pool. Survivability is the
// organizing principle — every layer between the socket and the
// replay core exists to keep the service answering under overload,
// partial failure, and hostile input:
//
//	rate limit → quota → breaker → admission → retry → store
//
// with per-tenant isolation at each stage, deadlines propagated from
// header to replay, graceful drain on SIGTERM, and a crash-safe
// content-addressed artifact store deduping identical submissions
// across tenants.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"edb/internal/exp"
	"edb/internal/fault"
	"edb/internal/obsv"
)

// Config parameterises a Server. The zero value serves with sane
// defaults: GOMAXPROCS pool capacity, 64 queued requests per tenant,
// no rate limits, a 30s default deadline, one transient retry.
type Config struct {
	// Addr is the listen address ("" = 127.0.0.1:0, ephemeral).
	Addr string
	// Workers is the shared admission pool capacity (<= 0 =
	// GOMAXPROCS). It bounds concurrently-replaying submissions across
	// all tenants.
	Workers int
	// QueuePerTenant bounds each tenant's admission wait queue
	// (0 = default 64; < 0 = unbounded).
	QueuePerTenant int

	// Tenants holds explicit per-tenant policy; DefaultTenant applies
	// to tenants not listed (the zero value = no rate limit, no quota).
	Tenants       map[string]TenantConfig
	DefaultTenant TenantConfig

	// MaxRequestBytes bounds an uploaded envelope (<= 0 =
	// DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// MaxBodyBuffer bounds how much of a request body is held in
	// memory (<= 0 = DefaultMaxBodyBuffer). Larger envelopes switch to
	// the incremental decoder: the trace frame spools to disk and
	// replays through the streamed engine, so peak memory stays near
	// this bound however large the upload (up to MaxRequestBytes).
	MaxBodyBuffer int64
	// DefaultDeadline applies when the client sends no
	// X-EDB-Deadline-Ms header (<= 0 = 30s); MaxDeadline caps client
	// requests (<= 0 = 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// Retries is the transient re-attempt budget per submission
	// (< 0 = 0); RetryBackoff seeds the jittered exponential backoff
	// (<= 0 = 10ms).
	Retries      int
	RetryBackoff time.Duration

	// BreakerThreshold consecutive failures open a (tenant, phase)
	// circuit for BreakerCooldown (threshold <= 0 disables breakers;
	// cooldown <= 0 = 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// StoreDir is the artifact store directory ("" disables
	// persistence and dedupe-across-restarts; single-flight dedupe of
	// concurrent identical submissions still works).
	StoreDir string

	// Metrics receives serving metrics (nil = disabled, free).
	// TenantLabelCap bounds tenant label cardinality (<= 0 = 32);
	// tenants past the cap collapse into tenant="other".
	Metrics        *obsv.Metrics
	TenantLabelCap int

	// Seed drives retry jitter (0 = 1).
	Seed int64
}

// Server is one edb-serve instance.
type Server struct {
	cfg       Config
	admission *Admission
	tenants   *tenantTable
	store     *Store
	disp      *dispatcher
	metrics   *obsv.Metrics
	tenantCap *obsv.LabelCap

	httpSrv  *http.Server
	ln       net.Listener
	draining atomic.Bool
}

// New builds a Server from cfg without listening yet.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueuePerTenant == 0 {
		cfg.QueuePerTenant = 64
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 5 * time.Minute
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.TenantLabelCap <= 0 {
		cfg.TenantLabelCap = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var store *Store
	if cfg.StoreDir != "" {
		var err error
		if store, err = OpenStore(cfg.StoreDir); err != nil {
			return nil, err
		}
	} else {
		store = &Store{dir: "", inflight: make(map[string]*flight)}
	}
	bcfg := breakerConfig{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown}
	s := &Server{
		cfg:       cfg,
		admission: NewAdmission(int64(cfg.Workers), cfg.QueuePerTenant),
		tenants:   newTenantTable(cfg.Tenants, cfg.DefaultTenant, bcfg),
		store:     store,
		disp:      newDispatcher(cfg.Retries, cfg.RetryBackoff, cfg.Seed),
		metrics:   cfg.Metrics,
		tenantCap: obsv.NewLabelCap(cfg.TenantLabelCap, "other"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replay", s.handleReplay)
	mux.HandleFunc("POST /v1/session", s.handleSession)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.httpSrv = &http.Server{Handler: mux}
	return s, nil
}

// Start begins listening and serving in the background. It returns
// once the listener is bound; Addr reports the bound address.
func (s *Server) Start() error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve errors after Close/Drain are expected; others have
			// nowhere better to go than the metrics.
			s.metrics.Inc("edb_serve_listener_errors_total")
		}
	}()
	return nil
}

// Addr reports the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain gracefully shuts the server down: new submissions are refused
// with 503 + Retry-After and /healthz flips unhealthy (so a load
// balancer stops routing here), while in-flight requests run to
// completion or until ctx expires — whichever comes first. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.httpSrv.Shutdown(ctx)
}

// Close tears the server down immediately, abandoning in-flight work.
func (s *Server) Close() error {
	s.draining.Store(true)
	return s.httpSrv.Close()
}

// Draining reports whether drain has begun.
//
//edbvet:allow unused -- test seam: the drain tests wait on it before probing a draining server
func (s *Server) Draining() bool { return s.draining.Load() }

// errBody is the JSON error payload for non-streamed failures. Kind
// and Injected surface the fault taxonomy so chaos drills (and
// clients) can assert they got the *right* typed error.
type errBody struct {
	Error    string `json:"error"`
	Injected bool   `json:"injected,omitempty"`
	Kind     string `json:"kind,omitempty"`
}

// writeErr sends a JSON error response, classifying injected faults
// and attaching Retry-After where the error carries one.
func (s *Server) writeErr(w http.ResponseWriter, tenant string, code int, err error) {
	var retryAfter time.Duration
	var qe *QuotaError
	var be *BreakerOpenError
	switch {
	case errors.As(err, &qe):
		retryAfter = qe.RetryAfter
	case errors.As(err, &be):
		retryAfter = be.RetryAfter
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		retryAfter = 100 * time.Millisecond
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())+1))
		w.Header().Set("X-EDB-Retry-After-Ms", strconv.FormatInt(retryAfter.Milliseconds(), 10))
	}
	body := errBody{Error: err.Error()}
	var fe *fault.Error
	if errors.As(err, &fe) {
		body.Injected = true
		body.Kind = fe.Kind.String()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(&body)
	s.count("edb_serve_requests_total", tenant, "code", strconv.Itoa(code))
}

// count increments a tenant-labelled counter, applying the
// cardinality cap plus any extra label pairs.
func (s *Server) count(name, tenant string, kv ...string) {
	if s.metrics == nil {
		return
	}
	series := obsv.MergeLabel(name, "tenant", s.tenantCap.Cap(tenant))
	for i := 0; i+1 < len(kv); i += 2 {
		series = obsv.MergeLabel(series, kv[i], kv[i+1])
	}
	s.metrics.Inc(series)
}

// tenantOf extracts the request's tenant identity.
func tenantOf(r *http.Request) string {
	t := strings.TrimSpace(r.Header.Get("X-EDB-Tenant"))
	if t == "" {
		return "anonymous"
	}
	return t
}

// deadlineCtx applies the per-request deadline: the client's
// X-EDB-Deadline-Ms header capped at MaxDeadline, or DefaultDeadline.
func (s *Server) deadlineCtx(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-EDB-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// classifyCode maps a pipeline error to its HTTP status.
func classifyCode(err error) int {
	var qe *QuotaError
	var be *BreakerOpenError
	switch {
	case errors.As(err, &qe):
		return http.StatusTooManyRequests
	case errors.As(err, &be):
		return http.StatusServiceUnavailable
	case errors.Is(err, exp.ErrGateOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client went away (nginx convention)
	case IsBadRequest(err):
		return http.StatusBadRequest
	case errors.As(err, new(*SpecError)):
		return http.StatusBadRequest
	case fault.IsTransient(err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleHealthz answers load-balancer probes: 200 while serving, 503
// once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics exports Prometheus text format, including live
// admission-gate gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics != nil {
		inUse, queued, tenants := s.admission.Stats()
		s.metrics.Set("edb_serve_admission_in_use", float64(inUse))
		s.metrics.Set("edb_serve_admission_queued", float64(queued))
		s.metrics.Set("edb_serve_admission_tenants_waiting", float64(tenants))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

// handleReplay is the submission path. See the package comment for
// the stage order; every rejection is a typed, tenant-scoped error.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	s.handleSubmission(w, r, false)
}

// handleSession is the live session-mutation path: the same envelope
// as /v1/replay with mutate_from set — the tenant grows (or shrinks)
// an existing submission's watch set, and the server reuses the base
// artifact's rows instead of replaying every session from scratch.
// Everything between the socket and the resolve step is shared with
// /v1/replay: a mutation is admitted, rate-limited, and
// breaker-guarded exactly like a fresh submission.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	s.handleSubmission(w, r, true)
}

func (s *Server) handleSubmission(w http.ResponseWriter, r *http.Request, mutate bool) {
	start := time.Now()
	tenant := tenantOf(r)
	ts := s.tenants.get(tenant)

	if s.draining.Load() {
		s.writeErr(w, tenant, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	ctx, cancel := s.deadlineCtx(r)
	defer cancel()

	// Tenant-local policy first: rate, then quota. Cheap, and it means
	// a flooding tenant never touches shared state.
	if err := ts.allow(time.Now()); err != nil {
		s.count("edb_serve_shed_total", tenant, "reason", "rate")
		s.writeErr(w, tenant, http.StatusTooManyRequests, err)
		return
	}
	if err := ts.acquireSlot(); err != nil {
		s.count("edb_serve_shed_total", tenant, "reason", "quota")
		s.writeErr(w, tenant, http.StatusTooManyRequests, err)
		return
	}
	defer ts.releaseSlot()

	maxBytes := s.cfg.MaxRequestBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	maxBuf := s.cfg.MaxBodyBuffer
	if maxBuf <= 0 {
		maxBuf = DefaultMaxBodyBuffer
	}
	// Read up to the body buffer plus one byte: a body that fits is
	// decoded in memory exactly as before; one that spills switches to
	// the incremental decoder, which spools the trace frame to disk.
	limited := http.MaxBytesReader(w, r.Body, maxBytes)
	body, err := io.ReadAll(io.LimitReader(limited, maxBuf+1))
	if err != nil {
		s.writeErr(w, tenant, http.StatusBadRequest, fmt.Errorf("serve: reading request: %w", err))
		return
	}
	buffered := int64(len(body)) <= maxBuf
	if buffered {
		// In-flight corruption happens to the bytes, before decoding —
		// the CRC framing is what must catch it. (Spooled bodies are
		// never fully resident, so the corruption site applies to
		// buffered ones; the CRC discipline is identical either way.)
		fault.Mutate(fault.SiteServeDecodeCorrupt, tenant, body)
	}

	dec := ts.breakers[phaseDecode]
	if err := dec.allow(tenant, phaseDecode, time.Now()); err != nil {
		s.writeErr(w, tenant, http.StatusServiceUnavailable, err)
		return
	}
	req, err := func() (*Request, error) {
		if err := fault.Inject(fault.SiteServeDecode, tenant); err != nil {
			return nil, fmt.Errorf("serve: decode: %w", err)
		}
		if buffered {
			return DecodeRequest(body, maxBytes)
		}
		return DecodeRequestStream(io.MultiReader(bytes.NewReader(body), limited), maxBytes, "")
	}()
	dec.record(err, time.Now())
	if err != nil {
		s.count("edb_serve_decode_errors_total", tenant)
		s.writeErr(w, tenant, classifyCode(err), err)
		return
	}
	defer req.Cleanup()

	// The two endpoints accept the same envelope; mutate_from is what
	// distinguishes them, so its presence must match the route.
	if mutate && req.Header.MutateFrom == nil {
		s.writeErr(w, tenant, http.StatusBadRequest,
			specErrf("serve: session mutation without mutate_from (use /v1/replay)"))
		return
	}
	if !mutate && req.Header.MutateFrom != nil {
		s.writeErr(w, tenant, http.StatusBadRequest,
			specErrf("serve: mutate_from requires POST /v1/session"))
		return
	}

	// Hash-only fast path: serve from the store or a concurrent
	// identical upload; otherwise tell the client to send the bytes.
	if req.HashOnly() {
		s.serveHashOnly(ctx, w, tenant, ts, req, start)
		return
	}

	release, err := s.admission.Acquire(ctx, tenant, 1)
	if err != nil {
		s.count("edb_serve_shed_total", tenant, "reason", "admission")
		s.writeErr(w, tenant, classifyCode(err), fmt.Errorf("serve: admission: %w", err))
		return
	}
	defer release()
	if err := fault.Inject(fault.SiteServeAdmit, tenant); err != nil {
		s.writeErr(w, tenant, classifyCode(err), fmt.Errorf("serve: admission: %w", err))
		return
	}

	art, cached, err := s.resolve(ctx, tenant, ts, req)
	if err != nil {
		s.count("edb_serve_replay_errors_total", tenant)
		s.writeErr(w, tenant, classifyCode(err), err)
		return
	}
	if cached {
		s.count("edb_serve_dedupe_hits_total", tenant)
	}
	s.stream(w, tenant, art, cached, start)
}

// serveHashOnly answers a submission that carries only a content
// hash: a store hit or a ride on a concurrent identical upload
// succeeds; an unknown hash is 404 — the client should re-submit with
// the trace payload.
func (s *Server) serveHashOnly(ctx context.Context, w http.ResponseWriter, tenant string, ts *tenantState, req *Request, start time.Time) {
	if art, ok := s.storeGet(tenant, ts, req.Hash); ok {
		s.count("edb_serve_dedupe_hits_total", tenant)
		s.stream(w, tenant, art, true, start)
		return
	}
	s.store.mu.Lock()
	f, inFlight := s.store.inflight[req.Hash]
	s.store.mu.Unlock()
	if !inFlight {
		s.writeErr(w, tenant, http.StatusNotFound,
			fmt.Errorf("serve: unknown content hash %s: submit the full payload", req.Hash))
		return
	}
	select {
	case <-f.done:
		if f.err != nil {
			s.writeErr(w, tenant, classifyCode(f.err), f.err)
			return
		}
		s.count("edb_serve_dedupe_hits_total", tenant)
		s.stream(w, tenant, f.art, true, start)
	case <-ctx.Done():
		s.writeErr(w, tenant, classifyCode(ctx.Err()), ctx.Err())
	}
}

// storeGet is Get behind the store-read fault site and breaker
// bookkeeping: an injected read failure degrades to a miss.
func (s *Server) storeGet(tenant string, ts *tenantState, hash string) (*Artifact, bool) {
	if err := fault.Inject(fault.SiteServeStoreRead, tenant); err != nil {
		ts.breakers[phaseStore].record(err, time.Now())
		s.count("edb_serve_store_degraded_total", tenant, "op", "read")
		return nil, false
	}
	art, ok := s.store.Get(hash)
	ts.breakers[phaseStore].record(nil, time.Now())
	return art, ok
}

// resolve turns a full submission into an artifact: store lookup,
// then single-flight — followers wait for the leader, the leader runs
// the resilient dispatcher and commits.
func (s *Server) resolve(ctx context.Context, tenant string, ts *tenantState, req *Request) (*Artifact, bool, error) {
	rb := ts.breakers[phaseReplay]
	if err := rb.allow(tenant, phaseReplay, time.Now()); err != nil {
		return nil, false, err
	}
	if art, ok := s.storeGet(tenant, ts, req.Hash); ok {
		rb.record(nil, time.Now())
		return art, true, nil
	}
	leader, wait, commit, fail := s.store.Begin(req.Hash)
	if !leader {
		art, err := wait(ctx)
		rb.record(err, time.Now())
		return art, true, err
	}
	art, err := s.disp.run(ctx, tenant, func(context.Context) (*Artifact, error) {
		if req.Header.MutateFrom != nil {
			return s.computeMutated(tenant, ts, req)
		}
		return computeArtifact(tenant, req, nil)
	})
	rb.record(err, time.Now())
	if err != nil {
		fail(err)
		return nil, false, err
	}
	persist := s.store.dir != ""
	if err := fault.Inject(fault.SiteServeStoreWrite, tenant); err != nil {
		ts.breakers[phaseStore].record(err, time.Now())
		s.count("edb_serve_store_degraded_total", tenant, "op", "write")
		persist = false
	}
	if err := commit(art, persist); err != nil {
		// Disk trouble also degrades to an uncached success.
		s.count("edb_serve_store_degraded_total", tenant, "op", "write")
	}
	return art, false, nil
}

// streamHeader is the first JSONL line of a replay response.
type streamHeader struct {
	Program     string `json:"program"`
	NumEvents   int    `json:"num_events"`
	NumSessions int    `json:"num_sessions"`
	RequestSHA  string `json:"request_sha"`
	Cached      bool   `json:"cached"`
}

// streamTrailer is the last JSONL line.
type streamTrailer struct {
	ResultSHA string  `json:"result_sha"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// stream writes the JSONL response: header, one line per session,
// trailer. A respond-path fault fires between the session lines and
// the trailer — the status is already committed, so the error goes
// out in-band as a JSON error line and the stream ends without a
// trailer (clients treat a missing trailer as failure).
func (s *Server) stream(w http.ResponseWriter, tenant string, art *Artifact, cached bool, start time.Time) {
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	enc.Encode(&streamHeader{
		Program:     art.Program,
		NumEvents:   art.NumEvents,
		NumSessions: len(art.Sessions),
		RequestSHA:  art.RequestSHA,
		Cached:      cached,
	})
	for i := range art.Sessions {
		enc.Encode(&art.Sessions[i])
	}
	if err := fault.Inject(fault.SiteServeRespond, tenant); err != nil {
		body := errBody{Error: fmt.Sprintf("serve: respond: %v", err)}
		var fe *fault.Error
		if errors.As(err, &fe) {
			body.Injected, body.Kind = true, fe.Kind.String()
		}
		enc.Encode(&body)
		s.count("edb_serve_requests_total", tenant, "code", "200-truncated")
		return
	}
	enc.Encode(&streamTrailer{
		ResultSHA: art.ResultSHA,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
	s.count("edb_serve_requests_total", tenant, "code", "200")
	if s.metrics != nil {
		s.metrics.Observe(obsv.MergeLabel("edb_serve_request_seconds", "tenant", s.tenantCap.Cap(tenant)),
			time.Since(start).Seconds())
	}
}

// experimentRequest is the /v1/experiment JSON body.
type experimentRequest struct {
	Programs []string `json:"programs"`
	Scale    int      `json:"scale,omitempty"`
}

// experimentResult is one program's row in the /v1/experiment
// response (a summary — full per-session outcomes stay server-side).
type experimentResult struct {
	Program     string  `json:"program"`
	Error       string  `json:"error,omitempty"`
	BaseCycles  uint64  `json:"base_cycles,omitempty"`
	TotalWrites uint64  `json:"total_writes,omitempty"`
	KeptCount   int     `json:"kept_sessions,omitempty"`
	Discarded   int     `json:"discarded_sessions,omitempty"`
	MeanHits    float64 `json:"mean_hits,omitempty"`
}

// handleExperiment runs the full experiment pipeline for the named
// benchmarks through the shared admission pool (each benchmark takes
// one pool slot, exactly like a replay submission), so experiment
// tenants and replay tenants contend fairly.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	ts := s.tenants.get(tenant)
	if s.draining.Load() {
		s.writeErr(w, tenant, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	ctx, cancel := s.deadlineCtx(r)
	defer cancel()
	if err := ts.allow(time.Now()); err != nil {
		s.writeErr(w, tenant, http.StatusTooManyRequests, err)
		return
	}
	if err := ts.acquireSlot(); err != nil {
		s.writeErr(w, tenant, http.StatusTooManyRequests, err)
		return
	}
	defer ts.releaseSlot()
	var req experimentRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxHeaderBytes)).Decode(&req); err != nil {
		s.writeErr(w, tenant, http.StatusBadRequest, fmt.Errorf("serve: experiment request: %w", err))
		return
	}
	if len(req.Programs) == 0 {
		s.writeErr(w, tenant, http.StatusBadRequest, errors.New("serve: experiment request names no programs"))
		return
	}
	out, err := exp.RunContext(ctx, exp.Config{
		Programs:     req.Programs,
		Scale:        req.Scale,
		Workers:      s.cfg.Workers,
		KeepGoing:    true,
		Retries:      s.cfg.Retries,
		RetryBackoff: s.cfg.RetryBackoff,
		Gate:         s.admission.Gate(tenant),
		Metrics:      s.metrics,
	})
	var re *exp.RunError
	if err != nil && !errors.As(err, &re) {
		s.writeErr(w, tenant, classifyCode(err), err)
		return
	}
	rows := make([]experimentResult, 0, len(out))
	for _, pr := range out {
		row := experimentResult{Program: pr.Program}
		if pr.Err != nil {
			row.Error = pr.Err.Error()
		} else {
			row.BaseCycles = pr.BaseCycles
			row.TotalWrites = pr.TotalWrites
			row.KeptCount = len(pr.Kept)
			row.Discarded = pr.Discarded
			row.MeanHits = pr.MeanHits
		}
		rows = append(rows, row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
	s.count("edb_serve_requests_total", tenant, "code", "200")
}
