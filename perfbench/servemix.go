package main

// The serve-mix workload: edb-serve in process on loopback with its
// default configuration and an on-disk store, driven by one closed-loop
// caller (two tenant names, one connection) walking a seeded request
// list over v3 traces of bps, qcd and gcc. Repeats are store reads
// plus the response; new questions decode, discover, prepass, replay
// and write the store; mutations grow an earlier question's watch set.
// gcc's upload exceeds the 8 MiB body buffer, so it spools to disk and
// replays through the streamed engine. Tracegen and the re-patcher do
// not run; trace decode runs in no other workload.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"edb/internal/obsv"
	"edb/internal/serve"
	"edb/internal/serve/loadgen"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/trace"
)

// servePrograms are the traced programs the requests ask about.
var servePrograms = []string{"bps", "qcd", "gcc"}

const (
	// serveSetupReps is how often serve-mix repeats its (costly)
	// set-up; setup_s is the median.
	serveSetupReps = 3
	// serveWarmups leading requests are discarded: they pay for the
	// connection and the first store writes.
	serveWarmups = 20
	// serveListLen requests are generated; a run walks a prefix.
	serveListLen = 6000
	// recordedQuestions is how many distinct questions of the default
	// seed the recorded result map covers.
	recordedQuestions = 24
)

// serveInputs is the workload's set-up: traces encoded as uploads.
type serveInputs struct {
	traces [][]byte // v3 trace bytes per program
	totals []int    // discovered sessions per program
}

func serveSetup() (*serveInputs, error) {
	in := &serveInputs{}
	for _, name := range servePrograms {
		// Each trace is built from a collected heap, so the set-up's
		// memory peak is one trace's, not an accident of GC timing.
		collect()
		tr, err := loadgen.BuildTrace(name, 1)
		if err != nil {
			return nil, err
		}
		b, err := loadgen.EncodeTrace(tr, 3)
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, b)
		in.totals = append(in.totals, len(sessions.Discover(tr).Sessions))
	}
	return in, nil
}

// startServer starts edb-serve with its default configuration over
// the store at dir.
func startServer(dir string, metrics *obsv.Metrics) (*serve.Server, error) {
	srv, err := serve.New(serve.Config{StoreDir: dir, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// reply is what the caller learns from one response.
type reply struct {
	code      int
	cached    bool
	resultSHA string
	err       error
}

// serveClient is the closed-loop caller: one keep-alive connection.
type serveClient struct {
	base string
	http *http.Client
}

func newServeClient(addr string) *serveClient {
	return &serveClient{base: "http://" + addr, http: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// post sends one envelope and checks the JSONL answer's shape: a
// header, one row per session, and a trailer carrying result_sha.
func (c *serveClient) post(path, tenant string, env []byte) reply {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(env))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("X-EDB-Tenant", tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{code: resp.StatusCode, err: err}
	if err != nil || r.code != http.StatusOK {
		return r
	}
	r.cached, r.resultSHA, r.err = parseAnswer(body)
	return r
}

// parseAnswer checks a replay answer: header line, num_sessions rows,
// and a trailer with the result hash as the last line.
func parseAnswer(body []byte) (cached bool, resultSHA string, err error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return false, "", fmt.Errorf("answer has %d lines", len(lines))
	}
	var hdr struct {
		NumSessions int  `json:"num_sessions"`
		Cached      bool `json:"cached"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return false, "", fmt.Errorf("answer header: %w", err)
	}
	var tr struct {
		ResultSHA string `json:"result_sha"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || tr.ResultSHA == "" {
		return false, "", fmt.Errorf("answer ends without a trailer")
	}
	if rows := len(lines) - 2; rows != hdr.NumSessions {
		return false, "", fmt.Errorf("answer has %d rows for %d sessions", rows, hdr.NumSessions)
	}
	return hdr.Cached, tr.ResultSHA, nil
}

// serveRun is the state of one serve-mix run.
type serveRun struct {
	in      *serveInputs
	client  *serveClient
	hashes  map[string]string // question key → content hash
	results map[string]string // question key → result_sha
	order   []string          // question keys in first-answer order
	out     *outcome

	fallbacks   int // hash-only probes answered 404
	uploadBytes int
	uploads     int
}

func (r *serveRun) hash(q *question) string {
	k := q.key()
	if h, ok := r.hashes[k]; ok {
		return h
	}
	h := serve.HashRequest(&serve.RequestHeader{Sessions: q.spec}, r.in.traces[q.prog])
	r.hashes[k] = h
	return h
}

func encode(hdr *serve.RequestHeader, traceBytes []byte) []byte {
	var buf bytes.Buffer
	// EncodeRequest fails only on a header JSON cannot encode, which
	// a RequestHeader never is.
	_ = serve.EncodeRequest(&buf, hdr, traceBytes)
	return buf.Bytes()
}

// prepared is one request ready to send: the envelopes are built
// before the clock starts, as a client would.
type prepared struct {
	probe []byte // hash-only envelope (hits and misses)
	full  []byte // full upload (misses and mutations)
	path  string
}

func (r *serveRun) prepare(q *serveReq) prepared {
	trace := r.in.traces[q.q.prog]
	switch q.class {
	case classMutate:
		hdr := serve.RequestHeader{Sessions: q.q.spec, MutateFrom: q.base}
		return prepared{full: encode(&hdr, trace), path: "/v1/session"}
	default:
		hdr := serve.RequestHeader{Sessions: q.q.spec, ContentSHA256: r.hash(&q.q)}
		p := prepared{probe: encode(&hdr, nil), path: "/v1/replay"}
		if q.class == classMiss {
			p.full = encode(&hdr, trace)
		}
		return p
	}
}

// send issues one prepared request (hash-first where it has a probe)
// and returns its latency in ms and the final reply.
func (r *serveRun) send(q *serveReq, p prepared) (float64, reply) {
	start := time.Now()
	var rep reply
	if p.probe != nil {
		rep = r.client.post(p.path, q.tenant, p.probe)
		if rep.code == http.StatusNotFound {
			r.fallbacks++
			if p.full == nil {
				p.full = encode(&serve.RequestHeader{Sessions: q.q.spec, ContentSHA256: r.hash(&q.q)}, r.in.traces[q.q.prog])
			}
			rep = r.client.post(p.path, q.tenant, p.full)
			r.uploads++
			r.uploadBytes += len(p.full)
		}
	} else {
		rep = r.client.post(p.path, q.tenant, p.full)
		r.uploads++
		r.uploadBytes += len(p.full)
	}
	return ms(time.Since(start)), rep
}

// check is one request's output check: 200, a trailer, the cached flag
// the class implies, and one result_sha per question.
func (r *serveRun) check(q *serveReq, rep reply) bool {
	what := fmt.Sprintf("serve-mix: %s %s", q.class, servePrograms[q.q.prog])
	switch {
	case rep.err != nil:
		r.out.op(false, "%s: %v", what, rep.err)
		return false
	case rep.code != http.StatusOK:
		r.out.op(false, "%s: HTTP %d", what, rep.code)
		return false
	case rep.cached != (q.class == classHit):
		r.out.op(false, "%s: cached=%v", what, rep.cached)
		return false
	}
	k := q.q.key()
	if prev, ok := r.results[k]; ok {
		r.out.op(prev == rep.resultSHA, "%s: result_sha %s, earlier %s", what, rep.resultSHA, prev)
		return prev == rep.resultSHA
	}
	r.results[k] = rep.resultSHA
	r.order = append(r.order, k)
	r.out.op(true, "")
	return true
}

// resultMapDigest hashes the first n answered questions' result
// hashes in first-answer order: for the default seed it must equal the
// recorded digest.
func resultMapDigest(order []string, results map[string]string, n int) string {
	var b strings.Builder
	for _, k := range order[:n] {
		fmt.Fprintf(&b, "%s=%s\n", k, results[k])
	}
	return sha256Hex([]byte(b.String()))
}

// checkRecordedMap compares the default seed's answers to the record.
func (r *serveRun) checkRecordedMap(seed int64) {
	if seed != defaultSeed {
		return
	}
	if len(r.order) < recordedQuestions {
		r.out.op(false, "serve-mix: only %d questions answered, %d recorded", len(r.order), recordedQuestions)
		return
	}
	got := resultMapDigest(r.order, r.results, recordedQuestions)
	r.out.op(got == recordedServeResultMap, "serve-mix: result map digest %s, recorded %s", got, recordedServeResultMap)
}

func runServeMix(cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var in *serveInputs
	var srv *serve.Server
	var metrics *obsv.Metrics
	if cfg.trace {
		metrics = obsv.NewMetrics()
	}
	var storeDir string
	setup, err := setUp(cfg, serveSetupReps, func(rep int) (err error) {
		if srv != nil {
			srv.Close()
		}
		storeDir = filepath.Join(dir, fmt.Sprintf("store-%d", rep))
		if in, err = serveSetup(); err != nil {
			return err
		}
		srv, err = startServer(storeDir, metrics)
		return err
	})
	if srv != nil {
		defer srv.Close()
	}
	if err != nil {
		return nil, err
	}

	run := &serveRun{in: in, client: newServeClient(srv.Addr()), out: out,
		hashes: make(map[string]string), results: make(map[string]string)}
	defer run.client.http.CloseIdleConnections()
	list := genRequests(cfg.seed, in.totals, serveListLen)

	var led *serveLedger
	if cfg.trace {
		if led, err = newServeLedger(dir, storeDir); err != nil {
			return nil, err
		}
	}
	lat := make(byClass)
	hits := make(byClass) // repeat latencies by (program, size rung)
	var all []float64
	var loopStart, deadline time.Time
	var gcs time.Duration
	done := 0
	for i := range list {
		if i == serveWarmups {
			loopStart, deadline = time.Now(), cfg.deadline()
		}
		// The default seed also runs until its recorded questions are
		// answered, however short the run.
		covered := cfg.seed != defaultSeed || len(run.order) >= recordedQuestions
		if i > serveWarmups && time.Now().After(deadline) && covered {
			break
		}
		if gc := collect(); i >= serveWarmups {
			gcs += gc
		}
		q := &list[i]
		p := run.prepare(q)
		d, rep := run.send(q, p)
		ok := run.check(q, rep)
		if led != nil && ok {
			led.attribute(run, q, p, d)
		}
		if i >= serveWarmups {
			done++
			lat.add(q.class.String(), d)
			all = append(all, d)
			if q.class == classHit {
				hits.add(fmt.Sprintf("%d/%d", q.q.prog, q.q.level), d)
			}
		}
	}
	loop := (time.Since(loopStart) - gcs).Seconds()
	run.checkRecordedMap(cfg.seed)

	if !cfg.trace {
		out.set("setup_s", setup.median())
		out.set("cold_ms", lat.median(classMiss.String()))
		// Repeat latency grows with the answer's size; averaging the
		// per-bucket medians keeps the figure independent of how the
		// seed's repeats happened to fall across sizes.
		out.set("warm_ms", hits.meanOfMedians())
		out.set("ops_per_s", float64(done)/loop)
		return out, nil
	}
	led.report(out, lat, all)
	out.set("serve.hash_first_fallbacks", float64(run.fallbacks))
	if run.uploads > 0 {
		out.set("serve.upload_mb", float64(run.uploadBytes)/float64(run.uploads)/(1<<20))
	}
	snap := metrics.Snapshot()
	inc := counterSum(snap, "edb_serve_repatch_incremental_total")
	full := counterSum(snap, "edb_serve_repatch_full_total")
	out.set("serve.dedupe_hits", counterSum(snap, "edb_serve_dedupe_hits_total"))
	out.set("serve.repatch_incremental", inc)
	out.set("serve.repatch_full", full)
	if inc+full > 0 {
		out.set("serve.incremental_share", inc/(inc+full))
	}
	overhead, err := serveOverhead(run, list, storeDir)
	if err != nil {
		return nil, err
	}
	out.set("obsv.overhead_pct", overhead)
	return out, writeChrome(cfg, "serve-mix", led.tracer)
}

// counterSum adds every labelled series of one counter.
func counterSum(s obsv.Snapshot, name string) float64 {
	total := int64(0)
	for series, v := range s.Counters {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return float64(total)
}

// serveOverhead compares repeat questions answered by the traced
// server (metrics on) with the same questions answered by a second,
// untraced server over the same store, in alternation.
func serveOverhead(run *serveRun, list []serveReq, storeDir string) (float64, error) {
	plain, err := startServer(storeDir, nil)
	if err != nil {
		return 0, err
	}
	defer plain.Close()
	pc := newServeClient(plain.Addr())
	defer pc.http.CloseIdleConnections()
	var on, off []float64
	for i := range list {
		q := &list[i]
		if _, asked := run.results[q.q.key()]; q.class != classHit || !asked {
			continue
		}
		env := run.prepare(q).probe
		pair := []*serveClient{run.client, pc}
		if len(on)%2 == 1 {
			pair[0], pair[1] = pc, run.client // alternate which goes first
		}
		for _, c := range pair {
			start := time.Now()
			rep := c.post("/v1/replay", q.tenant, env)
			d := ms(time.Since(start))
			run.out.op(rep.err == nil && rep.code == http.StatusOK && rep.cached,
				"serve-mix: overhead probe: HTTP %d %v", rep.code, rep.err)
			if c == run.client {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
		if len(on) == 60 {
			break
		}
	}
	if m := median(off); m > 0 {
		return 100 * (median(on) - m) / m, nil
	}
	return 0, nil
}

// serveLedger attributes a traced run's requests to layers by calling
// the same public functions the server calls, on the same inputs,
// right after each request, and subtracting their sum from the
// request's latency.
type serveLedger struct {
	tracer *obsv.Tracer
	read   *serve.Store // the server's store, read-only here
	write  *serve.Store // a store of the ledger's own for write timing
	spool  string

	layer        map[string][]float64 // metric → per-call ms
	unattributed byClass
}

func newServeLedger(dir, serverStore string) (*serveLedger, error) {
	read, err := serve.OpenStore(serverStore)
	if err != nil {
		return nil, err
	}
	write, err := serve.OpenStore(filepath.Join(dir, "ledger-store"))
	if err != nil {
		return nil, err
	}
	spool := filepath.Join(dir, "ledger-spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	return &serveLedger{tracer: obsv.NewTracer(0), read: read, write: write, spool: spool,
		layer: make(map[string][]float64), unattributed: make(byClass)}, nil
}

// call times one direct call as a span and files it under metric.
func (l *serveLedger) call(metric string, sum *float64, fn func()) {
	d := timed(l.tracer, metric, fn)
	l.layer[metric] = append(l.layer[metric], d)
	*sum += d
}

// attribute replays one answered request's server-side work through
// direct calls.
func (l *serveLedger) attribute(run *serveRun, q *serveReq, p prepared, latency float64) {
	sp := l.tracer.StartSpan("request")
	sp.Attr("class", q.class.String())
	sp.Attr("program", servePrograms[q.q.prog])
	defer sp.End()
	sum := 0.0
	fail := func(err error) {
		run.out.op(false, "serve-mix: ledger %s: %v", q.class, err)
	}
	if q.class == classHit {
		var art *serve.Artifact
		var ok bool
		l.call("serve.store_read_ms", &sum, func() { art, ok = l.read.Get(run.hash(&q.q)) })
		if !ok {
			fail(fmt.Errorf("store has no artifact for a repeat"))
			return
		}
		l.call("serve.respond_ms", &sum, func() { respond(art) })
		l.unattributed.add(q.class.String(), latency-sum)
		return
	}

	var req *serve.Request
	var err error
	l.call("serve.decode_ms", &sum, func() {
		if len(p.full) <= serve.DefaultMaxBodyBuffer {
			req, err = serve.DecodeRequest(p.full, serve.DefaultMaxRequestBytes)
		} else {
			req, err = serve.DecodeRequestStream(bytes.NewReader(p.full), serve.DefaultMaxRequestBytes, l.spool)
		}
	})
	if err != nil {
		fail(err)
		return
	}
	defer req.Cleanup()

	// A mutation over an in-memory upload starts from the base rows in
	// the store and replays only the added sessions; a spooled one is
	// recomputed in full, as the server does.
	var base map[int]serve.SessionResult
	if q.class == classMutate && req.Trace != nil {
		var art *serve.Artifact
		var ok bool
		baseHash := serve.HashRequest(&serve.RequestHeader{Sessions: *q.base}, req.TraceBytes)
		l.call("serve.store_read_ms", &sum, func() { art, ok = l.read.Get(baseHash) })
		if !ok {
			fail(fmt.Errorf("store has no base artifact"))
			return
		}
		base = make(map[int]serve.SessionResult, len(art.Sessions))
		for _, s := range art.Sessions {
			base[s.Index] = s
		}
	}

	disc := req.Trace
	if req.Streamed != nil {
		disc = &trace.Trace{Program: req.Streamed.Program, Objects: req.Streamed.Objects}
	}
	var chosen []sessions.Session
	var orig []int
	var full *sessions.Set
	l.call("sessions.discover_ms", &sum, func() {
		full = sessions.Discover(disc)
		chosen, orig, err = q.q.spec.Select(full)
	})
	if err != nil {
		fail(err)
		return
	}
	var replay []sessions.Session
	var replayPos []int // position in chosen of each replayed session
	rows := make([]serve.SessionResult, len(chosen))
	for i := range chosen {
		if row, ok := base[orig[i]]; ok {
			rows[i] = row
		} else {
			replay = append(replay, chosen[i])
			replayPos = append(replayPos, i)
		}
	}
	subset := sessions.NewSet(replay, full.NumObjects())
	var simOut *sim.Output
	if req.Streamed != nil {
		l.call("sim.stream_replay_ms", &sum, func() {
			simOut, err = sim.RunWithOptions(nil, subset, sim.Options{Source: req.Streamed.Source})
		})
	} else {
		var pp *sim.Prepass
		l.call("sim.prepass_ms", &sum, func() { pp, err = sim.Prepare(req.Trace) })
		if err == nil {
			l.call("sim.replay_ms", &sum, func() {
				simOut, err = sim.RunWithOptions(req.Trace, subset, sim.Options{Prepass: pp})
			})
		}
	}
	if err != nil {
		fail(err)
		return
	}
	for k := range simOut.PerSession {
		s := &subset.Sessions[k]
		rows[replayPos[k]] = serve.SessionResult{Index: orig[replayPos[k]],
			Type: s.Type.String(), Label: s.Label(), Counting: simOut.PerSession[k]}
	}
	art := &serve.Artifact{RequestSHA: req.Hash, Program: disc.Program,
		ResultSHA: run.results[q.q.key()], Sessions: rows}
	l.call("serve.store_write_ms", &sum, func() {
		leader, _, commit, _ := l.write.Begin(art.RequestSHA)
		if leader {
			err = commit(art, true)
		}
	})
	if err != nil {
		fail(err)
		return
	}
	l.call("serve.respond_ms", &sum, func() { respond(art) })
	l.unattributed.add(q.class.String(), latency-sum)
}

// respond encodes an artifact as the JSONL answer the server streams:
// header, one line per session, trailer.
func respond(art *serve.Artifact) {
	w := bufio.NewWriter(io.Discard)
	enc := json.NewEncoder(w)
	_ = enc.Encode(struct {
		Program     string `json:"program"`
		NumSessions int    `json:"num_sessions"`
		RequestSHA  string `json:"request_sha"`
	}{art.Program, len(art.Sessions), art.RequestSHA})
	for i := range art.Sessions {
		_ = enc.Encode(&art.Sessions[i])
	}
	_ = enc.Encode(struct {
		ResultSHA string `json:"result_sha"`
	}{art.ResultSHA})
	_ = w.Flush()
}

// report files the traced run's per-layer metrics.
func (l *serveLedger) report(out *outcome, lat byClass, all []float64) {
	for name, xs := range l.layer {
		out.set(name, median(xs))
	}
	out.set("serve.hit_ms", lat.median(classHit.String()))
	out.set("serve.miss_ms", lat.median(classMiss.String()))
	out.set("serve.mutate_ms", lat.median(classMutate.String()))
	t := tailOf(all)
	out.set("serve.tail_ms", t.Value)
	out.set("serve.tail_pct", t.Pct)
	out.set("serve.tail_n", float64(t.N))
	for c := reqClass(0); c < numClasses; c++ {
		out.set("serve.unattributed_ms."+c.String(), l.unattributed.median(c.String()))
	}
}
