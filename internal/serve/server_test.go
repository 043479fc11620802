// Live end-to-end tests: a real listener, real HTTP, the loadgen
// client — the same path production traffic takes.
package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edb/internal/fault"
	"edb/internal/obsv"
	"edb/internal/serve"
	"edb/internal/serve/loadgen"
	"edb/internal/trace"
)

// workload caches one compiled-and-traced benchmark per process.
var (
	workloadOnce  sync.Once
	workloadTrace *trace.Trace
	workloadBytes []byte
	workloadErr   error
)

func testWorkload(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	workloadOnce.Do(func() {
		workloadTrace, workloadErr = loadgen.BuildTrace("qcd", 1)
		if workloadErr != nil {
			return
		}
		workloadBytes, workloadErr = loadgen.EncodeTrace(workloadTrace, 3)
	})
	if workloadErr != nil {
		t.Fatal(workloadErr)
	}
	return workloadTrace, workloadBytes
}

// startServer boots a server with the given config, registering
// cleanup drain.
func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv
}

func client(srv *serve.Server, tenant string) *loadgen.Client {
	return &loadgen.Client{BaseURL: "http://" + srv.Addr(), Tenant: tenant, MaxAttempts: 1}
}

func TestServerEndToEnd(t *testing.T) {
	_, payload := testWorkload(t)
	srv := startServer(t, serve.Config{StoreDir: t.TempDir(), Metrics: obsv.NewMetrics()})
	c := client(srv, "e2e")
	hdr := &serve.RequestHeader{Program: "qcd"}

	full := c.Submit(context.Background(), hdr, payload)
	if full.Failed() {
		t.Fatalf("full submission failed: code=%d err=%v", full.Code, full.Err)
	}
	if full.Sessions == 0 || full.ResultSHA == "" || full.Cached {
		t.Fatalf("suspicious first result: %+v", full)
	}

	// Identical resubmission: dedupe hit, identical result hash.
	again := c.Submit(context.Background(), hdr, payload)
	if again.Failed() || !again.Cached || again.ResultSHA != full.ResultSHA {
		t.Errorf("resubmission: cached=%v sha match=%v err=%v",
			again.Cached, again.ResultSHA == full.ResultSHA, again.Err)
	}

	// A session subset replays consistently and reports original
	// discovery indices (a different result, hence different hash).
	sub := c.Submit(context.Background(), &serve.RequestHeader{
		Sessions: serve.SessionSpec{MaxSessions: 5},
	}, payload)
	if sub.Failed() {
		t.Fatalf("subset submission failed: %v", sub.Err)
	}
	if sub.ResultSHA == full.ResultSHA || sub.Sessions >= full.Sessions {
		t.Errorf("subset did not subset: %d of %d sessions, sha equal=%v",
			sub.Sessions, full.Sessions, sub.ResultSHA == full.ResultSHA)
	}
}

// TestServerCrossTenantDedupe: tenant B rides tenant A's artifact via
// a hash-only submission — the trace crosses the wire once.
func TestServerCrossTenantDedupe(t *testing.T) {
	_, payload := testWorkload(t)
	srv := startServer(t, serve.Config{StoreDir: t.TempDir()})
	hdr := &serve.RequestHeader{}

	a := client(srv, "tenant-a").Submit(context.Background(), hdr, payload)
	if a.Failed() {
		t.Fatal(a.Err)
	}
	// Hash-only from another tenant: dedupe hit, same result.
	hb := *hdr
	hb.ContentSHA256 = serve.HashRequest(hdr, payload)
	b := client(srv, "tenant-b").Submit(context.Background(), &hb, nil)
	if b.Failed() || !b.Cached || b.ResultSHA != a.ResultSHA {
		t.Errorf("cross-tenant hash-only: cached=%v match=%v err=%v", b.Cached, b.ResultSHA == a.ResultSHA, b.Err)
	}
	// An unknown hash is a 404, telling the client to upload.
	hb.ContentSHA256 = "00000000000000000000000000000000" + "00000000000000000000000000000000"
	if miss := client(srv, "tenant-b").Submit(context.Background(), &hb, nil); miss.Code != http.StatusNotFound {
		t.Errorf("unknown hash: code = %d, want 404", miss.Code)
	}
	// SubmitHashFirst automates the fallback.
	hf := client(srv, "tenant-c").SubmitHashFirst(context.Background(), hdr, payload,
		serve.HashRequest(hdr, payload))
	if hf.Failed() || hf.ResultSHA != a.ResultSHA {
		t.Errorf("hash-first: err=%v match=%v", hf.Err, hf.ResultSHA == a.ResultSHA)
	}
}

func TestServerRateLimit(t *testing.T) {
	_, payload := testWorkload(t)
	srv := startServer(t, serve.Config{
		DefaultTenant: serve.TenantConfig{RatePerSec: 0.1, Burst: 1},
	})
	c := client(srv, "limited")
	hdr := &serve.RequestHeader{}
	first := c.Submit(context.Background(), hdr, payload)
	if first.Failed() {
		t.Fatalf("first request should pass: %v", first.Err)
	}
	second := c.Submit(context.Background(), hdr, payload)
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: code = %d, want 429", second.Code)
	}
	// An unthrottled neighbour is unaffected — rate limits are
	// per-tenant.
	if other := client(srv, "free").Submit(context.Background(), hdr, payload); other.Failed() {
		t.Errorf("neighbour throttled: %v", other.Err)
	}
}

func TestServerDeadline(t *testing.T) {
	_, payload := testWorkload(t)
	// A transient replay fault plus an enormous retry backoff: the
	// request cannot finish inside its deadline, so the deadline must
	// cut the backoff short and surface as 504.
	srv := startServer(t, serve.Config{
		Retries:      2,
		RetryBackoff: time.Hour,
	})
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "deadliner", Kind: fault.Transient, Times: 1,
	}))
	defer fault.Deactivate()
	c := client(srv, "deadliner")
	c.DeadlineMS = 50
	start := time.Now()
	res := c.Submit(context.Background(), &serve.RequestHeader{}, payload)
	if res.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d (err %v), want 504", res.Code, res.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline not enforced: took %s", elapsed)
	}
}

// TestServerStreamedReplay: a body over MaxBodyBuffer takes the
// spooled streaming path and produces a byte-identical result (same
// ResultSHA, same session count) to the fully-buffered path, and the
// artifact dedupes across the two decoders because the content hash is
// computed identically.
func TestServerStreamedReplay(t *testing.T) {
	_, payload := testWorkload(t)
	// Far below the envelope size: every submission here streams.
	srv := startServer(t, serve.Config{StoreDir: t.TempDir(), MaxBodyBuffer: 1024})
	buffered := startServer(t, serve.Config{StoreDir: t.TempDir()})
	hdr := &serve.RequestHeader{Program: "qcd"}

	want := client(buffered, "t").Submit(context.Background(), hdr, payload)
	if want.Failed() {
		t.Fatalf("buffered submission failed: code=%d err=%v", want.Code, want.Err)
	}
	got := client(srv, "t").Submit(context.Background(), hdr, payload)
	if got.Failed() {
		t.Fatalf("streamed submission failed: code=%d err=%v", got.Code, got.Err)
	}
	if got.ResultSHA != want.ResultSHA || got.Sessions != want.Sessions {
		t.Fatalf("streamed result diverges: sha %s vs %s, sessions %d vs %d",
			got.ResultSHA, want.ResultSHA, got.Sessions, want.Sessions)
	}
	if got.Cached {
		t.Fatal("first streamed submission claims a cache hit")
	}
	// Same submission again: the streamed decoder's incremental hash
	// must land on the stored artifact.
	again := client(srv, "t").Submit(context.Background(), hdr, payload)
	if again.Failed() || !again.Cached || again.ResultSHA != want.ResultSHA {
		t.Fatalf("streamed resubmission: cached=%v sha match=%v err=%v",
			again.Cached, again.ResultSHA == want.ResultSHA, again.Err)
	}
	// A shards field is accepted and ignored: the same question, so a
	// cache hit on the stored artifact.
	sharded := client(srv, "t").Submit(context.Background(),
		&serve.RequestHeader{Program: "qcd", Shards: 3}, payload)
	if sharded.Failed() || sharded.Sessions != want.Sessions {
		t.Fatalf("sharded streamed submission: code=%d sessions=%d err=%v",
			sharded.Code, sharded.Sessions, sharded.Err)
	}
	if sharded.ResultSHA != want.ResultSHA {
		t.Fatalf("sharded streamed result diverges: %s vs %s", sharded.ResultSHA, want.ResultSHA)
	}
	if !sharded.Cached {
		t.Fatal("sharded streamed submission missed the stored artifact")
	}
	// A corrupted envelope through the streaming decoder is still a
	// typed 400.
	bad := append([]byte(nil), payload...)
	bad[len(bad)/2] ^= 0x10
	if res := client(srv, "t").Submit(context.Background(), hdr, bad); res.Code != http.StatusBadRequest {
		t.Fatalf("corrupt streamed envelope: code=%d err=%v, want 400", res.Code, res.Err)
	}
}

func TestServerBadRequest(t *testing.T) {
	srv := startServer(t, serve.Config{})
	resp, err := http.Post("http://"+srv.Addr()+"/v1/replay", "application/octet-stream",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: code = %d, want 400", resp.StatusCode)
	}
}

// TestServerDrain: during a graceful drain, in-flight requests
// complete, new submissions are refused with 503 + Retry-After, and
// /healthz flips unhealthy so load balancers stop routing here.
func TestServerDrain(t *testing.T) {
	_, payload := testWorkload(t)
	srv, err := serve.New(serve.Config{
		Retries:      1,
		RetryBackoff: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	// A one-shot transient fault makes the in-flight request take one
	// ~300ms backoff — long enough to drain around it. The drain starts
	// once the fault has fired: the request is then inside its handler.
	fired := make(chan struct{}, 1)
	prev := fault.SetOnFire(func(site fault.Site, key string, _ fault.Kind) {
		if site == fault.SiteServeReplay && key == "slow" {
			select {
			case fired <- struct{}{}:
			default:
			}
		}
	})
	defer fault.SetOnFire(prev)
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "slow", Kind: fault.Transient, Times: 1,
	}))
	defer fault.Deactivate()

	inFlight := make(chan *loadgen.Result, 1)
	go func() {
		inFlight <- client(srv, "slow").Submit(context.Background(), &serve.RequestHeader{}, payload)
	}()
	select {
	case <-fired:
	case res := <-inFlight:
		t.Fatalf("the slow request finished before its replay fault fired: code=%d err=%v", res.Code, res.Err)
	case <-time.After(30 * time.Second):
		t.Fatal("the slow request never reached its replay fault")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	if resp, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz during drain: %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}
	late := client(srv, "late").Submit(context.Background(), &serve.RequestHeader{}, payload)
	if late.Code != http.StatusServiceUnavailable && late.Err == nil {
		t.Errorf("new submission during drain: code=%d err=%v, want refusal", late.Code, late.Err)
	}

	res := <-inFlight
	if res.Failed() {
		t.Errorf("in-flight request killed by drain: code=%d err=%v", res.Code, res.Err)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestServerExperiment: the /v1/experiment endpoint runs the full
// pipeline through the shared admission pool.
func TestServerExperiment(t *testing.T) {
	srv := startServer(t, serve.Config{})
	req, err := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+"/v1/experiment",
		io.NopCloser(strings.NewReader(`{"programs":["qcd"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-EDB-Tenant", "lab")
	req.Header.Set("X-EDB-Deadline-Ms", "120000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment: code = %d", resp.StatusCode)
	}
	var rows []struct {
		Program string `json:"program"`
		Error   string `json:"error"`
		Kept    int    `json:"kept_sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Program != "qcd" || rows[0].Error != "" || rows[0].Kept == 0 {
		t.Errorf("experiment rows: %+v", rows)
	}
}

// TestServerNoGoroutineLeak: a burst of mixed traffic (successes,
// rejections, deadline expiries) followed by a drain leaves no server
// goroutine behind.
func TestServerNoGoroutineLeak(t *testing.T) {
	_, payload := testWorkload(t)
	before := runtime.NumGoroutine()
	srv, err := serve.New(serve.Config{
		Workers:       2,
		DefaultTenant: serve.TenantConfig{MaxInFlight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client(srv, "leaky")
			if i%4 == 0 {
				c.DeadlineMS = 1 // some requests expire mid-flight
			}
			c.Submit(context.Background(), &serve.RequestHeader{}, payload)
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before, %d after drain\n%s", before, after,
			buf[:runtime.Stack(buf, true)])
	}
}
