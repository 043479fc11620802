// Command edb-serve runs the multi-tenant breakpoint service: a
// long-running daemon that accepts trace + session-set submissions
// over HTTP and streams back per-session replay results, built to
// survive overload, partial failure, and hostile input.
//
// Usage:
//
//	edb-serve                              # listen on 127.0.0.1:8080
//	edb-serve -addr :9090                  # custom listen address
//	edb-serve -workers 8 -queue 64         # pool capacity + per-tenant queue
//	edb-serve -store /var/lib/edb          # artifact store directory
//	edb-serve -rate 50 -burst 100          # default tenant rate limit
//	edb-serve -max-inflight 16             # default tenant quota
//	edb-serve -deadline 30s -max-deadline 5m
//	edb-serve -retries 2 -retry-backoff 10ms
//	edb-serve -breaker-threshold 5 -breaker-cooldown 1s
//	edb-serve -max-body-buffer 8388608     # spool larger bodies to disk
//	edb-serve -drain-timeout 30s           # SIGTERM grace period
//	edb-serve -metrics-out final.prom      # metrics snapshot on drain
//	edb-serve -selftest                    # build a workload, submit it
//	                                       # to ourselves, verify, exit
//
// Endpoints: POST /v1/replay (EDBS envelope → JSONL result stream),
// POST /v1/experiment (JSON → experiment summary), GET /metrics
// (Prometheus), GET /healthz (503 once draining).
//
// On SIGTERM or SIGINT the server drains: /healthz flips unhealthy,
// new submissions get 503 + Retry-After, in-flight requests finish
// (up to -drain-timeout), then the process exits 0. A second signal
// aborts immediately.
//
// Exit status: 0 clean drain or passing self-test; 1 fatal error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edb/internal/obsv"
	"edb/internal/safeio"
	"edb/internal/serve"
	"edb/internal/serve/loadgen"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", 0, "admission pool capacity (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "per-tenant admission queue bound (<0 = unbounded)")
		store       = flag.String("store", "", "artifact store directory (empty = no persistence)")
		rate        = flag.Float64("rate", 0, "default tenant token-bucket rate/s (0 = unlimited)")
		burst       = flag.Float64("burst", 0, "default tenant token-bucket burst")
		maxInflight = flag.Int("max-inflight", 0, "default tenant in-flight quota (0 = unlimited)")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines")
		retries     = flag.Int("retries", 1, "transient replay retries per submission")
		backoff     = flag.Duration("retry-backoff", 10*time.Millisecond, "initial retry backoff (jittered, doubling, capped)")
		brkThresh   = flag.Int("breaker-threshold", 5, "consecutive failures opening a (tenant, phase) circuit (0 = off)")
		brkCooldown = flag.Duration("breaker-cooldown", time.Second, "open-circuit cooldown")
		maxBytes    = flag.Int64("max-request-bytes", 0, "request envelope size cap (0 = 64MiB)")
		maxBodyBuf  = flag.Int64("max-body-buffer", 0, "in-memory body cap before spooled streaming decode (0 = 8MiB)")
		tenantCap   = flag.Int("tenant-label-cap", 32, "metrics tenant-label cardinality cap")
		drainT      = flag.Duration("drain-timeout", 30*time.Second, "graceful drain grace period")
		metricsOut  = flag.String("metrics-out", "", "write a final Prometheus metrics snapshot here on drain")
		seed        = flag.Int64("seed", 1, "retry-jitter seed")
		selftest    = flag.Bool("selftest", false, "serve, submit a built-in workload to ourselves, verify, exit")
	)
	flag.Parse()

	metrics := obsv.NewMetrics()
	cfg := serve.Config{
		Addr:             *addr,
		Workers:          *workers,
		QueuePerTenant:   *queue,
		DefaultTenant:    serve.TenantConfig{RatePerSec: *rate, Burst: *burst, MaxInFlight: *maxInflight},
		MaxRequestBytes:  *maxBytes,
		MaxBodyBuffer:    *maxBodyBuf,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		Retries:          *retries,
		RetryBackoff:     *backoff,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		StoreDir:         *store,
		Metrics:          metrics,
		TenantLabelCap:   *tenantCap,
		Seed:             *seed,
	}
	if *selftest {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "edb-serve: listening on %s\n", srv.Addr())

	if *selftest {
		os.Exit(runSelftest(srv, *drainT))
	}

	// Graceful drain on SIGTERM/SIGINT; a second signal aborts.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "edb-serve: %v: draining (grace %s)\n", sig, *drainT)
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Drain(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "edb-serve: drain: %v\n", err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "edb-serve: %v: aborting drain\n", sig)
		srv.Close()
	}
	if *metricsOut != "" {
		err := safeio.WriteFile(*metricsOut, func(w io.Writer) error {
			return metrics.WritePrometheus(w)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "edb-serve: metrics snapshot: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "edb-serve: drained")
}

// runSelftest submits the qcd workload to the freshly-started server
// twice — once full, once hash-only — and verifies both succeed with
// the same result hash and the second is a dedupe hit.
func runSelftest(srv *serve.Server, drainT time.Duration) int {
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainT)
		defer cancel()
		srv.Drain(ctx)
	}()
	tr, err := loadgen.BuildTrace("qcd", 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edb-serve: selftest: %v\n", err)
		return 1
	}
	payload, err := loadgen.EncodeTrace(tr, 3)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edb-serve: selftest: %v\n", err)
		return 1
	}
	c := &loadgen.Client{BaseURL: "http://" + srv.Addr(), Tenant: "selftest"}
	hdr := &serve.RequestHeader{Program: tr.Program}
	ctx := context.Background()
	full := c.Submit(ctx, hdr, payload)
	if full.Failed() {
		fmt.Fprintf(os.Stderr, "edb-serve: selftest: full submission failed: code=%d err=%v\n", full.Code, full.Err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "edb-serve: selftest: %d sessions, result %s, %.1fms\n",
		full.Sessions, full.ResultSHA[:12], float64(full.Latency.Microseconds())/1000)
	again := c.Submit(ctx, hdr, payload)
	if again.Failed() || again.ResultSHA != full.ResultSHA {
		fmt.Fprintf(os.Stderr, "edb-serve: selftest: resubmission mismatch: code=%d err=%v sha=%s\n",
			again.Code, again.Err, again.ResultSHA)
		return 1
	}
	fmt.Fprintln(os.Stderr, "edb-serve: selftest: ok")
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "edb-serve: %v\n", err)
	os.Exit(1)
}
