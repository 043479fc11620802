package exp

// The chaos differential harness: every registered fault-injection
// site is driven through a (kind × seed) sweep, and each faulted run
// must end in exactly one of two states:
//
//  1. a clean, typed error — fault.IsInjected sees the injection in
//     the chain (panics included, via WorkerError.Unwrap), or the
//     trace decoder reports a checksum mismatch for at-rest
//     corruption; or
//  2. results bit-identical to the fault-free baseline — when the
//     fault was transient and the bounded retry absorbed it.
//
// Anything else — a crashed process, a torn result, a silently wrong
// number — is a harness failure. TestChaosCoversEverySite keeps the
// map honest: adding a fault.Register call without a scenario here
// fails the suite.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"edb/internal/fault"
	"edb/internal/progs"
	"edb/internal/trace"
)

// chaosProgram is the benchmark the exp-pipeline scenarios run; one
// cold pipeline for it is ~a quarter second, so the full sweep stays
// cheap.
const chaosProgram = "bps"

// chaosScenarios maps every injection site to its harness scenario.
var chaosScenarios = map[fault.Site]func(t *testing.T){
	fault.SiteBuildArtifacts: func(t *testing.T) {
		chaosExpSite(t, fault.SiteBuildArtifacts,
			fault.Transient, fault.Permanent, fault.Panic)
	},
	fault.SiteSimReplay: func(t *testing.T) {
		chaosExpSite(t, fault.SiteSimReplay,
			fault.Transient, fault.Permanent, fault.Panic)
	},
	fault.SiteCPUFuel: func(t *testing.T) {
		chaosExpSite(t, fault.SiteCPUFuel,
			fault.Transient, fault.Permanent)
	},
	fault.SiteTraceWrite:   chaosTraceWrite,
	fault.SiteTraceRead:    chaosTraceRead,
	fault.SiteTraceCorrupt: chaosTraceCorrupt,

	// The serving-path sites are drilled against a live server in
	// internal/serve (chaos_test.go there), which this package cannot
	// import — serve builds on exp, so the drills live with the
	// server. TestServeChaosCoversEverySite over there plays the same
	// completeness role as TestChaosCoversEverySite here: every
	// "serve."-prefixed site must have a live-server drill.
	fault.SiteServeDecode:        chaosServeDelegated,
	fault.SiteServeDecodeCorrupt: chaosServeDelegated,
	fault.SiteServeAdmit:         chaosServeDelegated,
	fault.SiteServeReplay:        chaosServeDelegated,
	fault.SiteServeStoreRead:     chaosServeDelegated,
	fault.SiteServeStoreWrite:    chaosServeDelegated,
	fault.SiteServeRespond:       chaosServeDelegated,
	fault.SiteServeRepatch:       chaosServeDelegated,
}

// chaosServeDelegated records that a serving-path site's drill runs in
// internal/serve against a live server; here it only has to exist so
// the completeness check knows the site is owned, not forgotten.
func chaosServeDelegated(t *testing.T) {
	t.Skip("drilled live in internal/serve chaos_test.go")
}

// TestChaosCoversEverySite fails when a new injection point is
// registered without a chaos scenario.
func TestChaosCoversEverySite(t *testing.T) {
	for _, s := range fault.Sites() {
		if _, ok := chaosScenarios[s]; !ok {
			t.Errorf("fault site %q has no chaos scenario: add one to chaosScenarios", s)
		}
	}
	if len(chaosScenarios) != len(fault.Sites()) {
		t.Errorf("chaosScenarios has %d entries for %d sites (stale entry?)",
			len(chaosScenarios), len(fault.Sites()))
	}
}

// TestChaosDifferential runs every site's scenario.
func TestChaosDifferential(t *testing.T) {
	for _, site := range fault.Sites() {
		fn := chaosScenarios[site]
		if fn == nil {
			continue // TestChaosCoversEverySite reports this
		}
		t.Run(string(site), fn)
	}
}

// chaosBaseline runs the fault-free pipeline for chaosProgram.
func chaosBaseline(t *testing.T) *ProgramResult {
	t.Helper()
	fault.Deactivate()
	ResetCache()
	rs, err := Run(Config{Programs: []string{chaosProgram}, Workers: 1})
	if err != nil {
		t.Fatalf("fault-free baseline failed: %v", err)
	}
	return rs[0]
}

// chaosExpSite sweeps one experiment-pipeline site over every kind it
// honors × a handful of rule windows, checking the differential
// property against the baseline after each faulted run.
func chaosExpSite(t *testing.T, site fault.Site, kinds ...fault.Kind) {
	base := chaosBaseline(t)
	defer fault.Deactivate()
	defer ResetCache()

	for _, kind := range kinds {
		for seed := int64(0); seed < 3; seed++ {
			rule := fault.Rule{
				Site:  site,
				Key:   chaosProgram,
				Kind:  kind,
				After: uint64(seed), // vary which invocation faults
				Times: 1,
			}
			plan := fault.NewPlan(seed, rule)
			fault.Activate(plan)
			ResetCache() // cold pipeline so build-phase sites are reachable
			rs, err := Run(Config{
				Programs: []string{chaosProgram},
				Workers:  1,
				Retries:  2,
			})
			fault.Deactivate()

			label := kind.String()
			switch {
			case err == nil:
				// Either the retry absorbed a transient fault, or the
				// rule's window was never reached. Both are fine — but
				// the result must be bit-identical to the baseline.
				if plan.Fired(site) > 0 && kind != fault.Transient {
					t.Fatalf("%s seed %d: %s fault fired yet Run succeeded", label, seed, label)
				}
				sameResults(t, label, base, rs[0])
			case fault.IsInjected(err):
				// Clean typed failure. A transient fault must only
				// surface if the retry budget was exhausted, and then
				// the error must say so.
				if kind == fault.Transient && !strings.Contains(err.Error(), "giving up after") {
					t.Fatalf("%s seed %d: transient fault surfaced without retry exhaustion: %v",
						label, seed, err)
				}
				if kind == fault.Panic {
					var we *WorkerError
					if !errors.As(err, &we) {
						t.Fatalf("%s seed %d: injected panic not contained as WorkerError: %v",
							label, seed, err)
					}
					if len(we.Stack) == 0 || we.Program != chaosProgram {
						t.Fatalf("%s seed %d: WorkerError missing stack/program: %+v", label, seed, we)
					}
				}
			default:
				t.Fatalf("%s seed %d: untyped failure (injection lost from the chain): %v",
					label, seed, err)
			}
		}
	}

	// A one-shot transient fault absorbed by retry must actually have
	// fired — this proves the site is genuinely on the exercised path
	// (a mis-threaded injection point would vacuously "pass" the sweep).
	plan := fault.NewPlan(0, fault.Rule{
		Site: site, Key: chaosProgram, Kind: fault.Transient, Times: 1,
	})
	fault.Activate(plan)
	ResetCache()
	rs, err := Run(Config{Programs: []string{chaosProgram}, Workers: 1, Retries: 2})
	fault.Deactivate()
	if err != nil {
		t.Fatalf("transient+retry run failed: %v", err)
	}
	if plan.Fired(site) == 0 {
		t.Fatalf("site %s never fired: injection point not on the pipeline path", site)
	}
	sameResults(t, "transient-retry", base, rs[0])
}

// chaosTrace returns a real serialised trace for the codec scenarios
// (fault-free), from the cached artifacts of chaosProgram.
func chaosTrace(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	fault.Deactivate()
	p, err := progs.ByName(chaosProgram, 1)
	if err != nil {
		t.Fatal(err)
	}
	art, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, art.tr, trace.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return art.tr, buf.Bytes()
}

// chaosTraceWrite: injected serialisation failures surface as typed
// errors; a retried write is byte-identical to the baseline.
func chaosTraceWrite(t *testing.T) {
	tr, baseline := chaosTrace(t)
	defer fault.Deactivate()
	for _, kind := range []fault.Kind{fault.Transient, fault.Permanent} {
		for seed := int64(0); seed < 4; seed++ {
			fault.Activate(fault.NewPlan(seed, fault.Rule{
				Site: fault.SiteTraceWrite, Key: chaosProgram, Kind: kind,
				After: uint64(seed % 2), Times: 1,
			}))
			var got []byte
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				var buf bytes.Buffer
				err = trace.WriteTo(&buf, tr, trace.WriteOptions{})
				if err == nil {
					got = buf.Bytes()
					break
				}
				if !fault.IsTransient(err) {
					break
				}
			}
			fault.Deactivate()
			if err != nil {
				if kind == fault.Transient {
					t.Fatalf("seed %d: transient write fault not absorbed by retry: %v", seed, err)
				}
				if !fault.IsInjected(err) {
					t.Fatalf("seed %d: untyped write failure: %v", seed, err)
				}
				continue
			}
			if !bytes.Equal(got, baseline) {
				t.Fatalf("%s seed %d: retried write differs from baseline (%d vs %d bytes)",
					kind, seed, len(got), len(baseline))
			}
		}
	}
}

// chaosTraceRead: injected deserialisation failures surface as typed
// errors; a retried read decodes the baseline bytes identically.
func chaosTraceRead(t *testing.T) {
	tr, baseline := chaosTrace(t)
	defer fault.Deactivate()
	for _, kind := range []fault.Kind{fault.Transient, fault.Permanent} {
		for seed := int64(0); seed < 4; seed++ {
			fault.Activate(fault.NewPlan(seed, fault.Rule{
				Site: fault.SiteTraceRead, Kind: kind, // site is unkeyed
				After: uint64(seed % 2), Times: 1,
			}))
			var got *trace.Trace
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				got, err = trace.Read(bytes.NewReader(baseline))
				if err == nil {
					break
				}
				if !fault.IsTransient(err) {
					break
				}
			}
			fault.Deactivate()
			if err != nil {
				if kind == fault.Transient {
					t.Fatalf("seed %d: transient read fault not absorbed by retry: %v", seed, err)
				}
				if !fault.IsInjected(err) {
					t.Fatalf("seed %d: untyped read failure: %v", seed, err)
				}
				continue
			}
			// The decoded trace must re-encode to the exact baseline
			// bytes: nothing was lost or invented on the faulted path.
			var re bytes.Buffer
			if err := trace.WriteTo(&re, got, trace.WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), baseline) {
				t.Fatalf("%s seed %d: reread trace re-encodes differently", kind, seed)
			}
			if got.Program != tr.Program || got.BaseCycles != tr.BaseCycles {
				t.Fatalf("%s seed %d: reread trace header differs", kind, seed)
			}
		}
	}
}

// chaosTraceCorrupt: at-rest corruption (a bit flipped after the
// checksum was computed) must never decode — the CRC catches every
// seeded flip and reports it cleanly.
func chaosTraceCorrupt(t *testing.T) {
	tr, baseline := chaosTrace(t)
	defer fault.Deactivate()
	for seed := int64(0); seed < 32; seed++ {
		fault.Activate(fault.NewPlan(seed, fault.Rule{
			Site: fault.SiteTraceCorrupt, Key: chaosProgram, Kind: fault.Corrupt,
		}))
		var buf bytes.Buffer
		if err := trace.WriteTo(&buf, tr, trace.WriteOptions{}); err != nil {
			t.Fatalf("seed %d: corrupting write errored: %v", seed, err)
		}
		fault.Deactivate()
		if bytes.Equal(buf.Bytes(), baseline) {
			t.Fatalf("seed %d: corruption injection did not change the payload", seed)
		}
		_, err := trace.Read(bytes.NewReader(buf.Bytes()))
		if err == nil {
			t.Fatalf("seed %d: corrupted trace decoded successfully", seed)
		}
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("seed %d: corruption detected as %q, want checksum mismatch", seed, err)
		}
	}
}
