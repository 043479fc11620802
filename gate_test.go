// The bench gates: one table-driven harness over one baseline schema.
//
// Each suite in gateSuites owns one BENCH_*.json baseline, a fixture
// (its measured rows and its correctness preflight) and its declared
// bars. Everything else is shared: loading and saving the schema,
// stamping the host, measuring best-of-three, comparing against the
// baseline and regenerating files. Bars live here, not in the JSON, so
// a regeneration cannot move one.
//
// EDB_GATE selects the mode:
//
//	unset  check only the bars on the committed baselines (every
//	       `go test ./...`; reads JSON, no benchmarking);
//	1      also run each suite's preflight, measure its rows on this
//	       host and check the live bars (make gate-<suite>);
//	regen  as 1, after re-recording the suite's measured rows, host
//	       stamp and commit into its baseline.
//
// Select one suite with -run TestBenchGate/<suite>. A wall-clock
// comparison that fails against a baseline stamped with another host
// is reported as a "host mismatch" with both stamps, never as a
// "regression": it says nothing about the code until the baseline is
// re-recorded on this host, at the parent commit, in a commit of its
// own.
package edb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// hostStamp names the machine a baseline was recorded on.
type hostStamp struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// thisHost stamps the running machine; the CPU model comes from
// /proc/cpuinfo where there is one.
func thisHost() hostStamp {
	h := hostStamp{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	data, _ := os.ReadFile("/proc/cpuinfo")
	if m := regexp.MustCompile(`(?m)^model name\s*:\s*(.*?)\s*$`).FindSubmatch(data); m != nil {
		h.CPU = string(m[1])
	}
	return h
}

// gateRow is one measured row: ns_op, allocs_op and bytes_op per op,
// plus named derived metrics (events_per_sec, p99_ms, sim_cycles, ...).
type gateRow = map[string]float64

// gateBaseline is the one schema of every BENCH_*.json file.
type gateBaseline struct {
	Host     hostStamp          `json:"host"`
	Commit   string             `json:"commit"`
	Workload map[string]any     `json:"workload,omitempty"`
	Rows     map[string]gateRow `json:"rows"`
	Notes    []string           `json:"notes,omitempty"`
}

func loadBaseline(tb testing.TB, file string) *gateBaseline {
	data, err := os.ReadFile(file)
	check(tb, err)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b gateBaseline
	if err := dec.Decode(&b); err != nil || b.Host.GOOS == "" || b.Commit == "" {
		tb.Fatalf("%s: not a gate baseline with a host stamp and a commit (%v)", file, err)
	}
	return &b
}

// value looks up a key: a workload fact, or "<row> <metric>".
func (b *gateBaseline) value(key string) (any, bool) {
	if v, ok := b.Workload[key]; ok {
		return v, true
	}
	row, metric, _ := strings.Cut(key, " ")
	v, ok := b.Rows[row][metric]
	return v, ok
}

func (b *gateBaseline) num(key string) (float64, bool) {
	v, ok := b.value(key)
	f, err := strconv.ParseFloat(fmt.Sprint(v), 64)
	return f, ok && err == nil
}

func fnum(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// A bar is one declared inequality. Given the committed baseline and,
// when measured, the live values from this host, it returns one
// labelled message per failure.
type bar func(rec, lv *gateBaseline) []string

const (
	// Where a ratio, floor or equality bar applies: to the committed
	// baseline, to the values measured live on this host, or to both.
	recorded = 1 << iota
	live
	both = recorded | live

	// Wall-clock slack: what each gate's make target enforced before the
	// gates shared one harness. Allocation and byte slack is per bar.
	clockSlack   = 0.25
	serveSlack   = 1.00
	serveGraceMS = 25
)

// on applies fails — which says why one value set breaks the bar, or
// returns "" — where the bar applies.
func on(where int, fails func(v *gateBaseline) string) bar {
	return func(rec, lv *gateBaseline) (out []string) {
		if msg := fails(rec); where&recorded != 0 && msg != "" {
			out = append(out, "bad baseline: "+msg)
		}
		if lv != nil && where&live != 0 {
			if msg := fails(lv); msg != "" {
				out = append(out, "regression: "+msg)
			}
		}
		return out
	}
}

// below: row a's metric is at least k× below row b's (k·a ≤ b).
func below(k float64, metric, a, b string, where int) bar {
	a, b = a+" "+metric, b+" "+metric
	return on(where, func(v *gateBaseline) string {
		x, okx := v.num(a)
		y, oky := v.num(b)
		if okx && oky && x*k <= y {
			return ""
		}
		return fmt.Sprintf("%s %s is not %g× below %s %s", a, fnum(x), k, b, fnum(y))
	})
}

// valueOf names another value as a bar's expected value.
type valueOf string

// holds: a op want, for op "=", "≥" or ">", where want is a constant or
// a valueOf. Equality compares values as printed, so it covers strings.
func holds(a, op string, want any, where int) bar {
	return on(where, func(v *gateBaseline) string {
		got, ok := v.value(a)
		w, wok := want, true
		if key, isKey := want.(valueOf); isKey {
			w, wok = v.value(string(key))
		}
		x, y := fmt.Sprint(got), fmt.Sprint(w)
		xf, errx := strconv.ParseFloat(x, 64)
		yf, erry := strconv.ParseFloat(y, 64)
		if ok && wok && (x == y && op != ">" || op != "=" && errx == nil && erry == nil && xf > yf) {
			return ""
		}
		return fmt.Sprintf("%s is %s, want %s %s", a, x, op, y)
	})
}

// within: live a ≤ k × recorded a + plus. A failing wall-clock
// comparison against a baseline from another host is a host mismatch.
func within(a string, k, plus float64) bar {
	return func(rec, lv *gateBaseline) []string {
		want, ok := rec.num(a)
		if !ok {
			return []string{"bad baseline: no recorded " + a}
		}
		if lv == nil {
			return nil
		}
		got, measured := lv.num(a)
		if measured && got <= want*k+plus {
			return nil
		}
		msg := fmt.Sprintf("%s %s exceeds %g × recorded %s + %g", a, fnum(got), k, fnum(want), plus)
		if measured && rec.Host != lv.Host && (strings.HasSuffix(a, " ns_op") || strings.HasSuffix(a, "_ms")) {
			return []string{fmt.Sprintf("host mismatch: %s (recorded on %+v, measured on %+v)", msg, rec.Host, lv.Host)}
		}
		return []string{"regression: " + msg}
	}
}

// A gateSuite is one gate. A suite whose rows are benchmarked has a
// setup, which builds its fixture, runs its correctness preflight and
// returns its workload facts and measured ops; a suite measured in one
// pass has a soak instead.
type gateSuite struct {
	name, file string
	setup      func(tb testing.TB) (facts map[string]any, ops []gateOp)
	soak       func(t *testing.T) (facts map[string]any, rows map[string]gateRow)
	bars       []bar
}

// A gateOp is one measured row; events > 0 derives events_per_sec,
// instret > 0 derives mips (simulated instructions per microsecond).
type gateOp struct {
	row     string
	op      func(tb testing.TB)
	events  int
	instret uint64
}

func (o gateOp) bench(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.op(b)
	}
}

// measure is best of three: benchmark minima are far more stable than
// means, and a gate asks "can the code still run this fast".
func (o gateOp) measure(t *testing.T) gateRow {
	r := gateRow{}
	for i := 0; i < 3; i++ {
		res := testing.Benchmark(o.bench)
		if ns := float64(res.NsPerOp()); i == 0 || ns < r["ns_op"] {
			r["ns_op"] = ns
		}
		r["allocs_op"], r["bytes_op"] = float64(res.AllocsPerOp()), float64(res.AllocedBytesPerOp())
	}
	if o.events > 0 && r["ns_op"] > 0 {
		r["events_per_sec"] = math.Trunc(float64(o.events) / (r["ns_op"] / 1e9))
	}
	if o.instret > 0 && r["ns_op"] > 0 {
		r["mips"] = math.Round(float64(o.instret)/(r["ns_op"]/1e3)*100) / 100
	}
	t.Logf("%s: %s ns/op, %s allocs/op, %s B/op", o.row, fnum(r["ns_op"]), fnum(r["allocs_op"]), fnum(r["bytes_op"]))
	return r
}

// measure sets the suite up and measures it on this host.
func (s gateSuite) measure(t *testing.T) *gateBaseline {
	lv := &gateBaseline{Host: thisHost(), Rows: map[string]gateRow{}}
	if s.soak != nil {
		lv.Workload, lv.Rows = s.soak(t)
		return lv
	}
	var ops []gateOp
	lv.Workload, ops = s.setup(t)
	for _, o := range ops {
		lv.Rows[o.row] = o.measure(t)
	}
	return lv
}

// fold records a live measurement into the baseline. Rows the suite
// does not re-measure, and metrics it does not derive, stay.
func (b *gateBaseline) fold(lv *gateBaseline, commit string) {
	b.Host, b.Commit = lv.Host, commit
	if b.Workload == nil {
		b.Workload = map[string]any{}
	}
	maps.Copy(b.Workload, lv.Workload)
	for name, r := range lv.Rows {
		if b.Rows[name] == nil {
			b.Rows[name] = gateRow{}
		}
		maps.Copy(b.Rows[name], r)
	}
}

func (b *gateBaseline) save(tb testing.TB, file string) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	check(tb, enc.Encode(b))
	check(tb, os.WriteFile(file, buf.Bytes(), 0o644))
}

func TestBenchGate(t *testing.T) {
	mode := os.Getenv("EDB_GATE")
	if mode != "" && mode != "1" && mode != "regen" {
		t.Fatalf("EDB_GATE=%q: want 1 or regen", mode)
	}
	for _, s := range gateSuites {
		t.Run(s.name, func(t *testing.T) {
			rec := loadBaseline(t, s.file)
			var lv *gateBaseline
			if mode != "" {
				lv = s.measure(t)
			}
			if mode == "regen" {
				commit, err := exec.Command("git", "rev-parse", "HEAD").Output()
				check(t, err)
				rec.fold(lv, strings.TrimSpace(string(commit)))
				rec.save(t, s.file)
			}
			for _, br := range s.bars {
				for _, msg := range br(rec, lv) {
					t.Error(msg)
				}
			}
		})
	}
}

// BenchmarkGate runs every benchmarked suite's rows as plain
// benchmarks, after its setup and preflight but with no bars:
// go test -bench Gate/<suite>.
func BenchmarkGate(b *testing.B) {
	for _, s := range gateSuites {
		if s.setup != nil {
			b.Run(s.name, func(b *testing.B) {
				_, ops := s.setup(b)
				for _, o := range ops {
					b.Run(o.row, o.bench)
				}
			})
		}
	}
}

func check(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

var gateSuites = []gateSuite{
	// Observation off costs a nil check: the warm pipeline keeps its
	// recorded allocations, bytes and (within slack) time.
	{name: "obsv", file: "BENCH_pipeline.json", setup: obsvSetup, bars: []bar{
		within("ExpRunCached ns_op", 1+clockSlack, 0),
		within("ExpRunCached allocs_op", 1.02, 0),
		within("ExpRunCached bytes_op", 1.05, 0),
	}},
	// The flat replay core holds its numbers, and its baseline keeps
	// documenting the win over the pre-rewrite engine.
	{name: "replay", file: "BENCH_replay_core.json", setup: replaySetup, bars: []bar{
		within("SimReplay/sequential ns_op", 1+clockSlack, 0),
		within("SimReplay/sequential allocs_op", 1.02, 0),
		within("SimReplay/sequential bytes_op", 1.05, 0),
		within("SimReplay/sequential-prepassed ns_op", 1+clockSlack, 0),
		within("SimReplay/sequential-prepassed allocs_op", 1.02, 1),
		below(2, "ns_op", "SimReplay/sequential", "pre-rewrite/SimReplay/sequential", recorded),
		below(5, "allocs_op", "SimReplay/sequential", "pre-rewrite/SimReplay/sequential", recorded),
	}},
	// Streamed v3 replay beats v2 read+replay.
	{name: "trace", file: "BENCH_trace_store.json", setup: traceSetup, bars: []bar{
		below(2, "ns_op", "TraceReplayFile/v3-streamed-skip", "TraceReplayFile/v2-read-sequential", both),
		within("TraceReplayFile/v3-streamed-skip ns_op", 1+clockSlack, 0),
		within("TraceReplayFile/v3-streamed-skip allocs_op", 1.02, 1),
		holds("v2_bytes", ">", 0, recorded),
		holds("v3_bytes", ">", 0, recorded),
	}},
	// Survivability takes no slack; only p99 latency does.
	{name: "serve", file: "BENCH_serve.json", soak: serveSoak, bars: []bar{
		holds(soakRow+" failures", "=", 0, both),
		holds(soakRow+" inconsistent_specs", "=", 0, both),
		within(soakRow+" p99_ms", 1+serveSlack, serveGraceMS),
		holds("submissions", "≥", 1000, recorded),
		holds("tenants", "≥", 8, recorded),
		holds("specs", "≥", 8, recorded),
		holds(soakRow+" total", "=", valueOf("submissions"), recorded),
		holds(soakRow+" p99_ms", ">", 0, recorded),
		holds(soakRow+" throughput_rps", ">", 0, recorded),
	}},
	// Phase 1 holds its interpreter speed: each workload traced at
	// scale 1, after its trace matches the pinned digest.
	{name: "tracegen", file: "BENCH_tracegen.json", setup: tracegenSetup, bars: tracegenBars()},
	// Mutating a live image beats a stop-the-world rebuild by 3×.
	{name: "repatch", file: "BENCH_repatch.json", setup: repatchSetup, bars: []bar{
		below(3, "ns_op", "Repatch/incremental-watchset", "Repatch/full-rebuild", both),
		below(3, "ns_op", "Repatch/incremental-rewrite", "Repatch/full-rebuild", both),
		within("Repatch/incremental-watchset ns_op", 1+clockSlack, 0),
		within("Repatch/incremental-rewrite ns_op", 1+clockSlack, 0),
		holds("program", "=", "bps", recorded),
		holds("monitors", "=", repatchMonitors, recorded),
	}},
}
