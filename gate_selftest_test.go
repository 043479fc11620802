// Self-tests of the bench-gate harness in gate_test.go. They run in
// every `go test ./...` and benchmark nothing: each bar kind must fail
// on a doctored baseline that breaks it, and a failing comparison
// against the baseline must say whether the host or the code moved.
package edb_test

import (
	"path/filepath"
	"strings"
	"testing"
)

var refHost = hostStamp{GOOS: "linux", GOARCH: "amd64", CPU: "Reference CPU", NumCPU: 1, GoVersion: "go1.24"}

func testBaseline(h hostStamp) *gateBaseline {
	return &gateBaseline{
		Host: h, Commit: "0000000",
		Workload: map[string]any{"program": "bps", "submissions": 1024.0},
		Rows: map[string]gateRow{
			"fast": {"ns_op": 100, "allocs_op": 10, "p99_ms": 5, "total": 1024},
			"slow": {"ns_op": 300, "allocs_op": 100},
		},
	}
}

func TestGateBarsCatchDoctoredBaselines(t *testing.T) {
	for _, c := range []struct {
		name   string
		bar    bar
		doctor func(b *gateBaseline)
	}{
		{"ratio", below(2, "ns_op", "fast", "slow", recorded),
			func(b *gateBaseline) { b.Rows["slow"]["ns_op"] = 199 }},
		{"ratio missing row", below(5, "allocs_op", "fast", "slow", recorded),
			func(b *gateBaseline) { delete(b.Rows, "slow") }},
		{"floor", holds("submissions", "≥", 1024, recorded),
			func(b *gateBaseline) { b.Workload["submissions"] = 1023.0 }},
		{"strict floor", holds("fast p99_ms", ">", 0, recorded),
			func(b *gateBaseline) { b.Rows["fast"]["p99_ms"] = 0 }},
		{"equality", holds("program", "=", "bps", recorded),
			func(b *gateBaseline) { b.Workload["program"] = "gcc" }},
		{"equality to a missing metric", holds("fast total", "=", 1024, recorded),
			func(b *gateBaseline) { delete(b.Rows["fast"], "total") }},
		{"equality between values", holds("fast total", "=", valueOf("submissions"), recorded),
			func(b *gateBaseline) { b.Rows["fast"]["total"] = 1000 }},
		{"slack against recorded", within("fast ns_op", 1.25, 0),
			func(b *gateBaseline) { delete(b.Rows, "fast") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if msgs := c.bar(testBaseline(refHost), nil); len(msgs) != 0 {
				t.Fatalf("intact baseline fails: %v", msgs)
			}
			b := testBaseline(refHost)
			c.doctor(b)
			if msgs := c.bar(b, nil); len(msgs) != 1 || !strings.HasPrefix(msgs[0], "bad baseline: ") {
				t.Fatalf("doctored baseline: got %q, want one bad-baseline failure", msgs)
			}
		})
	}
}

func TestGateLiveBarsAndLabels(t *testing.T) {
	other := refHost
	other.NumCPU, other.CPU = 2, "Other CPU"
	for _, c := range []struct {
		name string
		bar  bar
		host hostStamp
		edit func(lv *gateBaseline)
		want string // "" passes; otherwise the failure's label
	}{
		{"clock within slack, same host", within("fast ns_op", 1.25, 0), refHost,
			func(lv *gateBaseline) { lv.Rows["fast"]["ns_op"] = 125 }, ""},
		{"clock within slack, other host", within("fast ns_op", 1.25, 0), other,
			func(lv *gateBaseline) { lv.Rows["fast"]["ns_op"] = 125 }, ""},
		{"clock over slack, same host", within("fast ns_op", 1.25, 0), refHost,
			func(lv *gateBaseline) { lv.Rows["fast"]["ns_op"] = 126 }, "regression: "},
		{"clock over slack, other host", within("fast ns_op", 1.25, 0), other,
			func(lv *gateBaseline) { lv.Rows["fast"]["ns_op"] = 126 }, "host mismatch: "},
		{"latency over slack and grace, other host", within("fast p99_ms", 2, 25), other,
			func(lv *gateBaseline) { lv.Rows["fast"]["p99_ms"] = 35.5 }, "host mismatch: "},
		{"allocations over slack, other host", within("fast allocs_op", 1.02, 1), other,
			func(lv *gateBaseline) { lv.Rows["fast"]["allocs_op"] = 12 }, "regression: "},
		{"row not measured, other host", within("fast ns_op", 1.25, 0), other,
			func(lv *gateBaseline) { delete(lv.Rows, "fast") }, "regression: "},
		{"live ratio", below(3, "ns_op", "fast", "slow", both), other,
			func(lv *gateBaseline) { lv.Rows["slow"]["ns_op"] = 299 }, "regression: "},
		{"live equality", holds("fast total", "=", valueOf("submissions"), both), other,
			func(lv *gateBaseline) { lv.Rows["fast"]["total"] = 1000 }, "regression: "},
		{"recorded-only bar ignores live values", below(3, "ns_op", "fast", "slow", recorded), other,
			func(lv *gateBaseline) { lv.Rows["slow"]["ns_op"] = 299 }, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			lv := testBaseline(c.host)
			c.edit(lv)
			msgs := c.bar(testBaseline(refHost), lv)
			if c.want == "" {
				if len(msgs) != 0 {
					t.Fatalf("want a pass, got %q", msgs)
				}
				return
			}
			if len(msgs) != 1 || !strings.HasPrefix(msgs[0], c.want) {
				t.Fatalf("got %q, want one failure labelled %q", msgs, c.want)
			}
			if c.want == "host mismatch: " && !(strings.Contains(msgs[0], "Reference CPU") && strings.Contains(msgs[0], "Other CPU")) {
				t.Errorf("host mismatch must print both stamps: %s", msgs[0])
			}
		})
	}
}

// TestGateFoldKeepsUnmeasured: regeneration replaces only what the
// suite measured, so rows it does not measure (pre-rewrite numbers,
// unmeasured variants) and metrics it does not derive survive.
func TestGateFoldKeepsUnmeasured(t *testing.T) {
	b := testBaseline(refHost)
	lv := &gateBaseline{Host: hostStamp{GOOS: "plan9"}, Workload: map[string]any{"submissions": 2048},
		Rows: map[string]gateRow{"fast": {"ns_op": 90, "allocs_op": 9}, "new": {"ns_op": 1}}}
	b.fold(lv, "abc")
	if b.Host.GOOS != "plan9" || b.Commit != "abc" {
		t.Errorf("stamp not re-recorded: %+v %q", b.Host, b.Commit)
	}
	if b.Rows["fast"]["ns_op"] != 90 || b.Rows["fast"]["p99_ms"] != 5 || b.Rows["slow"]["ns_op"] != 300 || b.Rows["new"]["ns_op"] != 1 {
		t.Errorf("fold lost or missed rows: %+v", b.Rows)
	}
	if b.Workload["submissions"] != 2048 || b.Workload["program"] != "bps" {
		t.Errorf("fold lost or missed facts: %+v", b.Workload)
	}
}

// TestGateBaselinesShareOneSchema: every BENCH_*.json file loads under
// the one schema with a host stamp and a commit, and records each row
// once.
func TestGateBaselinesShareOneSchema(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json baselines: %v", err)
	}
	owner := map[string]string{}
	for _, f := range files {
		for row := range loadBaseline(t, f).Rows {
			if prev, dup := owner[row]; dup {
				t.Errorf("row %s is recorded in both %s and %s", row, prev, f)
			}
			owner[row] = f
		}
	}
}
