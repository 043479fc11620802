package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"edb/internal/exp"
	"edb/internal/model"
)

// End-to-end report golden: the SHA-256 of every rendered artifact of
// the five-program experiment at scale 1 under the paper's Table 2
// profile — the text report (report.All), both CSVs, and Figures 7–9
// as SVG. The replay golden (internal/sim/testdata/golden_replay.json)
// pins the counting variables; this pins everything downstream of
// them too (models, statistics, rendering), so a consolidation
// anywhere in the pipeline is held to the published numbers.
//
// The "all" digest equals the one the steady benchmark checks its
// cold run against (perfbench/recorded.go, recordedPaperReportSHA).
//
// Regenerate (only when an output change is intended and reviewed):
//
//	EDB_REGEN_GOLDEN=1 go test -run TestReportGolden ./internal/report/
const reportGoldenPath = "testdata/golden_report.json"

func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("report golden traces all five workloads; skipped in -short")
	}
	res, err := exp.RunContext(context.Background(), exp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(render func(*bytes.Buffer)) string {
		var b bytes.Buffer
		render(&b)
		sum := sha256.Sum256(b.Bytes())
		return hex.EncodeToString(sum[:])
	}
	got := map[string]string{
		"all":          digest(func(b *bytes.Buffer) { All(b, res, model.Paper) }),
		"csv":          digest(func(b *bytes.Buffer) { CSV(b, res) }),
		"sessions_csv": digest(func(b *bytes.Buffer) { SessionsCSV(b, res) }),
		"svg_7_8_9": digest(func(b *bytes.Buffer) {
			Figure7SVG(b, res)
			Figure8SVG(b, res)
			Figure9SVG(b, res)
		}),
	}

	if os.Getenv("EDB_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(reportGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", reportGoldenPath)
		return
	}

	data, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (EDB_REGEN_GOLDEN=1 to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded in the golden but not rendered", name)
		}
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest recorded (EDB_REGEN_GOLDEN=1 to add)", name)
		case g != w:
			t.Errorf("%s: report output drifted from golden:\n  got  %s\n  want %s\n"+
				"If this change is intended, regenerate with EDB_REGEN_GOLDEN=1 and review the diff.",
				name, g, w)
		}
	}
}
