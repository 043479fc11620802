package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"edb/internal/exp"
	"edb/internal/sim"
)

func TestCheckColdRejectsCorruptReport(t *testing.T) {
	out := newOutcome()
	checkCold(out, paperRun{report: []byte("not the paper's report")})
	if out.failed != 1 {
		t.Fatal("a report with the wrong digest passed")
	}
}

func TestCheckRerunRejectsChangedCounts(t *testing.T) {
	res := []*exp.ProgramResult{{Kept: []exp.SessionOutcome{{Counting: sim.Counting{Hits: 3}}}}}
	cold := countsOf(res)
	out := newOutcome()
	checkRerun(out, paperRun{res: res}, cold)
	if out.failed != 0 {
		t.Fatal("identical counts failed")
	}
	bad := []*exp.ProgramResult{{Kept: []exp.SessionOutcome{{Counting: sim.Counting{Hits: 4}}}}}
	checkRerun(out, paperRun{res: bad}, cold)
	if out.failed != 1 {
		t.Fatal("changed counts passed")
	}
}

func TestParseAnswer(t *testing.T) {
	good := `{"program":"qcd","num_sessions":2,"cached":true}
{"index":0}
{"index":5}
{"result_sha":"abc","elapsed_ms":1}
`
	cached, sha, err := parseAnswer([]byte(good))
	if err != nil || !cached || sha != "abc" {
		t.Fatalf("good answer: cached=%v sha=%q err=%v", cached, sha, err)
	}
	noTrailer := strings.Join(strings.Split(good, "\n")[:3], "\n") + "\n"
	if _, _, err := parseAnswer([]byte(noTrailer)); err == nil {
		t.Fatal("answer without a trailer passed")
	}
	missingRow := strings.Replace(good, "{\"index\":5}\n", "", 1)
	if _, _, err := parseAnswer([]byte(missingRow)); err == nil {
		t.Fatal("answer with a missing row passed")
	}
}

func TestServeCheckRejectsCorruptResultSHA(t *testing.T) {
	r := &serveRun{out: newOutcome(), results: make(map[string]string)}
	q := &serveReq{class: classMiss, q: question{prog: 1}}
	r.check(q, reply{code: 200, resultSHA: "aaaa"})
	hit := &serveReq{class: classHit, q: q.q}
	r.check(hit, reply{code: 200, cached: true, resultSHA: "aaaa"})
	if r.out.failed != 0 {
		t.Fatal("consistent answers failed")
	}
	r.check(hit, reply{code: 200, cached: true, resultSHA: "aaab"})
	if r.out.failed != 1 {
		t.Fatal("a corrupted result_sha for an answered question passed")
	}
}

func TestRecordedMapRejectsCorruption(t *testing.T) {
	order := make([]string, recordedQuestions)
	results := make(map[string]string)
	for i := range order {
		order[i] = strings.Repeat("k", i+1)
		results[order[i]] = "sha"
	}
	d := resultMapDigest(order, results, recordedQuestions)
	results[order[3]] = "shb"
	if resultMapDigest(order, results, recordedQuestions) == d {
		t.Fatal("corrupting one result_sha left the digest unchanged")
	}
	r := &serveRun{out: newOutcome(), order: order, results: results}
	r.checkRecordedMap(defaultSeed)
	if r.out.failed != 1 {
		t.Fatal("a result map that is not the recorded one passed")
	}
	r.checkRecordedMap(defaultSeed + 1) // other seeds have no record
	if r.out.failed != 1 || r.out.attempted != 1 {
		t.Fatal("the record was applied to another seed")
	}
}

func TestCheckDebuggeeRejectsCorruptOutput(t *testing.T) {
	out := newOutcome()
	checkDebuggee(out, "bps", recordedDebuggees["bps"].exit, "corrupted output")
	checkDebuggee(out, "bps", 7, "")
	if out.failed != 2 {
		t.Fatalf("%d of 2 wrong debuggee behaviours failed", out.failed)
	}
}

// TestResultLine drives run with a stand-in workload and checks the
// last line of output against BENCHMARK.json.
func TestResultLine(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	workloads["stand-in"] = func(cfg *runConfig) (*outcome, error) {
		o := newOutcome()
		o.op(true, "")
		for _, d := range spec.EndToEnd {
			if d.Name != "peak_rss_mb" {
				o.set(d.Name, 1.5)
			}
		}
		return o, nil
	}
	defer delete(workloads, "stand-in")
	t.Setenv("TMPDIR", t.TempDir()) // run points TMPDIR into its output directory
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("stand-in", 1, 1, false, "no-such-spec.json", dir, time.Now(), &buf); err == nil {
		t.Fatal("run found a spec that is not there")
	}
	if err := run("stand-in", 1, 1, false, "../BENCHMARK.json", dir, time.Now(), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(spec.EndToEnd) {
		t.Fatalf("%d metrics, BENCHMARK.json names %d end-to-end metrics", len(metrics), len(spec.EndToEnd))
	}
	for _, d := range spec.EndToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Fatalf("metric %s: %+v", d.Name, m)
		}
	}
}
