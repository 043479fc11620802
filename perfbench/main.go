// Command perfbench is the repository's end-to-end benchmark: one Go
// process that drives a seeded workload through the public functions
// of the module's packages, checks the outputs, and prints the
// measurements as one JSON line.
//
//	go run ./perfbench --workload paper --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md): paper (the five-program experiment, cold
// and then rerun over cached artifacts), serve-mix (edb-serve in
// process under a seeded request mix) and debug-live (scripted
// debugger sessions under code-opt). With --trace 0 the run reports
// the end-to-end metrics of BENCHMARK.json; with --trace 1 it reports
// the per-layer metrics instead, prints the per-layer table, and
// writes the spans as Chrome trace JSON under .bench_build/perfbench.
//
// A run that completes prints the result object as the last line of
// standard output and exits 0; a run that cannot (no module checkout,
// an unknown workload) exits 1 without one:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// metric catalogue is kept there once, and a run must produce exactly
// the metrics it names.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// start is the process's first instant (main entry): set-up time
	// counts from here.
	start time.Time
	// outDir receives the traced run's Chrome trace JSON.
	outDir string
}

// deadline is the end of the measured loop that begins now.
func (c *runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// outcome is what a workload hands back: operation accounting and the
// measured metrics by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// op records one attempted operation; ok=false counts it failed and
// says why on standard error.
func (o *outcome) op(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runConfig) (*outcome, error){
	"paper":      runPaper,
	"serve-mix":  runServeMix,
	"debug-live": runDebugLive,
}

func main() {
	start := time.Now()
	// One busy core: on a small shared VM two busy cores draw
	// hypervisor steal that swamps the effects being measured, so the
	// program's own fan-out is held at one worker throughout.
	runtime.GOMAXPROCS(1)

	workload := flag.String("workload", "", "workload to run: paper, serve-mix or debug-live")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the measured loop in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	outDir := filepath.Join(".bench_build", "perfbench")
	if err := run(*workload, *seed, *seconds, *trace == 1, "BENCHMARK.json", outDir, start, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool, specPath, outDir string, start time.Time, stdout io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg := &runConfig{seed: seed, seconds: seconds, trace: trace, start: start, outDir: outDir}
	// Spool files the program writes (serve's spooled uploads) go to
	// the temporary directory: keep it inside the checkout.
	tmp, err := filepath.Abs(filepath.Join(cfg.outDir, "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}
	out, err := drive(cfg)
	if err != nil {
		return err
	}
	defs := spec.EndToEnd
	if trace {
		defs = spec.PerLayer
	} else {
		out.set("peak_rss_mb", peakRSSMiB())
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		// A per-layer metric of a layer this workload does not run is
		// a true zero; an end-to-end metric must always be measured.
		if !ok && !trace {
			return fmt.Errorf("workload %s did not measure %s", workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok && (trace || name != "peak_rss_mb") {
			return fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not list", workload, name)
		}
	}
	if trace {
		printLayerTable(stdout, workload, defs, out.metrics)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printLayerTable prints the traced run's per-layer ledger: every
// per-layer metric this workload measured, in BENCHMARK.json order.
func printLayerTable(w io.Writer, workload string, defs []metricDef, got map[string]float64) {
	fmt.Fprintf(w, "per-layer ledger: %s\n", workload)
	for _, d := range defs {
		if v, ok := got[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
