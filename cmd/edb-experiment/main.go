// Command edb-experiment reproduces the paper's evaluation: it runs the
// two-phase simulation experiment over the five benchmark workloads and
// prints Tables 1-4 and Figures 7-9 (or a chosen subset).
//
// Usage:
//
//	edb-experiment                         # everything
//	edb-experiment -table 4                # one table
//	edb-experiment -figure 9               # one figure
//	edb-experiment -programs gcc,bps       # subset of workloads
//	edb-experiment -csv results.csv        # machine-readable Table 4
//	edb-experiment -sessions sessions.csv  # per-session overheads
//	edb-experiment -scale 2                # longer runs
//	edb-experiment -workers 1              # one benchmark at a time (default:
//	                                       # GOMAXPROCS-wide fan-out)
//	edb-experiment -keep-going             # report partial results with
//	                                       # n/a rows instead of failing
//	edb-experiment -timeout 5m             # bound the whole run
//	edb-experiment -retries 2              # retry transient failures
//	edb-experiment -progress               # live stderr status line
//	edb-experiment -trace-out t.json       # Perfetto-loadable span trace
//	edb-experiment -timeline-out t.txt     # human-readable span timeline
//	edb-experiment -metrics-out m.prom     # Prometheus-format metrics
//
// Output is byte-identical for every -workers value: the pipeline's
// parallelism never changes results, only wall-clock time. File
// outputs (-csv, -sessions, -svg) are written atomically: a crash or
// error mid-write never leaves a torn file under the final name.
//
// Exit status: 0 on full success; 1 on a fatal error; 2 when
// -keep-going completed with partial results (some benchmarks failed).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"edb/internal/exp"
	"edb/internal/model"
	"edb/internal/obsv"
	"edb/internal/report"
	"edb/internal/safeio"
)

func main() {
	scale := flag.Int("scale", 1, "workload run-length multiplier")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"benchmarks compiled/traced/analysed concurrently (results are identical for any value)")
	programs := flag.String("programs", "", "comma-separated benchmark subset (default: all five)")
	table := flag.Int("table", 0, "print only table N (1-4)")
	figure := flag.Int("figure", 0, "print only figure N (7-9)")
	breakdown := flag.Bool("breakdown", false, "print only the overhead breakdown")
	expansion := flag.Bool("expansion", false, "print only the CodePatch space analysis")
	csvPath := flag.String("csv", "", "also write Table 4 data as CSV to this file")
	sessionsPath := flag.String("sessions", "", "also write per-session overheads as CSV to this file")
	svgPrefix := flag.String("svg", "", "also write figures 7-9 as SVG files with this path prefix")
	keepGoing := flag.Bool("keep-going", false,
		"report partial results (failed benchmarks as n/a) instead of aborting on the first failure")
	timeout := flag.Duration("timeout", 0, "bound the whole run (0 = no deadline)")
	retries := flag.Int("retries", 0, "retry a benchmark up to N times after a transient failure")
	progressFlag := flag.Bool("progress", false, "stream a live per-phase status line to stderr")
	traceOut := flag.String("trace-out", "", "write pipeline spans as Chrome trace_event JSON (Perfetto-loadable) to this file")
	timelineOut := flag.String("timeline-out", "", "write pipeline spans as a human-readable text timeline to this file")
	metricsOut := flag.String("metrics-out", "", "write pipeline metrics in Prometheus text format to this file")
	flag.Parse()

	cfg := exp.Config{
		Scale:     *scale,
		Workers:   *workers,
		KeepGoing: *keepGoing,
		Retries:   *retries,
	}
	if *programs != "" {
		cfg.Programs = strings.Split(*programs, ",")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Observation sinks: spans/metrics are collected only when an output
	// (or -progress) asks for them, so the default path stays unobserved.
	var tr *obsv.Tracer
	if *traceOut != "" || *timelineOut != "" {
		tr = obsv.NewTracer(0)
		cfg.Tracer = tr
	}
	var ms *obsv.Metrics
	if *metricsOut != "" {
		ms = obsv.NewMetrics()
		cfg.Metrics = ms
	}
	var prog *progress
	if *progressFlag {
		prog = newProgress(os.Stderr)
		cfg.Observer = prog
	}
	fmt.Fprintf(os.Stderr, "running experiment (scale %d, %d workers)...\n", *scale, *workers)
	results, err := exp.RunContext(ctx, cfg)
	if prog != nil {
		prog.Close()
	}
	// Observation artifacts are flushed even when the run failed: a
	// partial trace of a failed run is exactly when you want the trace.
	if tr != nil {
		if *traceOut != "" {
			writeAtomic(*traceOut, tr.WriteChromeTrace)
		}
		if *timelineOut != "" {
			writeAtomic(*timelineOut, tr.WriteText)
		}
	}
	if ms != nil {
		writeAtomic(*metricsOut, ms.WritePrometheus)
	}
	partial := false
	if err != nil {
		if re, ok := err.(*exp.RunError); ok && *keepGoing {
			// Partial results: render what succeeded, flag the rest.
			partial = true
			fmt.Fprintln(os.Stderr, "edb-experiment:", re)
		} else {
			fatal(err)
		}
	}

	w := os.Stdout
	switch {
	case *table == 1:
		report.Table1(w, results)
	case *table == 2:
		report.Table2(w, model.Paper)
	case *table == 3:
		report.Table3(w, results)
	case *table == 4:
		report.Table4(w, results)
	case *figure == 7:
		report.Figure7(w, results)
	case *figure == 8:
		report.Figure8(w, results)
	case *figure == 9:
		report.Figure9(w, results)
	case *breakdown:
		report.Breakdown(w, results)
	case *expansion:
		report.Expansion(w, results)
	default:
		report.All(w, results, model.Paper)
	}

	if *csvPath != "" {
		writeAtomic(*csvPath, func(w io.Writer) error {
			report.CSV(w, results)
			return nil
		})
	}
	if *svgPrefix != "" {
		renders := map[string]func(io.Writer){
			"fig7.svg": func(w io.Writer) { report.Figure7SVG(w, results) },
			"fig8.svg": func(w io.Writer) { report.Figure8SVG(w, results) },
			"fig9.svg": func(w io.Writer) { report.Figure9SVG(w, results) },
		}
		for name, render := range renders {
			writeAtomic(*svgPrefix+name, func(w io.Writer) error {
				render(w)
				return nil
			})
		}
	}
	if *sessionsPath != "" {
		writeAtomic(*sessionsPath, func(w io.Writer) error {
			report.SessionsCSV(w, results)
			return nil
		})
	}
	if partial {
		os.Exit(2)
	}
}

// writeAtomic writes one output artifact via safeio (temp file + fsync
// + rename) and treats any failure — including Flush/Close — as fatal.
func writeAtomic(path string, render func(io.Writer) error) {
	if err := safeio.WriteFile(path, render); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edb-experiment:", err)
	os.Exit(1)
}
