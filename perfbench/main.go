// Command perfbench is the repository's benchmark. It drives the SAG solver
// and the solve service through their public entry points only — core.Run,
// and serve.NewServer + Handler() on a loopback listener — and measures
// three workloads from one process:
//
//	gac-sweep      offline paper regeneration: GAC core.Run, one op at a time
//	serve-mix      the service under users who wait for their answers:
//	               closed-loop cold SAMC solves, cache hits and streamed grid
//	               batches, in memory, then a short open-loop phase
//	resolve-chain  a planner editing deployments: closed-loop /v1/resolve
//
// Usage (from the repository root, through perfbench/run.sh; every path the
// benchmark reads or writes is relative to that root):
//
//	perfbench --workload serve-mix --seed 3 --seconds 30 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it runs a short untraced phase, then a traced phase (the
// benchmark's own spans, the span trees the program returns, counter deltas
// and a CPU profile) and reports the per-layer metrics. Every answer is
// checked outside the timed phase; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and a wrong answer makes
// the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects everything one run measured.
type report struct {
	Workload string
	Seed     int64
	Traced   bool
	// E2E are the end-to-end metrics of an untraced run (BENCHMARK.json
	// end_to_end); Layers the per-layer metrics of a traced run
	// (BENCHMARK.json per_layer). Extra are further end-to-end figures that
	// apply to only some workloads (per request kind, failure share); they
	// are printed and recorded but not part of the contract line.
	E2E    []metric
	Layers []metric
	Extra  []metric
	// Attempted and Failed count ops in the timed phases. An op fails when
	// it errored, was shed, came back degraded, or its answer was wrong.
	Attempted, Failed int
	// Wrong lists every answer that failed a check; any entry makes the
	// run incorrect.
	Wrong []string
	// Info holds run parameters worth recording beside the numbers (tail
	// percentile and sample count, arrival rate, mix shares, check counts).
	Info map[string]any
}

func (r *report) e2e(name string, v float64, unit string) {
	r.E2E = append(r.E2E, metric{name, v, unit})
}
func (r *report) extra(name string, v float64, unit string) {
	r.Extra = append(r.Extra, metric{name, v, unit})
}
func (r *report) info(k string, v any) { r.Info[k] = v }

// wrongf records a failed check.
func (r *report) wrongf(format string, args ...any) {
	r.Wrong = append(r.Wrong, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// duration is the timed-phase length.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// buildDir is where runs keep their result records, relative
// to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// workload is one benchmark workload.
type workload struct {
	name string
	// run performs the set-up repetitions, the timed phase(s) and the
	// answer checks, filling the report.
	run func(o options, r *report) error
	// reference solves the workload's fixed reference inputs (independent
	// of --seed) and returns their answers, compared against
	// reference.json.
	reference func() ([]refAnswer, error)
}

var workloads = []workload{
	{name: "gac-sweep", run: runGACSweep, reference: gacReference},
	{name: "serve-mix", run: runServeMix, reference: serveMixReference},
	{name: "resolve-chain", run: runResolveChain, reference: resolveChainReference},
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gac-sweep | serve-mix | resolve-chain")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	record := fs.Bool("record-reference", false, "solve every workload's reference inputs and write perfbench/reference.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordReference(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want gac-sweep, serve-mix or resolve-chain)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	r := &report{Workload: w.name, Seed: o.seed, Traced: o.trace, Info: map[string]any{}}
	if err := w.run(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !o.trace {
		r.e2e("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err := checkReference(w, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: reference check: %v\n", w.name, err)
		return 1
	}
	if r.Attempted > 0 {
		r.extra("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	host := hostInfo()
	printReport(stdout, r, host)
	if err := writeRecord(o, r, host); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result record:", err)
	}
	if err := printContract(stdout, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(r.Wrong) > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable report: host, every metric by name
// with its unit, run information and any wrong answers.
func printReport(w io.Writer, r *report, host map[string]any) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s)\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "host: nproc=%v gomaxprocs=%v cpu=%q go=%v kernel=%v\n",
		host["nproc"], host["gomaxprocs"], host["cpu_model"], host["go_version"], host["kernel"])
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"end-to-end", r.E2E}, {"end-to-end (workload-specific)", r.Extra}, {"per-layer", r.Layers}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:\n", group.title)
		for _, m := range group.ms {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "info: %s = %v\n", k, r.Info[k])
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d wrong=%d\n", r.Attempted, r.Failed, len(r.Wrong))
	for i, s := range r.Wrong {
		if i == 20 {
			fmt.Fprintf(w, "WRONG: ... %d more\n", len(r.Wrong)-i)
			break
		}
		fmt.Fprintf(w, "WRONG: %s\n", s)
	}
}

// printContract writes the last stdout line: the result object the
// benchmark contract defines.
func printContract(w io.Writer, r *report) error {
	ms := r.E2E
	if r.Traced {
		ms = r.Layers
	}
	metrics := make(map[string]any, len(ms))
	for _, m := range ms {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.Wrong) == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeRecord keeps the whole report, host block included, as JSON under
// .bench_build/results so compare.py can set two sets of runs side by side.
func writeRecord(o options, r *report, host map[string]any) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	asMap := func(ms []metric) map[string]any {
		out := make(map[string]any, len(ms))
		for _, m := range ms {
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		return out
	}
	doc := map[string]any{
		"schema":    "perfbench/record/v1",
		"workload":  r.Workload,
		"seed":      r.Seed,
		"traced":    r.Traced,
		"when":      time.Now().UTC().Format(time.RFC3339),
		"host":      host,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"wrong":     r.Wrong,
		"metrics":   asMap(append(append(append([]metric(nil), r.E2E...), r.Extra...), r.Layers...)),
		"info":      r.Info,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if r.Traced {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, mode, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}

// hostInfo is the host fingerprint recorded with every run, so numbers from
// different machines are never compared silently.
func hostInfo() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  "unknown",
		"kernel":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	return h
}
