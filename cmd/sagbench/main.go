// Command sagbench regenerates the tables and figures of the paper's
// evaluation (Section IV).
//
// Usage:
//
//	sagbench -exp fig3a            # one artifact, ASCII table to stdout
//	sagbench -exp all -runs 10     # everything, paper-strength averaging
//	sagbench -exp fig7b -csv out/  # also write CSV files into a directory
//	sagbench -list                 # list artifact IDs
//	sagbench -bench-json BENCH.json  # machine-readable solver benchmarks
//	sagbench -exp fig3a -cpuprofile cpu.prof  # profile it (go tool pprof)
//
// Figures involving the ILP solvers (IAC/GAC) take minutes at full runs;
// -runs 1 gives a quick qualitative pass.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"sagrelay/internal/experiment"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sagbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("sagbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "experiment id (or 'all')")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		runs     = fs.Int("runs", 3, "seeded repetitions per data point (paper: 10)")
		seed     = fs.Int64("seed", 1, "base seed")
		csvDir   = fs.String("csv", "", "directory to also write <id>.csv files into")
		svgDir   = fs.String("svg", "", "directory to write fig6 SVG panels into (fig6 only)")
		grid     = fs.Float64("grid", 15, "GAC grid size (where not swept)")
		maxNodes = fs.Int("max-nodes", 0, "branch-and-bound node cap per zone (0 = default)")
		zoneTO   = fs.Duration("zone-timeout", 0, "branch-and-bound time cap per zone (0 = default)")
		timeout  = fs.Duration("timeout", 0, "deadline for the whole invocation, e.g. 10m (0 = unbounded)")
		workers  = fs.Int("workers", 0, "concurrent solves per experiment (0 = all CPUs, 1 = sequential)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		chart    = fs.Bool("chart", false, "also render each artifact as an ASCII chart")
		traceOut = fs.String("trace-out", "",
			"write the invocation's span tree (every solve of every experiment) as JSON to this file")
		benchJSON = fs.String("bench-json", "",
			"run the solver benchmark suite and write machine-readable results (BENCH_<n>.json) to this file")
		cpuProfile = fs.String("cpuprofile", "",
			"write a CPU profile of the whole invocation (experiments or -bench-json) to this file, for go tool pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		stop, perr := startCPUProfile(*cpuProfile)
		if perr != nil {
			return perr
		}
		// err is run's named result: a failed close fails an otherwise
		// successful invocation.
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}
	if *benchJSON != "" {
		return runBenchJSON(*benchJSON)
	}
	if *list {
		fmt.Println(strings.Join(experiment.IDs(), "\n"))
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("sagbench")
		ctx = obs.WithTrace(ctx, tr)
	}
	cfg := experiment.Config{
		Runs:    *runs,
		Seed:    *seed,
		Workers: *workers,
		Ctx:     ctx,
		ILP: lower.ILPOptions{
			GridSize:  *grid,
			MaxNodes:  *maxNodes,
			TimeLimit: *zoneTO,
			Workers:   *workers,
		},
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiment.Run(id, cfg)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("%s abandoned: deadline of %v exceeded", id, *timeout)
			}
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tbl.ASCII())
		if *chart {
			fmt.Println(tbl.Chart(0, 0))
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				return err
			}
		}
		if id == "fig6" && *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				return err
			}
			paths, err := experiment.Fig6SVGs(cfg, *svgDir)
			if err != nil {
				return fmt.Errorf("fig6 SVGs: %w", err)
			}
			fmt.Printf("wrote %d SVG panels to %s\n", len(paths), *svgDir)
		}
	}
	if tr != nil {
		tr.Finish()
		doc, err := json.MarshalIndent(tr.Doc(), "", "  ")
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := os.WriteFile(*traceOut, append(doc, '\n'), 0o644); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}

// startCPUProfile starts a CPU profile written to path. The returned func
// stops it and closes the file.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}
