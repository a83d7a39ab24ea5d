package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/core"
	"sagrelay/internal/experiment"
	"sagrelay/internal/geom"
	"sagrelay/internal/incr"
	"sagrelay/internal/lower"
	"sagrelay/internal/lp"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// benchSchema versions the BENCH_*.json layout so downstream tooling can
// detect format changes across PRs.
const benchSchema = "sagbench/bench/v1"

// benchEntry is one benchmark's record in the JSON document. Solver-effort
// fields (bb_nodes, lp_pivots, warm/cold solves) are per-op for the micro
// benches and whole-run totals for the figure benches; both are exact —
// measured on deterministic workloads, not sampled.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Seconds     float64 `json:"seconds"`
	BBNodes     float64 `json:"bb_nodes,omitempty"`
	LPPivots    float64 `json:"lp_pivots,omitempty"`
	WarmSolves  float64 `json:"warm_solves,omitempty"`
	ColdSolves  float64 `json:"cold_solves,omitempty"`
	// Incremental re-solve benches only: zones spliced from the zone-level
	// stores vs zones actually re-solved.
	ZonesReused   int64 `json:"zones_reused,omitempty"`
	ZonesResolved int64 `json:"zones_resolved,omitempty"`
}

type benchDoc struct {
	Schema  string       `json:"schema"`
	Go      string       `json:"go"`
	When    string       `json:"when"`
	Benches []benchEntry `json:"benches"`
}

// solverCounters snapshots the process-wide solver-effort metrics so a
// workload's exact cost can be reported as a delta.
type solverCounters struct {
	nodes      int64
	pivots     float64
	warm, cold int64
}

func snapshotCounters() solverCounters {
	var pivots float64
	for _, h := range obs.Default.Histograms() {
		if h.Name() == "sag_lp_pivots_per_solve" {
			pivots = h.Sum()
		}
	}
	warm, cold := lp.WarmStats()
	return solverCounters{nodes: milp.TotalNodes(), pivots: pivots, warm: warm, cold: cold}
}

func (c solverCounters) delta() solverCounters {
	now := snapshotCounters()
	return solverCounters{
		nodes:  now.nodes - c.nodes,
		pivots: now.pivots - c.pivots,
		warm:   now.warm - c.warm,
		cold:   now.cold - c.cold,
	}
}

// runBenchJSON runs the internal/lp and internal/milp micro-benchmarks plus
// two representative figure benches (one GAC, one IAC artifact) and writes
// the results as JSON to path, so the perf trajectory is tracked across
// PRs in BENCH_<n>.json files.
func runBenchJSON(path string) error {
	fmt.Fprintf(os.Stderr, "running benchmark suite (this takes a minute)...\n")
	doc := benchDoc{
		Schema: benchSchema,
		Go:     runtime.Version(),
		When:   time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()

	// --- internal/lp micro-benches on the shared ILPQC relaxation. ---
	rel := benchprob.ILPQCRelaxation()
	solver := lp.NewSolver()
	probe, err := solver.Solve(rel, nil, nil)
	if err != nil {
		return fmt.Errorf("bench lp cold: %w", err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(rel, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benches = append(doc.Benches, entryFrom("lp/ilpqc-cold-reused", r, benchEntry{
		LPPivots: float64(probe.Iterations),
	}))

	parent, err := solver.WarmSolve(ctx, rel, nil, nil, nil)
	if err != nil {
		return fmt.Errorf("bench lp warm parent: %w", err)
	}
	fix := map[int]float64{0: 1}
	warmProbe, err := solver.WarmSolve(ctx, rel, fix, nil, parent.Basis)
	if err != nil {
		return fmt.Errorf("bench lp warm: %w", err)
	}
	if !warmProbe.WarmStarted {
		return fmt.Errorf("bench lp warm: the parent basis failed on the fixture and the solve fell back down the ladder")
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.WarmSolve(ctx, rel, fix, nil, parent.Basis); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benches = append(doc.Benches, entryFrom("lp/ilpqc-warm-child", r, benchEntry{
		LPPivots:   float64(warmProbe.Iterations),
		WarmSolves: 1,
	}))

	// --- internal/milp micro-bench: full branch-and-bound on ILPQC. ---
	prob, isInt := benchprob.ILPQC()
	milpProbe, err := milp.Solve(ctx, prob, isInt, milp.Options{})
	if err != nil {
		return fmt.Errorf("bench milp: %w", err)
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := milp.Solve(ctx, prob, isInt, milp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benches = append(doc.Benches, entryFrom("milp/ilpqc-bnb", r, benchEntry{
		BBNodes:    float64(milpProbe.Nodes),
		LPPivots:   float64(milpProbe.Pivots),
		WarmSolves: float64(milpProbe.WarmSolves),
		ColdSolves: float64(milpProbe.ColdSolves),
	}))

	// --- Representative figure benches: fig3a (GAC sweep) and fig4b (IAC
	// runtime artifact), one deterministic run each, whole-run totals. ---
	for _, id := range []string{"fig3a", "fig4b"} {
		cfg := experiment.Config{
			Runs:    1,
			Seed:    1,
			Workers: 1,
			Ctx:     ctx,
			ILP:     lower.ILPOptions{MaxNodes: 250, TimeLimit: time.Hour, Workers: 1},
		}
		before := snapshotCounters()
		start := time.Now()
		if _, err := experiment.Run(id, cfg); err != nil {
			return fmt.Errorf("bench %s: %w", id, err)
		}
		elapsed := time.Since(start)
		d := before.delta()
		doc.Benches = append(doc.Benches, benchEntry{
			Name:       "experiment/" + id,
			NsPerOp:    float64(elapsed.Nanoseconds()),
			Iterations: 1,
			Seconds:    elapsed.Seconds(),
			BBNodes:    float64(d.nodes),
			LPPivots:   d.pivots,
			WarmSolves: float64(d.warm),
			// Nodes not warm-started were solved cold, i.e. not from their
			// parent's basis: the per-zone tree roots (slack basis) plus the
			// nodes whose parent basis failed and walked the lp fallback
			// ladder. d.cold counts every ladder walk, roots and power LPs
			// included.
			ColdSolves: float64(d.nodes - d.warm),
		})
	}

	// --- Incremental re-solve bench: the ISSUE's headline workload. One
	// subscriber moves a few meters; the cold path re-solves everything, the
	// incremental path re-solves only the dirty zone and splices the rest. ---
	incrBenches, err := benchIncremental(ctx)
	if err != nil {
		return fmt.Errorf("bench incr: %w", err)
	}
	doc.Benches = append(doc.Benches, incrBenches...)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d benches to %s\n", len(doc.Benches), path)
	return nil
}

// benchIncremental measures the cold-vs-incremental gap for a single
// subscriber move on a multi-zone IAC instance. Both solves are timed once
// on identical inputs (the workloads are deterministic), with exact
// branch-and-bound node counts and zone reuse counters as deltas of the
// process-wide odometers.
func benchIncremental(ctx context.Context) ([]benchEntry, error) {
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 1400, NumSS: 48, NumBS: 3, SNRdB: -15, Seed: 9,
	})
	if err != nil {
		return nil, err
	}
	s0 := sc.Subscribers[0]
	d := &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{
		{Op: scenario.OpMoveSS, ID: s0.ID, Pos: &geom.Point{X: s0.Pos.X + 6, Y: s0.Pos.Y + 5}},
	}}
	mut, err := d.Apply(sc)
	if err != nil {
		return nil, err
	}
	mkCfg := func() core.Config {
		return core.Config{
			Coverage:          core.CoverIAC,
			CoveragePower:     core.PowerGreen,
			Connectivity:      core.ConnMBMC,
			ConnectivityPower: core.PowerGreen,
			Workers:           1,
		}
	}

	// Cold: the mutated scenario from scratch, no caches anywhere.
	cfgCold := mkCfg()
	before := snapshotCounters()
	start := time.Now()
	if _, err := core.Run(ctx, mut, cfgCold); err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	coldElapsed := time.Since(start)
	coldDelta := before.delta()

	// Incremental: warm the stores on the base, then re-solve the mutation.
	cfgIncr := mkCfg()
	incr.NewStores(0).Wire(&cfgIncr)
	if _, err := core.Run(ctx, sc, cfgIncr); err != nil {
		return nil, fmt.Errorf("base warm solve: %w", err)
	}
	reused0, resolved0 := incr.ZonesReused(), incr.ZonesResolved()
	before = snapshotCounters()
	start = time.Now()
	if _, err := core.Run(ctx, mut, cfgIncr); err != nil {
		return nil, fmt.Errorf("incremental solve: %w", err)
	}
	incrElapsed := time.Since(start)
	incrDelta := before.delta()

	return []benchEntry{
		{
			Name:       "incr/1ss-move-full-cold",
			NsPerOp:    float64(coldElapsed.Nanoseconds()),
			Iterations: 1,
			Seconds:    coldElapsed.Seconds(),
			BBNodes:    float64(coldDelta.nodes),
			LPPivots:   coldDelta.pivots,
		},
		{
			Name:          "incr/1ss-move-resolve",
			NsPerOp:       float64(incrElapsed.Nanoseconds()),
			Iterations:    1,
			Seconds:       incrElapsed.Seconds(),
			BBNodes:       float64(incrDelta.nodes),
			LPPivots:      incrDelta.pivots,
			ZonesReused:   incr.ZonesReused() - reused0,
			ZonesResolved: incr.ZonesResolved() - resolved0,
		},
	}, nil
}

// entryFrom merges a testing.BenchmarkResult with the workload's exact
// per-op solver metrics.
func entryFrom(name string, r testing.BenchmarkResult, extra benchEntry) benchEntry {
	return benchEntry{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
		Seconds:     r.T.Seconds(),
		BBNodes:     extra.BBNodes,
		LPPivots:    extra.LPPivots,
		WarmSolves:  extra.WarmSolves,
		ColdSolves:  extra.ColdSolves,
	}
}
