package main

import (
	"context"
	"fmt"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

var bgCtx = context.Background()

// gac-sweep: offline regeneration of the paper's Fig. 3(a) GAC column. Each
// op is one core.Run with GAC coverage on a fig3a-distribution scenario
// (500x500 field, 4 base stations, SNR -15 dB), users cycling 15, 20, ...,
// 50, one op at a time with Workers=1. The grid (20, the coarse end of the
// paper's 13-20 sweep) and the node budget keep an op near a quarter of a
// second on a 2-CPU host, so a run holds a hundred-odd ops and its medians
// are steady across seeds; at grid 15 with 250 nodes an op takes 5-20 s.
const (
	gacGrid     = 20
	gacMaxNodes = 25 // branch-and-bound node budget per zone
	gacTailPct  = 90
	// gacInputs is how many op inputs each set-up generates ahead of the
	// timed phase; later ops generate theirs on the fly.
	gacInputs = 256
)

func gacConfig() core.Config {
	return core.Config{
		Coverage:          core.CoverGAC,
		CoveragePower:     core.PowerGreen,
		Connectivity:      core.ConnMBMC,
		ConnectivityPower: core.PowerGreen,
		Workers:           1,
		// The wall-clock zone limit is an hour so it never binds: the
		// node budget alone ends each tree, which keeps answers
		// deterministic.
		ILP: lower.ILPOptions{GridSize: gacGrid, MaxNodes: gacMaxNodes, TimeLimit: time.Hour, Workers: 1},
	}
}

// gacScenario generates op i's input: users cycle 15..50 and the scenario
// seed follows the experiment harness's rule, base ^ (users<<32) ^ run. The
// base is the --seed scrambled, so nearby seeds do not share scenarios.
func gacScenario(seed int64, i int) (*scenario.Scenario, error) {
	users := 15 + 5*(i%8)
	run := i / 8
	return scenario.Generate(scenario.GenConfig{
		FieldSide: 500, NumSS: users, NumBS: 4, SNRdB: -15,
		Seed: scramble(seed) ^ int64(users)<<32 ^ int64(run),
	})
}

// scramble is the splitmix64 finalizer: a bijection that spreads nearby
// seeds apart.
func scramble(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

type gacOp struct {
	sc    *scenario.Scenario
	sol   *core.Solution
	err   error
	start time.Time
	lat   time.Duration
}

func runGACSweep(o options, r *report) error {
	inputs, setup, err := medianSetup(31, func() ([]*scenario.Scenario, error) {
		scs := make([]*scenario.Scenario, gacInputs)
		for i := range scs {
			sc, err := gacScenario(o.seed, i)
			if err != nil {
				return nil, err
			}
			scs[i] = sc
		}
		return scs, nil
	}, func([]*scenario.Scenario) {})
	if err != nil {
		return err
	}
	cfg := gacConfig()
	next := 0
	phase := func(d time.Duration, traced bool) ([]gacOp, error) {
		var ops []gacOp
		start := time.Now()
		for time.Since(start) < d {
			var sc *scenario.Scenario
			if next < len(inputs) {
				sc = inputs[next]
			} else if sc, err = gacScenario(o.seed, next); err != nil {
				return nil, err
			}
			next++
			ctx := bgCtx
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace("bench.op")
				ctx = obs.WithTrace(ctx, tr)
			}
			t0 := time.Now()
			sol, err := core.Run(ctx, sc, cfg)
			lat := time.Since(t0)
			if tr != nil {
				tr.Finish()
			}
			ops = append(ops, gacOp{sc: sc, sol: sol, err: err, start: t0, lat: lat})
		}
		return ops, nil
	}
	check := func(ops []gacOp) (simRejected int) {
		for i, op := range ops {
			r.Attempted++
			switch {
			case op.err != nil:
				r.Failed++
				r.wrongf("op %d: %v", i, op.err)
			case op.sol.Degraded:
				r.Failed++
				r.wrongf("op %d: degraded: %s", i, op.sol.DegradedReason)
			default:
				verr, rejected := checkSolution(op.sc, op.sol)
				if verr != nil {
					r.Failed++
					r.wrongf("op %d (%d users): Verify: %v", i, op.sc.NumSS(), verr)
				}
				if rejected {
					simRejected++
				}
			}
		}
		return simRejected
	}
	latencies := func(ops []gacOp) []float64 {
		lat := make([]float64, len(ops))
		for i, op := range ops {
			lat[i] = ms(op.lat)
		}
		return lat
	}

	if !o.trace {
		start := time.Now()
		ops, err := phase(o.duration(), false)
		if err != nil {
			return err
		}
		end := time.Now()
		sim := check(ops)
		lat := latencies(ops)
		spans := make([]interval, len(ops))
		for i, op := range ops {
			spans[i] = interval{op.start, op.start.Add(op.lat)}
		}
		r.e2e("setup_s", setup, "s")
		throughput(r, spans, len(ops)-r.Failed, start, end)
		latencyMetrics(r, "latency_ms", lat, gacTailPct, true)
		r.extra("check.sim_violations", float64(sim), "count")
		r.info("gac_grid_and_node_budget", fmt.Sprintf("grid %d, %d nodes per zone", gacGrid, gacMaxNodes))
		return nil
	}

	// Traced run: an untraced half-length phase for the overhead baseline,
	// then the traced phase the per-layer metrics come from.
	base, err := phase(o.duration()/2, false)
	if err != nil {
		return err
	}
	p, err := startProbe()
	if err != nil {
		return err
	}
	ops, err := phase(o.duration()/2, true)
	if err != nil {
		pprofStop(p)
		return err
	}
	delta, cpu, err := p.stop()
	if err != nil {
		return err
	}
	check(base)
	sim := check(ops)
	var solves []*obs.SpanDoc
	for _, op := range ops {
		if op.sol != nil && op.sol.Trace != nil {
			if s := op.sol.Trace.Doc().Find("solve"); s != nil {
				solves = append(solves, s)
			}
		}
	}
	if len(solves) != len(ops) {
		r.wrongf("traced phase: %d of %d ops returned a solve span", len(solves), len(ops))
	}
	return layerMetrics(r, layerInput{
		ops:      len(ops),
		delta:    delta,
		cpu:      cpu,
		solves:   solves,
		sim:      sim,
		overhead: overheadOf(latencies(ops), latencies(base)),
	})
}

// pprofStop ends a probe whose phase failed.
func pprofStop(p *probe) { _, _, _ = p.stop() }

// gacReference solves three fixed cells (users 15, 30 and 45 of seed 1,
// run 0).
func gacReference() ([]refAnswer, error) {
	var out []refAnswer
	for _, i := range []int{0, 3, 6} {
		sc, err := gacScenario(1, i)
		if err != nil {
			return nil, err
		}
		sol, err := core.Run(bgCtx, sc, gacConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, answerOf(fmt.Sprintf("GAC users=%d seed=1 run=0", sc.NumSS()), sol))
	}
	return out, nil
}
