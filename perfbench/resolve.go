package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/geom"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
	"sagrelay/internal/serve"
)

// resolve-chain: a planner editing deployments. One client in a closed loop
// sends /v1/resolve?wait=1 requests to an in-memory server (no data dir).
// Set-up solves chainBases IAC bases with budgets that never truncate: the
// incremental family of sagbench's BENCH_7 entry (1400x1400 field, 48
// subscribers, 3 base stations, generator seeds 9, 10, ...), the same for
// every --seed. Each op then carries a single-op delta drawn from --seed
// against the previous step's scenario hash of one chain, round-robin over
// the chains. After chainSteps edits a chain starts over from its base,
// as a planner discards an editing session. Fixed bases and bounded drift
// keep the share of hard zones (a few IAC zones take 100-300 ms to solve)
// equal across seeds: the seed changes the edits, not how hard the
// deployments are.
const (
	chainBases = 24
	chainSteps = 16
	chainTail  = 95
	// Every chainCheckEvery-th resolve answer is kept and re-solved cold
	// after the phase.
	chainCheckEvery = 100
)

func chainOptions() serve.SolveOptions {
	return serve.SolveOptions{Coverage: "IAC", MaxNodes: 1 << 20, ZoneTimeoutMS: 3_600_000, Workers: 1}
}

// chainConfig is the core.Run configuration equal to chainOptions.
func chainConfig() core.Config {
	return core.Config{Coverage: core.CoverIAC, Workers: 1,
		ILP: lower.ILPOptions{MaxNodes: 1 << 20, TimeLimit: time.Hour, Workers: 1}}
}

func chainBase(b int) (*scenario.Scenario, error) {
	return scenario.Generate(scenario.GenConfig{
		FieldSide: 1400, NumSS: 48, NumBS: 3, SNRdB: -15,
		Seed: 9 + int64(b),
	})
}

// chainDelta draws one single-op delta against sc. The op mix is that of
// the incremental-equivalence mutation storm (randomStormDelta in
// internal/incr/equiv_test.go): an added, moved or removed subscriber or a
// traffic change, a quarter each, with positions uniform over the field.
// Distance requirements are drawn from the generator's own range
// [DefaultDistMin, DefaultDistMax], the one the bases were drawn from. A
// chain restarts after chainSteps edits, so the subscriber count stays
// within 48 +- chainSteps. A draw the scenario rejects (two subscribers on
// one point) is drawn again.
func chainDelta(rng *rand.Rand, sc *scenario.Scenario) (*scenario.Delta, *scenario.Scenario, error) {
	for try := 0; ; try++ {
		d := &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{chainOpDraw(rng, sc)}}
		mut, err := d.Apply(sc)
		if errors.Is(err, scenario.ErrCoincident) && try < 100 {
			continue
		}
		return d, mut, err
	}
}

func chainOpDraw(rng *rand.Rand, sc *scenario.Scenario) scenario.DeltaOp {
	pick := sc.Subscribers[rng.Intn(len(sc.Subscribers))].ID
	f := sc.Field
	pos := func() *geom.Point {
		return &geom.Point{X: f.Min.X + rng.Float64()*f.Width(), Y: f.Min.Y + rng.Float64()*f.Height()}
	}
	distReq := func() float64 {
		return scenario.DefaultDistMin + rng.Float64()*(scenario.DefaultDistMax-scenario.DefaultDistMin)
	}
	switch rng.Intn(4) {
	case 0:
		maxID := 0
		for _, s := range sc.Subscribers {
			maxID = max(maxID, s.ID)
		}
		return scenario.DeltaOp{Op: scenario.OpAddSS, ID: maxID + 1, Pos: pos(), DistReq: distReq()}
	case 1:
		return scenario.DeltaOp{Op: scenario.OpMoveSS, ID: pick, Pos: pos()}
	case 2:
		return scenario.DeltaOp{Op: scenario.OpRemoveSS, ID: pick}
	default:
		return scenario.DeltaOp{Op: scenario.OpTrafficSS, ID: pick, DistReq: distReq()}
	}
}

type chainOp struct {
	sc         *scenario.Scenario // the mutated scenario the answer is for
	sent, done time.Time
	status     int
	resp       []byte
	err        error
	// Filled by digest: the response size, the reason the answer is bad
	// (empty when good) and the pipeline's solve span.
	bytes int
	bad   string
	solve *obs.SpanDoc
}

// digest reduces a response to what the checks and metrics need. The body
// and the scenario are kept only when keep is set (the op is re-solved cold
// after the phase) or the answer is bad, so a run's memory does not grow
// with every answer it receives.
func (op *chainOp) digest(keep bool) {
	op.bytes = len(op.resp)
	switch {
	case op.err != nil:
		op.bad = op.err.Error()
	case op.status != http.StatusOK:
		op.bad = fmt.Sprintf("HTTP %d: %.200s", op.status, op.resp)
	default:
		doc, err := decodeDoc(op.resp)
		if err != nil {
			op.bad = err.Error()
		} else if doc.Degraded {
			op.bad = "degraded: " + doc.DegradedReason
		}
		op.solve, _ = solveSpan(doc.Trace)
	}
	if !keep && op.bad == "" {
		op.resp, op.sc = nil, nil
	}
}

type chainLink struct {
	sc   *scenario.Scenario
	hash string
}

type chainState struct {
	svc *service
	// bases are the solved bases; chains the current step of each chain.
	bases, chains []chainLink
}

func runResolveChain(o options, r *report) error {
	st, setup, err := medianSetup(3, func() (*chainState, error) {
		// The scenario store must keep every base between two visits of
		// its chain: chainBases*chainSteps resolves retain their scenarios
		// in between.
		svc, err := startService(serve.Options{ScenarioRetention: 4 * chainBases * chainSteps, FlightRecords: flightRecords(o)}, 1)
		if err != nil {
			return nil, err
		}
		st := &chainState{svc: svc}
		for b := 0; b < chainBases; b++ {
			sc, err := chainBase(b)
			if err == nil {
				_, err = svc.solve(serve.SolveRequest{Scenario: sc, Options: chainOptions()})
			}
			if err != nil {
				svc.close()
				return nil, fmt.Errorf("base %d: %w", b, err)
			}
			st.bases = append(st.bases, chainLink{sc: sc, hash: sc.CanonicalHash()})
		}
		st.chains = append([]chainLink(nil), st.bases...)
		return st, nil
	}, func(st *chainState) { st.svc.close() })
	if err != nil {
		return err
	}
	defer st.svc.close()

	rng := rand.New(rand.NewSource(o.seed))
	next := 0
	phase := func(d time.Duration) ([]*chainOp, time.Time, time.Time, error) {
		var ops []*chainOp
		start := time.Now()
		for time.Since(start) < d {
			c := next % chainBases
			if next > 0 && next%(chainBases*chainSteps) == c {
				st.chains[c] = st.bases[c]
			}
			link := &st.chains[c]
			next++
			delta, mut, err := chainDelta(rng, link.sc)
			if err != nil {
				return nil, time.Time{}, time.Time{}, fmt.Errorf("generated delta does not apply: %w", err)
			}
			body, err := json.Marshal(serve.ResolveRequest{BaseScenarioHash: link.hash, Delta: delta, Options: chainOptions()})
			if err != nil {
				return nil, time.Time{}, time.Time{}, err
			}
			op := &chainOp{sc: mut, sent: time.Now()}
			op.status, op.resp, op.err = st.svc.post("/v1/resolve?wait=1", body)
			op.done = time.Now()
			op.digest(len(ops)%chainCheckEvery == 0)
			ops = append(ops, op)
			*link = chainLink{sc: mut, hash: mut.CanonicalHash()}
		}
		return ops, start, time.Now(), nil
	}
	lat := func(ops []*chainOp) []float64 {
		out := make([]float64, len(ops))
		for i, op := range ops {
			out[i] = ms(op.done.Sub(op.sent))
		}
		return out
	}

	if !o.trace {
		ops, start, end, err := phase(o.duration())
		if err != nil {
			return err
		}
		res := checkChain(r, ops)
		r.e2e("setup_s", setup, "s")
		spans := make([]interval, len(ops))
		for i, op := range ops {
			spans[i] = interval{op.sent, op.done}
		}
		throughput(r, spans, len(ops)-res.failed, start, end)
		latencyMetrics(r, "latency_ms", lat(ops), chainTail, true)
		r.extra("check.sim_violations", float64(res.sim), "count")
		return nil
	}

	base, _, _, err := phase(o.duration() / 2)
	if err != nil {
		return err
	}
	hits0, lookups0 := st.svc.cacheCounters()
	since := time.Now()
	p, err := startProbe()
	if err != nil {
		return err
	}
	ops, _, _, err := phase(o.duration() / 2)
	if err != nil {
		pprofStop(p)
		return err
	}
	delta, cpu, err := p.stop()
	if err != nil {
		return err
	}
	hits1, lookups1 := st.svc.cacheCounters()
	queueMS := st.svc.queueMS("resolve", since)
	r.info("serve_queue_records", fmt.Sprintf("%d resolve jobs' flight records for %d requests", len(queueMS), len(ops)))
	checkChain(r, base)
	res := checkChain(r, ops)
	return layerMetrics(r, layerInput{
		ops:    len(ops),
		delta:  delta,
		cpu:    cpu,
		solves: res.solves,
		serve: serveLayer{
			overheadMS:   res.overheadMS,
			queueMS:      queueMS,
			resultBytes:  res.resultBytes,
			cacheHits:    hits1 - hits0,
			cacheLookups: lookups1 - lookups0,
		},
		sim:      res.sim,
		overhead: overheadOf(lat(ops), lat(base)),
	})
}

// checkChain checks a phase's resolve answers: every answer must be a
// non-degraded 200, and every chainCheckEvery-th must equal a cold core.Run
// of the same mutated scenario byte for byte (the incremental re-solve
// contract). A dirty zone with a hard tree can make a cold solve of the
// whole scenario take a third of a second, so re-solving all of a run's
// thousands of answers would not fit its time limit.
func checkChain(r *report, ops []*chainOp) phaseResult {
	var res phaseResult
	cfg := chainConfig()
	checked := 0
	for i, op := range ops {
		r.Attempted++
		bad := op.bad
		if bad == "" && i%chainCheckEvery == 0 {
			checked++
			wrong, rejected := coldCheck(op.sc, cfg, op.resp)
			if rejected {
				res.sim++
			}
			bad = wrong
		}
		if bad != "" {
			res.failed++
			r.Failed++
			r.wrongf("resolve %d: %s", i, bad)
			continue
		}
		if op.solve != nil {
			res.solves = append(res.solves, op.solve)
			res.overheadMS = append(res.overheadMS, ms(op.done.Sub(op.sent))-float64(op.solve.DurNS)/1e6)
		}
		res.resultBytes = append(res.resultBytes, float64(op.bytes))
	}
	r.info("resolve_answers_cold_checked", fmt.Sprintf("%d of %d", checked, len(ops)))
	return res
}

// resolveChainReference solves a fixed base and a fixed five-step delta
// chain on it.
func resolveChainReference() ([]refAnswer, error) {
	sc, err := chainBase(0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	var out []refAnswer
	for step := 0; step <= 5; step++ {
		if step > 0 {
			if _, sc, err = chainDelta(rng, sc); err != nil {
				return nil, err
			}
		}
		sol, err := core.Run(bgCtx, sc, chainConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, answerOf(fmt.Sprintf("IAC 1400x1400 base seed=9 step=%d", step), sol))
	}
	return out, nil
}
