package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"sagrelay/internal/core"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
	"sagrelay/internal/serve"
	"sagrelay/internal/sim"
)

// decodeDoc decodes a served result document.
func decodeDoc(raw []byte) (doc serve.ResultDoc, err error) {
	if err = json.Unmarshal(raw, &doc); err != nil {
		err = fmt.Errorf("decode result: %w", err)
	}
	return doc, err
}

// servedDoc splits a served result document into its answer (the document
// without the trace, re-encoded) and its trace.
func servedDoc(raw []byte) (answer []byte, doc serve.ResultDoc, trace *obs.SpanDoc, err error) {
	if doc, err = decodeDoc(raw); err != nil {
		return nil, doc, nil, err
	}
	trace = doc.Trace
	doc.Trace = nil
	answer, err = json.Marshal(&doc)
	return answer, doc, trace, err
}

// solutionDoc encodes a locally computed solution the way the service
// encodes its answers (serve.ResultDoc), without the trace, so a served
// answer and a cold core.Run of the same input compare byte for byte.
func solutionDoc(schema string, sol *core.Solution) ([]byte, error) {
	doc := serve.ResultDoc{
		Schema:         schema,
		Method:         sol.Method,
		Feasible:       sol.Feasible,
		Degraded:       sol.Degraded,
		DegradedReason: sol.DegradedReason,
	}
	if sol.Feasible {
		doc.PL, doc.PH, doc.PTotal = sol.PL, sol.PH, sol.PTotal
		doc.NumCoverage = sol.Coverage.NumRelays()
		doc.NumConnectivity = sol.Connectivity.NumRelays()
		for i, r := range sol.Coverage.Relays {
			doc.CoverageRelays = append(doc.CoverageRelays, serve.RelayDoc{
				Pos:    r.Pos,
				Power:  sol.CoveragePower.Powers[i],
				Covers: r.Covers,
			})
		}
		for _, r := range sol.Connectivity.Relays {
			doc.ConnectivityRelays = append(doc.ConnectivityRelays, r.Pos)
		}
	}
	return json.Marshal(&doc)
}

// checkSolution applies the checks the benchmark can make on a solution it
// holds: lower.Result.Verify with SNR, and the independent link-level
// evaluator. It returns a verification error (a wrong answer) and whether
// sim.Evaluate rejected the answer (reported separately, as
// check.sim_violations).
func checkSolution(sc *scenario.Scenario, sol *core.Solution) (verifyErr error, simRejected bool) {
	if !sol.Feasible {
		return nil, false
	}
	if err := sol.Coverage.Verify(sc, true); err != nil {
		return err, false
	}
	rep, err := sim.Evaluate(sc, sol, sim.Options{})
	if err != nil || !rep.AllSatisfied() {
		return nil, true
	}
	return nil, false
}

// coldCheck re-solves sc with a plain core.Run and compares the served
// answer with it byte for byte (trace excluded). It returns whether the
// answer was wrong (with the reason) and whether sim.Evaluate rejects it.
func coldCheck(sc *scenario.Scenario, cfg core.Config, served []byte) (wrong string, simRejected bool) {
	answer, doc, _, err := servedDoc(served)
	if err != nil {
		return err.Error(), false
	}
	if doc.Degraded {
		return "served answer is degraded: " + doc.DegradedReason, false
	}
	sol, err := core.Run(bgCtx, sc, cfg)
	if err != nil {
		return "cold core.Run: " + err.Error(), false
	}
	want, err := solutionDoc(doc.Schema, sol)
	if err != nil {
		return err.Error(), false
	}
	if !bytes.Equal(answer, want) {
		return fmt.Sprintf("served answer differs from a cold core.Run (%d vs %d coverage relays, total power %v vs %v)",
			doc.NumCoverage, sol.Coverage.NumRelays(), doc.PTotal, sol.PTotal), false
	}
	verr, rejected := checkSolution(sc, sol)
	if verr != nil {
		return "Verify: " + verr.Error(), rejected
	}
	return "", rejected
}

// refAnswer is one reference input's answer: the relay counts of both
// tiers, recorded at the commit that defined the benchmark.
type refAnswer struct {
	Name               string `json:"name"`
	CoverageRelays     int    `json:"coverage_relays"`
	ConnectivityRelays int    `json:"connectivity_relays"`
	Feasible           bool   `json:"feasible"`
}

type referenceFile struct {
	Schema  string                 `json:"schema"`
	Note    string                 `json:"note"`
	Answers map[string][]refAnswer `json:"answers"`
}

const referencePath = "perfbench/reference.json"

// answerOf summarizes a solution as a reference answer.
func answerOf(name string, sol *core.Solution) refAnswer {
	a := refAnswer{Name: name, Feasible: sol.Feasible}
	if sol.Feasible {
		a.CoverageRelays = sol.Coverage.NumRelays()
		a.ConnectivityRelays = sol.Connectivity.NumRelays()
	}
	return a
}

// checkReference solves the workload's reference inputs and compares them
// with reference.json; a mismatch is a wrong answer.
func checkReference(w *workload, r *report) error {
	buf, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	var ref referenceFile
	if err := json.Unmarshal(buf, &ref); err != nil {
		return err
	}
	want := ref.Answers[w.name]
	if len(want) == 0 {
		return fmt.Errorf("reference.json has no answers for %s", w.name)
	}
	got, err := w.reference()
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("reference.json has %d answers for %s, the workload %d", len(want), w.name, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			r.wrongf("reference %s: got %+v, recorded %+v", want[i].Name, got[i], want[i])
		}
	}
	r.info("reference_answers_checked", len(want))
	return nil
}

// recordReference writes reference.json from the current program.
func recordReference() error {
	ref := referenceFile{
		Schema:  "perfbench/reference/v1",
		Note:    "Relay counts of each workload's fixed reference inputs; every run re-solves them and compares.",
		Answers: map[string][]refAnswer{},
	}
	for _, w := range workloads {
		got, err := w.reference()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ref.Answers[w.name] = got
	}
	buf, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(buf, '\n'), 0o644)
}
