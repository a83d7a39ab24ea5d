#!/bin/sh
# ci.sh — the repository's full verification gate.
#
#   ./ci.sh          # vet + build + race-enabled tests (includes the
#                    # worker-count determinism regression)
#   ./ci.sh -full    # additionally run the full-size Fig3a determinism
#                    # check (minutes of branch-and-bound)
#   ./ci.sh bench    # run the solver benchmark suite and write BENCH.json
#                    # (machine-readable ns/op, allocs/op, nodes, pivots)
#
# The -race run covers every package, so the parallel experiment harness
# and the per-zone solvers are exercised under the race detector on every
# gate. Tests are written to pass with -short except the full-size
# determinism check, which -full enables by dropping -short.
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "bench" ]; then
	exec go run ./cmd/sagbench -bench-json "${2:-BENCH.json}"
fi

MODE=short
if [ "${1:-}" = "-full" ]; then
	MODE=full
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./... ($MODE)"
if [ "$MODE" = full ]; then
	go test -race -timeout 60m ./...
else
	go test -race -short -timeout 30m ./...
fi

# The solve service gets an extra race-enabled pass without -short (its
# cancellation and shutdown tests are all quick) plus the sagserved smoke
# self-test: ephemeral port, solve a tiny scenario twice, assert the second
# answer is a byte-identical cache hit, shut down cleanly.
echo "== go test -race ./internal/serve/"
go test -race -count=1 -timeout 10m ./internal/serve/

echo "== sagserved -smoke"
go run ./cmd/sagserved -smoke

# Resilience gates. The chaos suite (build-tagged so it never runs by
# accident) arms every registered fault-injection site with every failure
# kind and asserts jobs stay terminal and the server stays alive; the
# recovery smoke kills a journaled child server with SIGKILL mid-solve and
# asserts the journal replays the job to a byte-identical served result.
echo "== go test -race -tags faultinject -run Chaos ./internal/serve/"
go test -race -tags faultinject -run Chaos -count=1 -timeout 20m ./internal/serve/

echo "== sagserved -smoke-recovery"
go run ./cmd/sagserved -smoke-recovery

# Overload gate: a seeded admission-fault storm must shed the same fixed
# request indices on two fresh servers (determinism), shed jobs must cost
# zero solver work with accepted answers byte-identical to an unloaded
# server's, /healthz must stay under 100ms through a queue-saturating delay
# storm, and a journaled server must quarantine a bit-rotted mid-file WAL
# record on restart while restoring every intact job byte-identically.
echo "== sagserved -smoke-overload"
go run ./cmd/sagserved -smoke-overload

# Batch gate: stream a seeded grid batch over NDJSON, then re-request every
# cell through /v1/solve — each answer must be byte-identical to its streamed
# line and cost zero further solver work (all cache hits), with the batch
# counters and the sagmetrics/6 schema agreeing.
echo "== sagserved -smoke-batch"
go run ./cmd/sagserved -smoke-batch

# Introspection gate: submit a live multi-zone solve, tail its NDJSON
# progress stream (at least one mid-solve snapshot with a per-zone gap must
# precede the terminal one), fetch the finished job's flight record with its
# span tree and convergence curve, and match one captured JSON log line to
# the job by its job_id correlation field. The disarmed progress hook is
# additionally pinned at zero allocations by the milp benchmark suite.
echo "== sagserved -smoke-progress"
go run ./cmd/sagserved -smoke-progress

# Performance gates for the branch-and-bound hot path. The pivot-regression
# gate solves the pinned ILPQC benchmark instance and fails if the total
# simplex pivot count regresses past the recorded budget (half the
# pre-warm-start baseline, so the >= 2x reduction is enforced, not just
# recorded). The -race warm-start pass hammers the per-Solver basis
# buffers from concurrent goroutines to prove warm-start state never leaks
# across solvers.
echo "== go test -run TestPivotRegressionGate ./internal/milp/"
go test -count=1 -run TestPivotRegressionGate ./internal/milp/

# Allocation gate for SAMC's hitting-set local search: on a fixed
# serve-mix-sized instance the search must allocate its scratch once per
# call and nothing per move (a recorded allocation budget, not a timing).
echo "== go test -run TestLocalSearchAllocs ./internal/hitting/"
go test -count=1 -run TestLocalSearchAllocs ./internal/hitting/

echo "== go test -race -run 'Warm' ./internal/lp/ ./internal/milp/"
go test -race -count=1 -run 'Warm' -timeout 10m ./internal/lp/ ./internal/milp/

# Differential gate for the one simplex engine: fuzz general small LPs of
# the accepted class (mixed LE/GE/EQ rows, signed data, negative costs on
# bounded columns, crossed bound overrides) against the exact math/big
# oracle — status, objective and a feasible optimal point — for a bounded
# time.
echo "== go test -fuzz FuzzGeneralLP ./internal/lp/ (15s)"
go test -run '^$' -fuzz '^FuzzGeneralLP$' -fuzztime 15s ./internal/lp/

# Differential gate for the hitting-set local search: fuzz seeded instances
# (1-200 disks, Tol zero and positive, every swap size and round cap)
# against the original map-and-clone search kept in reference_test.go —
# Chosen, GreedySize and Rounds must match exactly.
echo "== go test -fuzz FuzzLocalSearch ./internal/hitting/ (10s)"
go test -run '^$' -fuzz '^FuzzLocalSearch$' -fuzztime 10s ./internal/hitting/

# Incremental-equivalence gate: a mutation storm of every delta kind (add,
# remove, move and traffic-change subscribers; add and remove base stations)
# where each incremental solve through warmed zone-level stores must be
# byte-identical to a cold solve of the same mutated scenario, for both the
# heuristic and exact pipelines — plus the counter proof that a single
# subscriber move re-solves no more zones than the planner marked dirty.
echo "== go test -race -run 'TestIncr' ./internal/incr/"
go test -race -count=1 -run 'TestIncr' -timeout 20m ./internal/incr/

# Observability gate: a traced sagcli solve must emit a span tree covering
# every pipeline stage. (The Prometheus exposition grammar is gated inside
# sagserved -smoke above.)
echo "== sagcli -trace-out"
TRACEDIR=$(mktemp -d)
trap 'rm -rf "$TRACEDIR"' EXIT
go run ./cmd/sagcli -gen -users 12 -field 400 -bs 2 -save "$TRACEDIR/sc.json" >/dev/null
go run ./cmd/sagcli -scenario "$TRACEDIR/sc.json" -trace-out "$TRACEDIR/trace.json" >/dev/null
for stage in sagcli solve zone_partition zone coverage coverage_power connectivity connectivity_power; do
	if ! grep -q "\"name\": \"$stage\"" "$TRACEDIR/trace.json"; then
		echo "ci.sh: trace.json lacks a \"$stage\" span" >&2
		exit 1
	fi
done
if grep -q '"dur_ns": 0' "$TRACEDIR/trace.json"; then
	echo "ci.sh: trace.json contains a zero-duration span" >&2
	exit 1
fi

echo "ci.sh: all checks passed"
