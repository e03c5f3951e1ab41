#!/usr/bin/env bash
# Full CI gate: build, tests, formatting, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Auto-dumped post-mortems from earlier local runs must never end up in a
# commit: the default dump name is trace-id-suffixed (and gitignored), but
# clear any legacy fixed-name dump too.
rm -f scwsc-flight.jsonl scwsc-*-flight.jsonl
# ... and fail hard if one was ever force-added past the gitignore (the
# trace-id suffix means every stray has a fresh name, so match the shape,
# not a fixed list).
if git ls-files | grep -E '(^|/)scwsc-([0-9a-f]+-)?flight\.jsonl$|-flight\.jsonl$'; then
  echo "committed flight-recorder dump(s) found (see above); git rm them"
  exit 1
fi

cargo build --release
cargo test -q
# The warm-instance lattice parity test (DESIGN.md §17) again with the
# pruned refresh off: opt_cmc reads SCWSC_PRUNE from the environment, so
# the plain run above covers only the default.
SCWSC_PRUNE=0 cargo test -q --test prop_lattice_reuse
cargo fmt --check
cargo clippy --workspace -- -D warnings

# The benchmark crate (perfbench/, outside the workspace) builds against
# the library APIs it calls, so an API change that breaks it fails here
# rather than in the benchmark run.
cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Performance-snapshot smoke: one quick rep of the full workload registry,
# then the counter-exact diff against the committed baseline (wall-clock is
# too noisy to gate on in CI; counters are deterministic). DESIGN.md §10.
# Recorded serial so the baseline comparison is independent of the parallel
# layer.
SCWSC_THREADS=1 cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  record --quick --label ci --out target/BENCH_ci.json
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  diff BENCH_seed.json target/BENCH_ci.json --counters-only

# Parallel determinism gate: the same smoke suite on 4 worker threads must
# reproduce the serial deterministic counters exactly (DESIGN.md §11) —
# this is the end-to-end check that chunked scans, speculative budget
# guessing, and telemetry replay leave the event stream bit-identical.
SCWSC_THREADS=4 cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  record --quick --suite smoke --label ci-t4 --out target/BENCH_ci_t4.json
SCWSC_THREADS=1 cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  record --quick --suite smoke --label ci-t1 --out target/BENCH_ci_t1.json
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  diff target/BENCH_ci_t1.json target/BENCH_ci_t4.json --counters-only

# Pruned-scan A/B gate (DESIGN.md §15): with the sketch-pruned scan
# forced off, the smoke suite must reproduce the pruned run's exact
# counters — pruning may only change *how* benefits are counted, never
# what any solver does. The scan_* advisory counters are note-level in
# the diff by design (they measure the pruning itself).
SCWSC_PRUNE=0 SCWSC_THREADS=1 cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  record --quick --suite smoke --label ci-noprune --out target/BENCH_ci_noprune.json
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  diff target/BENCH_ci_t1.json target/BENCH_ci_noprune.json --counters-only

# Resilience gate (DESIGN.md §12). First the full test suite with the
# deterministic fault injector compiled in, including the snapshot test
# that keeps the retry/speculation counters out of the exact-diff set.
cargo test -q --workspace --features fault-inject
cargo test -q -p scwsc-bench \
  resilience_counters_stay_out_of_the_exact_diff_set

# Then two end-to-end smokes of the scwsc_solve degradation ladder on a
# 4-thread pool: a one-shot injected guess panic must be contained and
# retried to a complete solve (exit 0), and a tick-budget expiry must
# degrade with a certificate the binary itself re-verifies (exit 5).
cargo build --release -q -p scwsc-bench --features fault-inject
solve=target/release/scwsc_solve
# (stderr holds the contained panic's backtrace — expected noise)
SCWSC_THREADS=4 "$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --fault panicguess@1 > /dev/null 2> target/ci_fault.err
SCWSC_THREADS=4 "$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --max-ticks 10 > /dev/null 2> target/ci_degraded.err \
  && { echo "expected deadline degradation"; exit 1; } || code=$?
[ "$code" -eq 5 ] || { echo "expected exit 5, got $code"; exit 1; }
grep -q "certificate verified" target/ci_degraded.err \
  || { echo "missing certificate verification"; exit 1; }

# Flight-recorder smoke (DESIGN.md §13): a persistent injected fault must
# fail structured (exit 1) AND leave a line-oriented JSON flight dump —
# header with the latched trace id, events, trailing causal tree — for
# the post-mortem.
SCWSC_THREADS=4 "$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --fault failguess@1 --flight-dump target/ci_flight.jsonl \
  > /dev/null 2>> target/ci_fault.err \
  && { echo "expected fault exit"; exit 1; } || code=$?
[ "$code" -eq 1 ] || { echo "expected exit 1, got $code"; exit 1; }
python3 - target/ci_flight.jsonl <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert len(lines) >= 2, "dump needs a header and a causal tree"
header = json.loads(lines[0])
assert header["flight"] == "scwsc" and header["version"] == 1, header
assert header["trace_id"] != "0000000000000000", "trace id latched"
for line in lines[1:]:
    json.loads(line)  # every line is one JSON object
assert "causal_tree" in json.loads(lines[-1]), "dump ends with the tree"
EOF

# Liveness-watchdog smoke (DESIGN.md §16): a fault-injected mid-solve
# stall (400 ms sleep at tick 5) must be caught by a 100 ms watchdog,
# which records a stall_detected event and auto-dumps the flight
# recording at that moment — while the solve itself still completes.
SCWSC_THREADS=1 "$solve" --rows 2000 --k 5 --fault stall@5:400 --watchdog 100 \
  --flight-dump target/ci_watchdog_flight.jsonl > /dev/null 2> target/ci_watchdog.err
grep -q "watchdog: 1 stall(s) detected" target/ci_watchdog.err \
  || { echo "watchdog missed the injected stall"; cat target/ci_watchdog.err; exit 1; }
grep -q '"kind": *"stall_detected"\|stall_detected' target/ci_watchdog_flight.jsonl.stall \
  || { echo "stall dump lacks the stall_detected event"; exit 1; }

# Soak smoke (DESIGN.md §16): five iterations of the smoke suite through
# the windowed-telemetry loop must hold every continuous-operation
# invariant — monotone counters, stable windowed quantiles, zero leaked
# allocator bytes, zero stalls — and leave a parsable JSONL timeline.
bench=target/release/scwsc_bench
SCWSC_THREADS=1 "$bench" soak --iters 5 --suite smoke \
  --timeline target/ci_soak_timeline.jsonl > target/ci_soak.out 2> /dev/null
grep -q "soak ok:.*0 stalls" target/ci_soak.out \
  || { echo "soak smoke failed"; cat target/ci_soak.out; exit 1; }
python3 - target/ci_soak_timeline.jsonl <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert len(lines) == 5, f"expected 5 timeline lines, got {len(lines)}"
for i, line in enumerate(lines):
    row = json.loads(line)
    assert row["iter"] == i + 1 and row["stalls"] == 0, row
EOF

# Serving gate (DESIGN.md §17): boot scwsc_serve on a fixture instance,
# burst it with the serve-load reference client, and require the serving
# contract end to end — zero dropped requests, every degraded answer
# certificate-verified, every rejection carrying retry_after_ms — then a
# clean SIGTERM drain that flushes the Prometheus exposition.
cargo build --release -q -p scwsc-serve --features fault-inject
serve=target/release/scwsc_serve
SCWSC_THREADS=2 "$serve" --rows 2000 --seed 7 --addr 127.0.0.1:0 \
  --base-ticks 20000 --metrics-prom target/ci_serve.prom \
  2> target/ci_serve.err &
serve_pid=$!
for _ in $(seq 100); do
  grep -q "listening on" target/ci_serve.err 2>/dev/null && break
  sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' target/ci_serve.err)
[ -n "$port" ] || { echo "scwsc_serve failed to boot"; cat target/ci_serve.err; exit 1; }
"$bench" serve-load --addr "127.0.0.1:$port" --connections 4 --requests 32 \
  --distinct 8 --max-ticks 30000 --retries 3 --timeout-ms 60000 --expect-clean \
  > target/ci_serve_load.out \
  || { echo "serve-load contract violated"; cat target/ci_serve_load.out; exit 1; }
grep -q "contract: OK" target/ci_serve_load.out \
  || { echo "serve-load summary incomplete"; cat target/ci_serve_load.out; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" \
  || { echo "scwsc_serve SIGTERM drain failed"; cat target/ci_serve.err; exit 1; }
grep -q "drained —.*clean=true" target/ci_serve.err \
  || { echo "drain summary missing"; cat target/ci_serve.err; exit 1; }
grep -q "scwsc_window_solves" target/ci_serve.prom \
  || { echo "drain did not flush windowed metrics"; exit 1; }

# Service-fault smoke: a deterministically injected mid-request disconnect
# (the server severs request 3's connection before writing the response)
# must cost exactly that one in-flight answer — the client reconnects, the
# remaining requests complete, and the server still drains cleanly with
# the severed write accounted.
SCWSC_THREADS=1 "$serve" --rows 1000 --seed 7 --addr 127.0.0.1:0 \
  --fault disconnect@3 2> target/ci_serve_fault.err &
serve_pid=$!
for _ in $(seq 100); do
  grep -q "listening on" target/ci_serve_fault.err 2>/dev/null && break
  sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' target/ci_serve_fault.err)
[ -n "$port" ] || { echo "faulted scwsc_serve failed to boot"; exit 1; }
"$bench" serve-load --addr "127.0.0.1:$port" --connections 1 --requests 6 \
  --distinct 6 --max-ticks 30000 --timeout-ms 10000 > target/ci_serve_fault.out
grep -q "6 sent, 5 answered, 1 dropped" target/ci_serve_fault.out \
  || { echo "disconnect fault not isolated to one request"; cat target/ci_serve_fault.out; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" \
  || { echo "faulted scwsc_serve drain failed"; cat target/ci_serve_fault.err; exit 1; }
grep -q "failed writes 1" target/ci_serve_fault.err \
  || { echo "severed write not accounted"; cat target/ci_serve_fault.err; exit 1; }

# SCWSC_DEADLINE_MS smoke: the environment variable supplies the default
# wall-clock deadline (an explicit --deadline-ms always wins). A zero
# budget from the environment must degrade with a verified certificate
# (exit 5) exactly like the flag; the flag then overrides it back to an
# unhurried complete solve.
SCWSC_DEADLINE_MS=0 "$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc > /dev/null 2> target/ci_env_deadline.err \
  && { echo "expected env-deadline degradation"; exit 1; } || code=$?
[ "$code" -eq 5 ] || { echo "expected exit 5, got $code"; exit 1; }
grep -q "certificate verified" target/ci_env_deadline.err \
  || { echo "env deadline missing certificate verification"; exit 1; }
SCWSC_DEADLINE_MS=0 "$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --deadline-ms 600000 > /dev/null 2>&1 \
  || { echo "--deadline-ms must override SCWSC_DEADLINE_MS"; exit 1; }

# Perf-trend gate (DESIGN.md §16): the committed BENCH_*.json history must
# load chronologically and no workload's latest median may regress >10%
# against its best-ever median.
"$bench" trend --gate > target/ci_trend.out \
  || { echo "trend gate flagged a regression"; cat target/ci_trend.out; exit 1; }
grep -q "median runtime" target/ci_trend.out \
  || { echo "trend output incomplete"; cat target/ci_trend.out; exit 1; }

# Regression-attribution golden (DESIGN.md §13): hand-perturb one span's
# total time in the quick snapshot; `diff --attribute` must name exactly
# that span as the top self-time mover.
python3 - target/BENCH_ci.json target/ci_perturbed.json <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
snap["workloads"][0]["spans"]["total_secs"] += 1000.0
json.dump(snap, open(sys.argv[2], "w"))
EOF
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  diff target/BENCH_ci.json target/ci_perturbed.json \
  --counters-only --attribute --top 3 > target/ci_attr.out
grep -A1 "span self-time movers" target/ci_attr.out | tail -1 \
  | grep -q '+1000\.0000s.*total' \
  || { echo "perturbed span is not the top mover"; cat target/ci_attr.out; exit 1; }

# Decision-audit golden smoke (DESIGN.md §14): --explain must narrate the
# ledger (winner, runners-up, margins, prices) and end with a certified
# quality line whose lower bound the binary derived from its own prices.
"$solve" --rows 300 --seed 7 --k 5 --coverage 0.5 --algorithm cmc \
  --explain 3 > target/ci_explain.out 2> /dev/null
for marker in "== decision audit ==" "runner-up" "margin" "charged " \
  "certified quality:" "LB "; do
  grep -q "$marker" target/ci_explain.out \
    || { echo "--explain output missing '$marker'"; cat target/ci_explain.out; exit 1; }
done

# Audit replay parity (DESIGN.md §14): the decision ledger is part of the
# deterministic event stream, so a 4-thread solve must write a
# byte-identical --audit-jsonl to the serial one.
SCWSC_THREADS=1 "$solve" --rows 1000 --seed 11 --k 6 --coverage 0.5 \
  --algorithm cmc --audit-jsonl target/ci_audit_t1.jsonl > /dev/null 2>&1
SCWSC_THREADS=4 "$solve" --rows 1000 --seed 11 --k 6 --coverage 0.5 \
  --algorithm cmc --audit-jsonl target/ci_audit_t4.jsonl > /dev/null 2>&1
cmp target/ci_audit_t1.jsonl target/ci_audit_t4.jsonl \
  || { echo "audit ledger differs across thread counts"; exit 1; }
# ... and across the prune toggle (DESIGN.md §15): skipped counts must
# never reach the ledger, so SCWSC_PRUNE=0 writes the same bytes.
SCWSC_PRUNE=0 SCWSC_THREADS=1 "$solve" --rows 1000 --seed 11 --k 6 --coverage 0.5 \
  --algorithm cmc --audit-jsonl target/ci_audit_noprune.jsonl > /dev/null 2>&1
cmp target/ci_audit_t1.jsonl target/ci_audit_noprune.jsonl \
  || { echo "audit ledger differs across prune toggle"; exit 1; }

# Quality-regression gate (DESIGN.md §14): the committed schema-2 baseline
# carries certified greedy cost and lower bound per workload; the fresh
# quick recording must not regress either (checked even --counters-only).
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  diff BENCH_pr8.json target/BENCH_ci.json --counters-only

# flight-to-chrome smoke: the post-mortem dump from the resilience gate
# must convert to a loadable Chrome tracing JSON with real events.
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  flight-to-chrome target/ci_flight.jsonl target/ci_flight.chrome.json
python3 - target/ci_flight.chrome.json <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert any(e["ph"] == "X" for e in events), "no duration spans"
assert any(e["ph"] == "i" for e in events), "no instant events"
assert any(e["ph"] == "M" for e in events), "no process names"
EOF
