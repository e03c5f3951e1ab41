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

# One configuration: the fault injector is compiled into every build, so
# one release build and one workspace test run cover the fault tests too.
cargo build --release --workspace
cargo test -q --workspace
# The root examples assert the paper's worked numbers (Table I, §V-B);
# clippy only compiles them, so run each once.
for example in quickstart facility_planning hierarchical_summaries \
  network_summarization streaming_and_multiweight; do
  cargo run --release -q --example "$example" > /dev/null
done
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: a deleted or renamed item must not leave a dangling
# intra-doc link. Per-package flags, because --workspace would also
# document the vendored stand-ins, whose docs are not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p scwsc -p scwsc-core \
  -p scwsc-patterns -p scwsc-data -p scwsc-serve -p scwsc-bench

# The benchmark crate (perfbench/, outside the workspace) builds against
# the library APIs it calls, so an API change that breaks it fails here
# rather than in the benchmark run.
cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Performance-snapshot gate (DESIGN.md §10): one quick rep of the full
# workload registry, diffed against the committed baseline on what a
# recording determines exactly. Counters must match; allocations, greedy
# cost and certified ratio may not rise. Timings are not compared: they
# are gated by perfbench's paired runs.
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  record --quick --label ci --out target/BENCH_ci.json
cargo run --release -q -p scwsc-bench --bin scwsc_bench -- \
  diff BENCH_baseline.json target/BENCH_ci.json

# Section VI experiment smoke: every figure and table of the evaluation at
# quick scale, each written as a .txt/.csv/.json triple. The binaries are
# otherwise only compiled here, so a panic in one would go unnoticed.
rm -rf target/ci_results
cargo run --release -q -p scwsc-bench --bin run_all -- \
  --quick --out target/ci_results > /dev/null 2> target/ci_run_all.err \
  || { echo "run_all --quick failed"; cat target/ci_run_all.err; exit 1; }
python3 - target/ci_results <<'EOF'
import json, pathlib, sys
found = sorted(pathlib.Path(sys.argv[1]).glob("*.json"))
assert len(found) == 11, f"expected 11 result tables, got {len(found)}"
for path in found:
    json.load(open(path))  # every table parses
    for ext in (".txt", ".csv"):
        assert path.with_suffix(ext).is_file(), f"{path.stem}{ext} missing"
EOF

# Resilience gate (DESIGN.md §12): end-to-end smokes of the scwsc_solve
# degradation ladder. A one-shot injected guess panic must be contained
# and retried to a complete solve (exit 0), and a tick-budget or a zero
# wall-clock expiry must degrade with a certificate the binary itself
# re-verifies (exit 5).
solve=target/release/scwsc_solve
# (stderr holds the contained panic's backtrace — expected noise)
"$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --fault panicguess@1 > /dev/null 2> target/ci_fault.err
"$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --max-ticks 10 > /dev/null 2> target/ci_degraded.err \
  && { echo "expected deadline degradation"; exit 1; } || code=$?
[ "$code" -eq 5 ] || { echo "expected exit 5, got $code"; exit 1; }
grep -q "certificate verified" target/ci_degraded.err \
  || { echo "missing certificate verification"; exit 1; }
"$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --deadline-ms 0 > /dev/null 2> target/ci_deadline.err \
  && { echo "expected wall-clock degradation"; exit 1; } || code=$?
[ "$code" -eq 5 ] || { echo "expected exit 5, got $code"; exit 1; }
grep -q "certificate verified" target/ci_deadline.err \
  || { echo "wall-clock degrade missing certificate verification"; exit 1; }

# Flight-recorder smoke (DESIGN.md §13): a persistent injected fault must
# fail structured (exit 1) AND leave a line-oriented JSON flight dump —
# header with the latched trace id, events, trailing causal tree whose
# nodes carry their work counters — for the post-mortem.
"$solve" --rows 2000 --k 6 --coverage 0.4 \
  --algorithm cmc --fault failguess@1 --flight-dump target/ci_flight.jsonl \
  > /dev/null 2>> target/ci_fault.err \
  && { echo "expected fault exit"; exit 1; } || code=$?
[ "$code" -eq 1 ] || { echo "expected exit 1, got $code"; exit 1; }
python3 - target/ci_flight.jsonl <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert len(lines) >= 2, "dump needs a header and a causal tree"
header = json.loads(lines[0])
assert header["flight"] == "scwsc" and header["version"] == 3, header
assert header["trace_id"] != "0000000000000000", "trace id latched"
for line in lines[1:]:
    json.loads(line)  # every line is one JSON object
trailer = json.loads(lines[-1])
assert "causal_tree" in trailer, "dump ends with the tree"
assert isinstance(trailer["causal_tree"]["counters"], dict), "tree root carries counters"
EOF
# A complete solve fits its whole event stream in the ring: the lattice
# walks report their per-pop work as per-guess and per-round totals.
"$solve" --rows 2000 --k 6 --coverage 0.4 --algorithm cmc \
  --flight-dump target/ci_flight_complete.jsonl > /dev/null 2>&1
python3 - target/ci_flight_complete.jsonl <<'EOF'
import json, sys
header = json.loads(open(sys.argv[1]).readline())
assert header["version"] == 3 and header["dropped"] == 0, header
EOF

# Liveness-watchdog smoke (DESIGN.md §16): an injected mid-solve
# stall (400 ms sleep at tick 5) must be caught by a 100 ms watchdog,
# which records a stall_detected event and auto-dumps the flight
# recording at that moment — while the solve itself still completes.
"$solve" --rows 2000 --k 5 --fault stall@5:400 --watchdog 100 \
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
"$bench" soak --iters 5 --suite smoke \
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
# certificate-verified, every rejection carrying retry_after_ms, no solve
# stalled under a 1 s watchdog (DESIGN.md §16) — then a clean SIGTERM
# drain that flushes the Prometheus exposition.
serve=target/release/scwsc_serve
"$serve" --rows 2000 --seed 7 --addr 127.0.0.1:0 \
  --base-ticks 20000 --watchdog 1000 --metrics-prom target/ci_serve.prom \
  2> target/ci_serve.err &
serve_pid=$!
# stderr is unbuffered and the boot line may arrive in pieces, so wait
# for the port itself (digits followed by the space after them).
port=
for _ in $(seq 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\) .*/\1/p' \
    target/ci_serve.err 2>/dev/null || true)
  [ -n "$port" ] && break
  sleep 0.1
done
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
grep -q "drained —.*, 0 stalls," target/ci_serve.err \
  || { echo "served watchdog flagged a stall"; cat target/ci_serve.err; exit 1; }
# The flushed exposition must account for every solve the drain line
# reports (cache hits never reach a solve), and carry no per-solve SLO
# block: a server has no single solve to report one for.
python3 - target/ci_serve.prom target/ci_serve.err <<'EOF'
import re, sys
prom = [l for l in open(sys.argv[1]).read().splitlines() if l and not l.startswith("#")]
drain = next(l for l in open(sys.argv[2]) if "drained —" in l)
n = {k: int(v) for k, v in re.findall(r"(complete|degraded|cache hits) (\d+)", drain)}
samples = dict(l.rsplit(" ", 1) for l in prom)
solves = float(samples['scwsc_window_solves{entry="all"}'])
assert solves == n["complete"] + n["degraded"] - n["cache hits"], (solves, drain)
degraded = float(samples['scwsc_window_degraded_solves{entry="all"}'])
assert degraded == n["degraded"], (degraded, drain)
assert not any(l.startswith("scwsc_slo_") for l in prom), "served SLO block"
EOF

# Service-fault smoke: a deterministically injected mid-request disconnect
# (the server severs request 3's connection before writing the response)
# must cost exactly that one in-flight answer — the client reconnects, the
# remaining requests complete, and the server still drains cleanly with
# the severed write accounted.
"$serve" --rows 1000 --seed 7 --addr 127.0.0.1:0 \
  --fault disconnect@3 2> target/ci_serve_fault.err &
serve_pid=$!
port=
for _ in $(seq 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\) .*/\1/p' \
    target/ci_serve_fault.err 2>/dev/null || true)
  [ -n "$port" ] && break
  sleep 0.1
done
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
  --attribute --top 3 > target/ci_attr.out
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
