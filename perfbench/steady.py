#!/usr/bin/env python3
"""Steadiness runs and run-set comparison for perfbench.

Run workloads repeatedly, one seed per run, and print each metric's
median and quartiles and its spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py run --workload batch-solve serve-zipf \
        --runs 10 --first-seed 1 --out set-a.json set-b.json

Each `--out` file is one set. With several, the sets' runs are
interleaved (seed 1 of every workload for every set, then seed 2, ...),
so a slow phase of the host lands on every set alike.

Compare two saved sets of the same code (or a parent and a change):

    python3 perfbench/steady.py compare set-a.json set-b.json

`compare` refuses sets whose input fingerprints differ for the same
(workload, seed), reports a changed answer fingerprint as a failure,
fails on any run that is not `correct` or has `failed` operations, and
fails a metric whose second median is worse than the first by more than
its bound. `run` also exits non-zero on a failed run. Quartiles are
`statistics.quantiles(values, n=4)`.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def one_run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {' '.join(args)}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fps = {}
    for line in lines:
        if line.startswith("fingerprint "):
            _, kind, value = line.split()
            fps[kind] = value
    return {"workload": workload, "seed": seed, "result": result,
            "fingerprints": fps, "report": lines[:-1]}


def bad_runs(runs):
    """Runs that are not correct or had failed operations."""
    return [r for r in runs if not r["result"]["correct"] or r["result"]["failed"] > 0]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def print_set(spec, runs, label=""):
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(runs[0]["result"]["metrics"])
    print(f"{label}{len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        if len(values) < 2:
            continue
        med, q1, q3, spread = summarize(values)
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = " OVER" if spread > bound else (" ok" if spread < bound / 3 else " >1/3")
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {b:>6} {unit}{flag}")
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"  attempted {attempted} failed {failed}")


def cmd_run(a):
    spec = load_spec()
    sets = [[] for _ in a.out]
    for i in range(a.runs):
        seed = a.first_seed + i
        for workload in a.workload:
            for s, runs in enumerate(sets):
                r = one_run(spec["command"], workload, seed, a.seconds or spec["run_seconds"], a.trace)
                runs.append(r)
                m = r["result"]["metrics"]
                print(f"set {s + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    for path, runs in zip(a.out, sets):
        with open(path, "w") as f:
            json.dump(runs, f)
    ok = True
    for s, runs in enumerate(sets):
        for workload in a.workload:
            print_set(spec, [r for r in runs if r["workload"] == workload], f"set {s + 1} {workload}: ")
        for r in bad_runs(runs):
            print(f"FAIL set {s + 1} {r['workload']} seed {r['seed']}: "
                  f"correct={r['result']['correct']} failed={r['result']['failed']}")
            ok = False
    sys.exit(0 if ok else 1)


def cmd_compare(a):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for path in (a.first, a.second):
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    for n, runs in enumerate(sets):
        for r in bad_runs(runs):
            print(f"FAIL set {n + 1} {r['workload']} seed {r['seed']}: "
                  f"correct={r['result']['correct']} failed={r['result']['failed']}")
            ok = False
    by_key = [{(r["workload"], r["seed"]): r for r in s} for s in sets]
    for key in sorted(set(by_key[0]) & set(by_key[1])):
        fa, fb = by_key[0][key]["fingerprints"], by_key[1][key]["fingerprints"]
        if fa.get("inputs") != fb.get("inputs"):
            sys.exit(f"refused: input fingerprints differ for {key}: {fa.get('inputs')} vs {fb.get('inputs')}")
        if fa.get("answers") != fb.get("answers"):
            print(f"FAIL answer fingerprint changed for {key}: {fa.get('answers')} -> {fb.get('answers')}")
            ok = False
    for workload in sorted({r["workload"] for r in sets[0]}):
        runs = [[r for r in s if r["workload"] == workload] for s in sets]
        if not runs[1]:
            continue
        print_set(spec, runs[0], f"{workload} set 1: ")
        print_set(spec, runs[1], f"{workload} set 2: ")
        for name, m in bounds.items():
            if name not in runs[0][0]["result"]["metrics"]:
                continue
            meds = [statistics.median(r["result"]["metrics"][name]["value"] for r in rs) for rs in runs]
            worse = (meds[1] - meds[0]) if m["better"] == "lower" else (meds[0] - meds[1])
            rel = worse / abs(meds[0]) if meds[0] else 0.0
            verdict = "FAIL" if rel > m["bound"] else "ok"
            ok &= verdict == "ok"
            print(f"  {workload:<13} {name:<16} {meds[0]:>12.6g} -> {meds[1]:>12.6g} worse by {rel:+.4f} (bound {m['bound']}) {verdict}")
    print("agree" if ok else "DISAGREE")
    sys.exit(0 if ok else 1)


def cmd_selftest(_a):
    """compare refuses differing inputs and fails on changed answers,
    on failed runs and on a median worse than its bound."""
    import os
    import tempfile

    def fake(inputs, answers, p50, failed=0):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in load_spec()["end_to_end"]}
        return [{"workload": "w", "seed": s, "fingerprints": {"inputs": inputs, "answers": answers},
                 "result": {"correct": failed == 0, "attempted": 10, "failed": failed if s == 0 else 0,
                            "metrics": {**metrics, "p50_ms": {"value": p50 + s, "unit": "ms"}}}}
                for s in range(4)]

    def outcome(a, b):
        os.makedirs(".perfbench_work", exist_ok=True)
        with tempfile.TemporaryDirectory(dir=".perfbench_work") as d:
            paths = [os.path.join(d, n) for n in ("a.json", "b.json")]
            for path, runs in zip(paths, (a, b)):
                with open(path, "w") as f:
                    json.dump(runs, f)
            out = subprocess.run([sys.executable, __file__, "compare", *paths], capture_output=True, text=True)
            return out.returncode, out.stdout + out.stderr

    code, text = outcome(fake("i1", "a1", 10), fake("i1", "a1", 10))
    assert code == 0 and "agree" in text, text
    code, text = outcome(fake("i1", "a1", 10), fake("i2", "a1", 10))
    assert code != 0 and "refused" in text, text
    code, text = outcome(fake("i1", "a1", 10), fake("i1", "a2", 10))
    assert code != 0 and "answer fingerprint changed" in text, text
    code, text = outcome(fake("i1", "a1", 10), fake("i1", "a1", 20))
    assert code != 0 and "FAIL" in text, text
    code, text = outcome(fake("i1", "a1", 10), fake("i1", "a1", 10, failed=1))
    assert code != 0 and "FAIL set 2 w seed 0" in text, text
    print("selftest ok")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", nargs="+", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", nargs="+", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    sub.add_parser("selftest")
    a = p.parse_args()
    {"run": cmd_run, "compare": cmd_compare, "selftest": cmd_selftest}[a.cmd](a)


if __name__ == "__main__":
    main()
