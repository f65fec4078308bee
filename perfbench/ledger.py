#!/usr/bin/env python3
"""Run the benchmark several times and keep the results as a ledger.

    python3 perfbench/ledger.py run [--runs 10] [--trace 0] --out perfbench/results/NAME.json
    python3 perfbench/ledger.py compare OLD.json NEW.json

`run` invokes the command in BENCHMARK.json for every workload it names,
with its `run_seconds`, once per (seed, workload), seeds in the outer loop
so repeats of one workload are spread across the whole ledger run instead of
running back to back. For every metric it records the median and quartiles
over the runs, and the spread (Q3 - Q1) / median next to a third of the
metric's bound; it exits with 1 if any spread reaches that third. Run it
from the repository root.

`compare` sets two ledgers side by side, workload by workload. It refuses
(exit code 2) when a workload's fingerprint differs between them: the job
batch, its simulated cycles or the effective worker count changed, so the
times measure different work.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = next(l for l in lines if l.startswith("result "))
    summary = json.loads(lines[-1])
    return json.loads(result[len("result "):]), summary


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def cmd_run(opts):
    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(1, opts.runs + 1):
        for w in runs:
            result, summary = run_once(bench["command"], w, seed, seconds, opts.trace)
            result.pop("spans", None)
            if not summary["correct"]:
                print(f"{w} seed {seed}: INCORRECT: {result['notes']}", file=sys.stderr)
            runs[w].append(result)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in summary["metrics"].items()), flush=True)
    ledger = {"runs": opts.runs, "seconds": seconds, "trace": opts.trace, "workloads": {}}
    steady = True
    for w, results in runs.items():
        fingerprints = sorted({r["fingerprint"] for r in results})
        key = "per_layer" if opts.trace else "end_to_end"
        metrics = {}
        for name in results[0][key]:
            s = spread([r[key][name]["value"] for r in results])
            s["unit"] = results[0][key][name]["unit"]
            bound = bounds.get(name) if not opts.trace else None
            if bound is not None:
                s["bound"] = bound
                s["within_third_of_bound"] = s["spread"] < bound / 3
                steady &= s["within_third_of_bound"]
            metrics[name] = s
        ledger["workloads"][w] = {
            "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
            "host": results[0]["host"],
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
            "results": results,
        }
        print(f"\n{w} (fingerprint {ledger['workloads'][w]['fingerprint']})")
        for name, s in metrics.items():
            mark = "" if s.get("within_third_of_bound", True) else "  <-- spread above bound/3"
            print(f"  {name:<26} median {s['median']:<14.6g} spread {s['spread']:.4f}"
                  f"{' bound ' + str(s['bound']) if 'bound' in s else ''}{mark}")
    with open(opts.out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    return 0 if steady else 1


def cmd_compare(opts):
    with open(opts.old) as f:
        old = json.load(f)
    with open(opts.new) as f:
        new = json.load(f)
    status = 0
    for w, n in new["workloads"].items():
        o = old["workloads"].get(w)
        if o is None:
            print(f"{w}: not in {opts.old}")
            continue
        if o["fingerprint"] != n["fingerprint"]:
            print(f"{w}: REFUSED: fingerprint {o['fingerprint']} != {n['fingerprint']} "
                  "(different jobs, cycles or worker count)")
            status = 2
            continue
        print(f"{w} (fingerprint {n['fingerprint']})")
        for name, s in n["metrics"].items():
            if name not in o["metrics"]:
                continue
            before, after = o["metrics"][name]["median"], s["median"]
            change = (after - before) / before if before else 0.0
            print(f"  {name:<26} {before:<14.6g} -> {after:<14.6g} {change:+.2%}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    opts = p.parse_args()
    if opts.cmd == "run":
        return cmd_run(opts)
    return cmd_compare(opts)


if __name__ == "__main__":
    sys.exit(main())
