"""Repeat the benchmark over several seeds and judge its steadiness.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload corpus_fill_cold \
        --seeds 1,2,3,4,5,6,7,8,9,10 --out fill.jsonl
    python3 perfbench/steady.py --workload corpus_fill_cold \
        --seeds 11,12,13 --out fill2.jsonl --baseline fill.jsonl

Runs ``run.py --trace 0`` once per seed, one after another, and prints
for every end-to-end metric in ``BENCHMARK.json`` its median, quartiles
and spread (quartile distance over median).  A spread above the
metric's bound fails; one above a third of it is flagged as not yet
steady.  With ``--baseline`` (a file an earlier ``--out`` wrote) it also
checks that this set's median is no worse than the baseline's by more
than the bound.  Exits 1 when a check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import spread, summarize, within_bound

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one run each")
    parser.add_argument("--out", default=None,
                        help="append each run's result line here")
    parser.add_argument("--baseline", default=None,
                        help="result lines of an earlier set to compare")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        result = run_once(args.workload, seed, spec["run_seconds"])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              flush=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result, sort_keys=True) + "\n")
    baseline = None
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = [json.loads(line) for line in fh if line.strip()]

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = values_of(results, name)
        s = summarize(values)
        share = spread(values) if len(values) > 1 else 0.0
        verdict = "steady"
        if share > bound / 3:
            verdict = "not steady"
        if share > bound and name != "setup_s":
            verdict, ok = "SPREAD > BOUND", False
        line = (f"{name:20s} median {s['median']:12.6g} q1 {s['q1']:12.6g} "
                f"q3 {s['q3']:12.6g} n {s['n']:2d} spread {share:6.3f} "
                f"bound {bound:.2f} {verdict}")
        if baseline is not None:
            base = values_of(baseline, name)
            held = within_bound(base, values, bound, metric["better"])
            ok = ok and held
            line += "  vs baseline " + ("ok" if held else "REGRESSED")
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
