"""Paired A/B of two revisions on one perfbench workload.

Usage (from a checkout of the repository)::

    python benchmarks/ab.py PARENT CHANGE --workload e1_full --seed 233 \\
        --pairs 10 [--claim wall_s]

Both revisions are checked out with ``git worktree add --detach`` under
one temporary directory (``$TMPDIR`` decides where); both worktrees are
removed on exit, after an error too.  Each pair runs
``perfbench/run.py --trace 0`` once in each tree with the same settings,
alternating which side runs first, and reads the last line of each run's
output, a JSON object.  Every run lasts ``BENCHMARK.json``'s
``run_seconds``.  For every end-to-end metric in ``BENCHMARK.json`` the
report gives each side's median and q1-q3, the number of pairs in which
the change was better, and whether the change's median is worse than
the parent's by more than the metric's bound (unresolved when either
side's runs spread wider than the bound, unless every change run is
better than every parent run); it then lists every run's ``correct``
and ``failed``.  Medians, quartiles, spreads and the bound check are
``perfbench/metrics.py``'s.

``--claim METRIC`` adds the verdict of the claim rule: the change is
better in at least nine tenths of the pairs (ties count for neither
side), and the medians differ, in the direction ``BENCHMARK.json`` gives
for the metric, by more than the parent's q1-q3 spread.

The exit status is 1 when a run reports ``correct: false`` or a failed
operation, when a metric is worse than its bound, or when a claim is
not met; 0 otherwise.  Standard library only; nothing is fetched.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from metrics import spread, summarize, within_bound  # noqa: E402


def change_wins(parent: Sequence[float], change: Sequence[float],
                better: str) -> int:
    """Pairs in which the change's value is strictly better."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def claim_verdict(parent: Sequence[float], change: Sequence[float],
                  better: str) -> Tuple[bool, str]:
    """The claim rule on paired runs (``parent[i]`` pairs ``change[i]``).

    Met when the change is better in at least 9/10 of the pairs and the
    medians differ in the ``better`` direction by more than the
    parent's q1-q3 spread.  Returns ``(met, explanation)``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("claim needs equally many runs on both sides")
    pairs = len(parent)
    wins = change_wins(parent, change, better)
    base = summarize(parent)
    p_med, c_med = base["median"], summarize(change)["median"]
    gap = p_med - c_med if better == "lower" else c_med - p_med
    iqr = base["q3"] - base["q1"]
    met = wins * 10 >= pairs * 9 and gap > iqr
    text = (f"change better in {wins}/{pairs} pairs (need at least 9/10); "
            f"medians {p_med:.4g} -> {c_med:.4g}, gap {gap:.4g} vs parent "
            f"q1-q3 spread {iqr:.4g}: {'MET' if met else 'NOT MET'}")
    return met, text


def bound_verdict(parent: Sequence[float], change: Sequence[float],
                  bound: float, better: str) -> Tuple[bool, str]:
    """The no-regression rule for one metric: ``(held, text)``.

    Held when the change's median is no worse than the parent's by more
    than ``bound``.  When either side's runs spread (q1-q3 over median)
    wider than the bound, the text calls the result unresolved, unless
    every change run is better than every parent run.
    """
    held = within_bound(parent, change, bound, better)
    text = f"{'within' if held else 'BEYOND'} {bound:.0%}"
    wider = max(spread(parent), spread(change))
    if better == "lower":
        apart = max(change) < min(parent)
    else:
        apart = min(change) > max(parent)
    if wider > bound and not apart:
        text += f", unresolved: spread {wider:.0%}"
    return held, text


def benchmark_spec() -> Dict:
    """``BENCHMARK.json``: run length, end-to-end metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> str:
    out = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


@contextlib.contextmanager
def worktrees(commits: Sequence[Tuple[str, str]]) -> Iterator[List[Path]]:
    """Detached worktrees of ``(name, commit)`` pairs, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    trees: List[Path] = []
    try:
        for name, commit in commits:
            path = tmp / name
            _git("worktree", "add", "--detach", str(path), commit)
            trees.append(path)
        yield trees
    finally:
        for path in trees:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(path)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)


def run_perfbench(tree: Path, workload: str, seed: int,
                  seconds: float) -> Dict:
    """One untraced perfbench run in ``tree``; its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench in {tree} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _value(run: Dict, metric: str) -> Optional[float]:
    return run["metrics"].get(metric, {}).get("value")


def report(metrics: Sequence[Dict], runs: Dict[str, List[Dict]],
           firsts: Sequence[str]) -> Tuple[List[str], List[str]]:
    """The per-metric table and the per-run check lines, and the names
    of the metrics whose change median is worse than the parent's by
    more than the metric's bound."""
    lines = [f"{'metric':<20} {'unit':<8} {'parent median (q1-q3)':<32} "
             f"{'change median (q1-q3)':<32} {'ratio':>6}  "
             f"{'change better':<34}  bound"]
    beyond = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = {side: [_value(r, name) for r in runs[side]]
                 for side in ("parent", "change")}
        if any(v is None for vs in sides.values() for v in vs):
            lines.append(f"{name:<20} {metric['unit']:<8} n/a")
            continue
        stats = [summarize(sides[side]) for side in ("parent", "change")]
        cells = [f"{s['median']:.4g} ({s['q1']:.4g}-{s['q3']:.4g})"
                 for s in stats]
        p_med, c_med = stats[0]["median"], stats[1]["median"]
        wins = change_wins(sides["parent"], sides["change"], better)
        if p_med and c_med:
            ratio = f"{c_med / p_med:.3f}"
            held, verdict = bound_verdict(sides["parent"], sides["change"],
                                          metric["bound"], better)
            if not held:
                beyond.append(name)
        else:
            ratio = verdict = "n/a"
        wins_text = f"{wins}/{len(firsts)} ({better} is better)"
        lines.append(f"{name:<20} {metric['unit']:<8} {cells[0]:<32} "
                     f"{cells[1]:<32} {ratio:>6}  {wins_text:<34}  "
                     f"{verdict}")
    lines.append("")
    for i, first in enumerate(firsts):
        parts = [f"{side} correct={runs[side][i]['correct']} "
                 f"failed={runs[side][i]['failed']}/"
                 f"{runs[side][i]['attempted']}"
                 for side in ("parent", "change")]
        lines.append(f"pair {i + 1:>2} ({first} first): " + "; ".join(parts))
    return lines, beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired A/B of two revisions on one perfbench "
                    "workload (see the module docstring)")
    parser.add_argument("parent", help="baseline revision")
    parser.add_argument("change", help="candidate revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric the change claims to "
                             "improve")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    metrics = spec["end_to_end"]
    directions = {m["name"]: m["better"] for m in metrics}
    if args.claim is not None and args.claim not in directions:
        parser.error(f"--claim {args.claim}: not an end-to-end metric of "
                     f"BENCHMARK.json ({', '.join(directions)})")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commits = []
    for side, rev in (("parent", args.parent), ("change", args.change)):
        try:
            commits.append(
                (side, _git("rev-parse", "--verify", f"{rev}^{{commit}}")))
        except subprocess.CalledProcessError:
            parser.error(f"{side} revision {rev!r}: not a commit")

    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    firsts = []
    with worktrees(commits) as trees:
        tree_of = dict(zip(("parent", "change"), trees))
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            firsts.append(order[0])
            for side in order:
                start = time.monotonic()
                run = run_perfbench(tree_of[side], args.workload,
                                    args.seed, spec["run_seconds"])
                runs[side].append(run)
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      f"wall_s {_value(run, 'wall_s')}, correct "
                      f"{run['correct']} "
                      f"({time.monotonic() - start:.0f} s)",
                      file=sys.stderr, flush=True)

    print(f"A/B {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {spec['run_seconds']:g} --trace 0")
    print(f"parent {commits[0][1][:12]}  change {commits[1][1][:12]}")
    lines, beyond = report(metrics, runs, firsts)
    print("\n".join(lines))
    status = 0
    if beyond:
        print(f"BOUND EXCEEDED: the change's median is worse than the "
              f"parent's by more than the bound on {', '.join(beyond)}")
        status = 1
    if any(not r["correct"] or r["failed"]
           for side in runs.values() for r in side):
        print("CHECK FAILED: a run reported incorrect output or failed "
              "operations")
        status = 1
    if args.claim is not None:
        values = {side: [_value(r, args.claim) for r in runs[side]]
                  for side in runs}
        if any(v is None for vs in values.values() for v in vs):
            print(f"claim {args.claim}: not reported on {args.workload}")
            return 1
        met, text = claim_verdict(values["parent"], values["change"],
                                  directions[args.claim])
        print(f"claim {args.claim} ({directions[args.claim]} is better): "
              f"{text}")
        if not met:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
