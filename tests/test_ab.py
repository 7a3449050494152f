"""The paired A/B tool's verdicts: wins, the claim rule, and the
per-metric bound check."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


PARENT = [10.0, 10.2, 9.9, 10.1, 10.3, 10.0, 9.8, 10.1, 10.2, 10.0]


class TestClaimVerdict:
    def test_clear_win_is_met(self):
        change = [v - 1.0 for v in PARENT]
        met, text = ab.claim_verdict(PARENT, change, "lower")
        assert met
        assert "10/10" in text and text.endswith("MET")

    def test_nine_of_ten_wins_suffice(self):
        change = [v - 1.0 for v in PARENT]
        change[3] = PARENT[3] + 0.5
        assert ab.change_wins(PARENT, change, "lower") == 9
        assert ab.claim_verdict(PARENT, change, "lower")[0]

    def test_eight_of_ten_wins_fail(self):
        change = [v - 1.0 for v in PARENT]
        change[3] = PARENT[3] + 0.5
        change[7] = PARENT[7]             # a tie counts for neither side
        assert ab.change_wins(PARENT, change, "lower") == 8
        met, text = ab.claim_verdict(PARENT, change, "lower")
        assert not met and text.endswith("NOT MET")

    def test_gap_within_parent_spread_fails(self):
        # Wins every pair, by less than the parent's q1-q3 spread (0.225).
        change = [v - 0.05 for v in PARENT]
        assert ab.change_wins(PARENT, change, "lower") == 10
        assert not ab.claim_verdict(PARENT, change, "lower")[0]

    def test_higher_is_better(self):
        change = [v + 1.0 for v in PARENT]
        assert ab.claim_verdict(PARENT, change, "higher")[0]
        assert not ab.claim_verdict(PARENT, change, "lower")[0]

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError):
            ab.claim_verdict(PARENT, PARENT[:-1], "lower")


def _runs(side_values):
    """perfbench result objects, one per run, from per-metric lists."""
    names = list(side_values)
    count = len(side_values[names[0]])
    return [{"metrics": {name: {"value": side_values[name][i]}
                         for name in names},
             "correct": True, "failed": 0, "attempted": 4}
            for i in range(count)]


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "cells/s", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


class TestBoundVerdict:
    def test_steady_runs_within_bound(self):
        held, text = ab.bound_verdict([10.0, 10.1, 9.9], [11.0, 11.1, 10.9],
                                      0.25, "lower")
        assert held and text == "within 25%"

    def test_wide_spread_is_unresolved(self):
        # Parent q1-q3 spread is 4/10 = 40 %, wider than the 25 % bound.
        held, text = ab.bound_verdict([8.0, 10.0, 12.0], [9.0, 10.5, 13.0],
                                      0.25, "lower")
        assert held and text == "within 25%, unresolved: spread 40%"

    def test_wide_spread_resolved_when_every_run_is_better(self):
        held, text = ab.bound_verdict([8.0, 10.0, 12.0], [4.0, 5.0, 7.0],
                                      0.25, "lower")
        assert held and text == "within 25%"
        held, text = ab.bound_verdict([8.0, 10.0, 12.0], [13.0, 15.0, 17.0],
                                      0.25, "higher")
        assert held and text == "within 25%"


class TestReport:
    def _report(self, parent, change):
        runs = {"parent": _runs(parent), "change": _runs(change)}
        firsts = ["parent", "change", "parent"]
        lines, beyond = ab.report(METRICS, runs, firsts)
        rows = {line.split()[0]: line for line in lines[1:4]}
        return rows, beyond

    def test_bound_verdict_per_metric(self):
        rows, beyond = self._report(
            {"wall_s": [10.0, 10.0, 10.0], "cells_per_s": [7.0, 7.0, 7.0],
             "peak_rss_mb": [30.0, 30.0, 30.0]},
            # wall_s 30 % worse, cells_per_s 20 % worse, RSS 5 % worse.
            {"wall_s": [13.0, 13.0, 13.0], "cells_per_s": [5.6, 5.6, 5.6],
             "peak_rss_mb": [31.5, 31.5, 31.5]})
        assert beyond == ["wall_s"]
        assert rows["wall_s"].endswith("BEYOND 25%")
        assert rows["cells_per_s"].endswith("within 25%")
        assert rows["peak_rss_mb"].endswith("within 10%")
        assert "0/3 (lower is better)" in rows["wall_s"]

    def test_unreported_metric_is_skipped(self):
        rows, beyond = self._report(
            {"wall_s": [10.0, 10.0, 10.0], "cells_per_s": [7.0, 7.0, 7.0],
             "peak_rss_mb": [None, None, None]},
            {"wall_s": [9.0, 9.0, 9.0], "cells_per_s": [8.0, 8.0, 8.0],
             "peak_rss_mb": [None, None, None]})
        assert beyond == []
        assert rows["peak_rss_mb"].split()[2:] == ["n/a"]
        assert "3/3 (higher is better)" in rows["cells_per_s"]
