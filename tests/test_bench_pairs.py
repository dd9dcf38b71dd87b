"""Tests of scripts/bench_pairs.py: the checkout-form guard, the split of
failure messages by side, and the rule for claiming a gain."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "unit_s", "better": "lower"}]


def run(side, seed, unit_s, failures=(), trace=0):
    """A run as keep() stores it, with one end-to-end metric."""
    return {
        "side": side,
        "workload": "oracle_mc",
        "seed": seed,
        "trace": trace,
        "attempted": 10,
        "failed": len(failures),
        "failures": list(failures),
        "metrics": {"unit_s": unit_s},
    }


def pairs(parent, change, failures=None):
    failures = failures or {}
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        both, p_only, c_only = failures.get(seed, ((), (), ()))
        runs.append(run("parent", seed, p, [*both, *p_only]))
        runs.append(run("change", seed, c, [*both, *c_only]))
    return bench_pairs.summarise(runs, END_TO_END)["oracle_mc"]


class TestCheckoutForm:
    def test_refuses_a_git_checkout_against_a_plain_copy(self, tmp_path, capsys):
        parent, change = tmp_path / "parent", tmp_path / "change"
        (parent / ".git").mkdir(parents=True)
        change.mkdir()
        out = tmp_path / "pairs.json"
        argv = ["--parent", str(parent), "--change", str(change), "--out", str(out),
                "--workload", "oracle_mc", "--seeds", "1"]
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--parent is a git checkout and --change is a plain copy" in err
        assert not out.exists()


class TestFailures:
    def test_failures_on_both_sides_of_a_seed_are_kept_apart(self):
        shared = "Monte-Carlo value of kt_always = 0.98 above oracle + 0.02"
        entry = pairs(
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            {0: ([shared], ["parent fault"], []), 2: ([], [], ["change fault"])},
        )
        assert entry["failures"] == {
            "both_sides": {"0": [shared]},
            "parent_only": {"0": ["parent fault"]},
            "change_only": {"2": ["change fault"]},
        }

    def test_no_failures_leave_empty_maps(self):
        entry = pairs([1.0, 2.0], [1.0, 2.0])
        assert entry["failures"] == {"both_sides": {}, "parent_only": {}, "change_only": {}}


class TestGainRule:
    def test_ties_count_for_neither_side(self):
        entry = pairs([1.0] * 10, [1.0] * 10)["unit_s"]
        assert entry["change_wins"] == 0
        assert entry["gain_shown"] is False

    def test_nine_wins_and_a_tie_show_a_gain(self):
        parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0]
        change = [0.5] * 9 + [1.0]
        entry = pairs(parent, change)["unit_s"]
        assert entry["change_wins"] == 9
        assert entry["gain_shown"] is True

    @pytest.mark.parametrize(
        "wins, pairs_run, gain, iqr, shown",
        [
            (9, 10, 0.2, 0.1, True),
            (8, 10, 0.2, 0.1, False),   # below nine tenths of the pairs
            (9, 9, 0.2, 0.1, False),    # fewer than MIN_PAIRS pairs
            (10, 10, 0.1, 0.1, False),  # medians no further apart than the IQR
            (10, 10, 0.2, None, False),  # no parent quartiles
        ],
    )
    def test_gain_shown(self, wins, pairs_run, gain, iqr, shown):
        assert bench_pairs.gain_shown(wins, pairs_run, gain, iqr) is shown


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 4.0]

    def test_too_few_values(self):
        assert bench_pairs.quartiles([1.0]) is None
        assert bench_pairs.quartiles([]) is None
