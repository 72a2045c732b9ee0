import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ten paired runs of a parent: median 100, quartiles 98 and 102
PARENT = [95.0, 98.0, 99.0, 97.0, 100.0, 100.0, 102.0, 101.0, 103.0, 105.0]


def test_quartiles_are_inclusive():
    q = ab.quartiles(PARENT)
    assert (q["q1"], q["median"], q["q3"]) == (98.25, 100.0, 101.75)
    assert q["runs"] == PARENT
    assert ab.quartiles([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "runs": [4.0]}


def test_a_gain_that_wins_nine_pairs_past_the_spread_holds():
    change = [p + 5.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0
    got = ab.claim_verdict(PARENT, change, "higher")
    assert got["won"] == 9 and got["pairs"] == 10
    assert got["gap"] == 5.0 and got["parent_spread"] == 3.5
    assert got["relative_gap"] == 0.05
    assert got["holds"]


@pytest.mark.parametrize("change, why", [
    # eight pairs won
    ([p + 5.0 if i < 8 else p - 1.0 for i, p in enumerate(PARENT)], "pairs"),
    # every pair won, by less than the parent's quartile spread
    ([p + 3.0 for p in PARENT], "spread"),
    # two ties, which are no wins
    ([p + 5.0 if i > 1 else p for i, p in enumerate(PARENT)], "pairs"),
])
def test_a_gain_short_of_the_rule_does_not_hold(change, why):
    got = ab.claim_verdict(PARENT, change, "higher")
    assert not got["holds"]
    if why == "pairs":
        assert got["won"] < 9 and got["gap"] > got["parent_spread"]
    else:
        assert got["won"] == 10 and got["gap"] < got["parent_spread"]


def test_fewer_than_ten_pairs_never_hold():
    change = [p + 50.0 for p in PARENT]
    assert ab.claim_verdict(PARENT, change, "higher")["holds"]
    assert not ab.claim_verdict(PARENT[:9], change[:9], "higher")["holds"]


def test_lower_is_better_reads_the_gain_the_other_way():
    faster = [p - 5.0 for p in PARENT]
    got = ab.claim_verdict(PARENT, faster, "lower")
    assert got["won"] == 10 and got["gap"] == 5.0 and got["holds"]
    got = ab.claim_verdict(PARENT, faster, "higher")
    assert got["won"] == 0 and got["gap"] == -5.0 and not got["holds"]
    assert ab.wins(PARENT, faster, "lower") == 10


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab.claim_verdict(PARENT, PARENT[:9], "higher")
