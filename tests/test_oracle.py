"""The brute-force matrix oracle against its frozen result set.

The pinned values in tests/fixtures/clips_oracle_pins.json were
computed and frozen before the closed-form layer existed; any change
that shifts one of them is a regression, not a table disagreement.
"""

import numpy as np
import pytest

from conftest import load_pins
from o3clips.engine import clips
from o3clips.groups import intersect, materialize, reference_group
from o3clips.labels import format_label, parse_label
from o3clips.oracle import _prepped, _spin_table, clips_oracle, conjugators
from o3clips.rotations import random_rotation, rotation

PINS = load_pins("clips_oracle_pins")


@pytest.mark.parametrize("key", sorted(PINS))
def test_frozen_pin(key):
    lhs, rhs = key.split("|")
    got = clips_oracle(parse_label(lhs), parse_label(rhs))
    assert got.labels() == PINS[key]


def test_oracle_symmetric_sample():
    for lhs, rhs in [("Z4", "D6"), ("T", "O"), ("D4^z", "O^-"),
                     ("Z6^-", "D8^d")]:
        a, b = parse_label(lhs), parse_label(rhs)
        assert clips_oracle(a, b) == clips_oracle(b, a)


def test_oracle_seed_independent_sample():
    for lhs, rhs in [("D4", "O"), ("D6^d", "T+Z2c")]:
        a, b = parse_label(lhs), parse_label(rhs)
        assert clips_oracle(a, b, seed=0) == clips_oracle(a, b, seed=11)


def test_oracle_rejects_infinite():
    with pytest.raises(Exception):
        clips_oracle(parse_label("SO(2)"), parse_label("Z2"))


def test_pin_labels_are_canonical():
    for key, cell in PINS.items():
        for part in key.split("|"):
            assert format_label(parse_label(part)) == part
        for lbl in cell:
            assert format_label(parse_label(lbl)) == lbl


def test_oracle_above_old_snap_cap():
    # Orders past 60 need angles snapped with denominators up to the cap.
    got = clips_oracle(parse_label("Z128"), parse_label("Z130"))
    assert got.labels() == ["1", "Z2"]
    # Z176^- holds a half turn whose trace misses -1 by ~1e-14
    assert clips("Z176^-", "Z4^-").labels() == ["1", "Z2"]
    got = clips_oracle(parse_label("Z176^-"), parse_label("Z3"))
    assert got.labels() == ["1"]


def test_sweep_does_not_grow_with_lcm():
    # The spin sweep takes solved angles plus one generic angle per
    # aligner; a grid over lcm(7, 11) would need tens of thousands.
    assert len(conjugators(parse_label("Z7"), parse_label("Z11"))) < 300


PROBE_COUNTS = {("Z7", "Z11"): 13, ("D12^z", "D11^z"): 1085,
                ("I+Z2c", "O^-"): 3805, ("O+Z2c", "D8^d"): 1061}


@pytest.mark.parametrize("seed", [0, 11])
def test_sweep_has_no_random_conjugators(seed):
    # Z7 x Z11: the identity, one spin for each of the six aligners that
    # involve a z axis, and two solved spins plus a generic one for each
    # of the two generic-to-generic aligners.  The seed only moves the
    # generic axes, so every count is the same for every seed.
    for pair, count in PROBE_COUNTS.items():
        g = conjugators(*map(parse_label, pair), seed=seed)
        assert len(g) == count, pair
        # every conjugator is a proper rotation
        gram = g @ g.transpose(0, 2, 1)
        assert np.abs(gram - np.eye(3)).max() < 1e-12, pair
        assert np.abs(np.linalg.det(g) - 1.0).max() < 1e-12, pair


def _spin_row(solved, period):
    """The spin rule one aligner at a time: the reference for the table."""
    solved = solved % period
    solved = np.sort(np.where(period - solved < 1e-9, 0.0, solved))
    solved = solved[np.diff(solved, prepend=-1.0) > 1e-9]
    if solved.size == 0:
        return np.zeros(1)
    gaps = np.diff(solved, append=solved[0] + period)
    k = int(np.argmax(gaps))
    return np.append(solved, (solved[k] + gaps[k] / 2.0) % period)


def test_spin_table_matches_the_per_row_rule():
    rng = np.random.default_rng(3)
    rows, width = 40, 24
    period = 2.0 * np.pi / rng.integers(1, 13, size=rows)
    solved = rng.uniform(-7.0, 7.0, size=(rows, width))
    # repeats, exact and a rounding error apart, and an angle a rounding
    # error below a multiple of the period
    solved[:, 1] = solved[:, 0]
    solved[:, 3] = solved[:, 2] + 1e-12
    solved[:, 5] = 3.0 * period - 1e-12
    valid = rng.random((rows, width)) < 0.7
    valid[0] = False
    valid[1] = np.arange(width) < 2
    spins, count = _spin_table(solved, valid, period)
    for i in range(rows):
        want = _spin_row(solved[i][valid[i]], period[i])
        assert np.array_equal(spins[i, : count[i]], want), i


@pytest.mark.parametrize("text", ["I+Z2c", "O^-", "D128^d", "Z256"])
def test_member_mask_at_the_tolerance(text):
    label = parse_label(text)
    elems = reference_group(label)
    member = _prepped(label).member_mask
    assert member(elems).all()
    rng = np.random.default_rng(7)
    u = rng.normal(size=3)
    assert member(rotation(u, 1e-12) @ elems).all()
    assert not member(rotation(u, 1e-6) @ elems).any()
    # -Id is in I+Z2c and in no other group here, so -h is a member
    # exactly when h is in I+Z2c
    assert (member(-elems) == (text == "I+Z2c")).all()
    for g in (random_rotation(rng), rotation([0.0, 0.0, 1.0], np.pi / 7)):
        rot = materialize(label, g)
        assert np.array_equal(rot[member(rot)], intersect(elems, rot))
