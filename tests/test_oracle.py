"""The brute-force matrix oracle against its frozen result set.

The pinned values in tests/fixtures/clips_oracle_pins.json were
computed and frozen before the closed-form layer existed; any change
that shifts one of them is a regression, not a table disagreement.
"""

import numpy as np
import pytest

from conftest import load_pins
from o3clips.engine import clips
from o3clips.groups import (
    E3,
    axis_orbit_reps,
    intersect,
    materialize,
    recognize,
    reference_group,
    structural_axes,
)
from o3clips.labels import ClassLabel, format_label, order_of, parse_label
from o3clips.tables import table_cols, table_rows
from o3clips import oracle
from o3clips.oracle import (
    _distinct_masks,
    _prepped,
    _spin_table,
    clips_oracle,
    conjugators,
)
from o3clips.rotations import random_rotation, rotation
from test_acceptance import _finite_labels

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


# type II x II pairs meet in 1+Z2c at a generic rotation, every other
# pair in 1
CENTRAL_PAIRS = [("D4+Z2c", "O+Z2c"), ("T+Z2c", "I+Z2c"), ("Z6+Z2c", "D3+Z2c"),
                 ("1+Z2c", "Z2+Z2c"), ("D4", "O+Z2c"), ("O^-", "D6+Z2c"),
                 ("Z4^-", "D8^d"), ("I", "Z5")]


@pytest.mark.parametrize("pair", CENTRAL_PAIRS, ids="|".join)
def test_generic_rotation_meets_in_the_stated_central_class(pair):
    c1, c2 = map(parse_label, pair)
    central = parse_label("1+Z2c" if c1.plus and c2.plus else "1")
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = random_rotation(rng)
        got = recognize(intersect(reference_group(c1), materialize(c2, g)))
        assert got == central
    assert central in clips_oracle(c1, c2)


@pytest.mark.parametrize("text", ["1", "1+Z2c"])
def test_axisless_class_sweeps_nothing(text):
    c, d4 = parse_label(text), parse_label("D4+Z2c")
    for pair in [(c, d4), (d4, c)]:
        assert conjugators(*pair).shape == (0, 3, 3)
        assert clips_oracle(*pair).labels() == [text]


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


PROBE_COUNTS = {("Z7", "Z11"): 1, ("D12^z", "D11^z"): 26,
                ("I+Z2c", "O^-"): 93, ("O+Z2c", "D8^d"): 51}
# three more pairs that mix the type I, II and III families
MIXED_PAIRS = [("D16^d", "T+Z2c"), ("D12", "O+Z2c"), ("O^-", "D32")]


@pytest.mark.parametrize("seed", [0, 11])
def test_sweep_has_no_random_conjugators(seed):
    # Z7 x Z11: z onto +z, one generic spin, as no axis lies off the
    # line z.  The sweep draws nothing, so the seed changes no count.
    for pair, count in PROBE_COUNTS.items():
        c1, c2 = map(parse_label, pair)
        g = conjugators(c1, c2, seed=seed)
        assert len(g) == count, pair
        # every conjugator is a proper rotation
        gram = g @ g.transpose(0, 2, 1)
        assert np.abs(gram - np.eye(3)).max() < 1e-12, pair
        assert np.abs(np.linalg.det(g) - 1.0).max() < 1e-12, pair
        # and maps an orbit representative a of H2 onto +b, b one of H1
        b, a = axis_orbit_reps(c1)[0], axis_orbit_reps(c2)[0]
        ga = np.einsum("mij,kj->mki", g, a)[:, :, None]
        gap = np.abs(ga - b).max(axis=-1)
        assert gap.min(axis=(1, 2)).max() < 1e-12, pair


def _on_line_elements(label: ClassLabel) -> np.ndarray:
    """Per axis orbit representative a, the elements x of the reference
    group that are ±Id or rotate about the line a: det(x) x fixes a."""
    elems, reps = reference_group(label), axis_orbit_reps(label)[0]
    h = np.linalg.det(elems)[:, None, None] * elems
    return np.abs(np.einsum("xij,aj->axi", h, reps) - reps[:, None]).max(axis=2) < 1e-9


@pytest.mark.parametrize("pair", [*PROBE_COUNTS, *MIXED_PAIRS], ids="|".join)
def test_pruned_masks_match_every_conjugator(pair):
    # the distinct masks of the batched Kronecker loop against every
    # conjugator conjugated by matrix products, in 20 splits of the
    # sweep; the first k1 k2 rows, the aligners, stand for their generic
    # spins and keep only the elements on the line a and ±Id
    c1, c2 = map(parse_label, pair)
    g2 = reference_group(c2)
    member = _prepped(c1).member_mask
    all_g = conjugators(c1, c2)
    line = np.tile(_on_line_elements(c2), (len(axis_orbit_reps(c1)[0]), 1))
    keep = np.vstack([line, np.ones((len(all_g) - len(line), len(g2)), bool)])
    want = set()
    for g, kept in zip(np.array_split(all_g, 20), np.array_split(keep, 20)):
        conj = (g[:, None] @ g2[None]) @ g.transpose(0, 2, 1)[:, None]
        want |= {np.packbits(m).tobytes() for m in member(conj) & kept}
    got = {np.packbits(m).tobytes() for m in _distinct_masks(c1, c2)}
    assert got == want


# the 63 finite pairs of verify_cells(3, 3)
SWEEP_PAIRS = [(row, col)
               for row in table_rows(("Z", "D", "T", "O", "I"), range(2, 4))
               for col in table_cols(("Z-", "Dz", "Dd", "O-"), range(1, 4))]


def test_mask_recognition_reads_the_label_census():
    # recognize(c2, mask) reads the census of c2 at the mask; it must
    # name the class that a census of the masked elements names
    assert len(SWEEP_PAIRS) == 63
    pairs = [tuple(map(parse_label, p)) for p in [*PROBE_COUNTS, *MIXED_PAIRS]]
    for c1, c2 in pairs + SWEEP_PAIRS:
        g2 = reference_group(c2)
        for mask in _distinct_masks(c1, c2):
            assert recognize(c2, mask) == recognize(g2[mask]), (c1, c2)


def test_frames_take_each_representative_to_e3():
    for label in _finite_labels(12):
        frames = _prepped(label).frames
        reps = axis_orbit_reps(label)[0]
        gram = frames @ frames.transpose(0, 2, 1)
        assert np.all(np.abs(gram - np.eye(3)) < 1e-12), label
        assert np.all(np.abs(np.linalg.det(frames) - 1.0) < 1e-12), label
        assert np.all(np.abs(frames @ reps[:, :, None] - E3[:, None]) < 1e-12)


# rows x |H2| x max(9, |H1|) floats that one member_mask call may hold
MASK_BUDGET = 2.5e5


@pytest.mark.parametrize("pair", [("I+Z2c", "I+Z2c"), ("I+Z2c", "O^-"),
                                  ("D128^z", "D128^z")], ids="|".join)
def test_masks_stay_within_the_batch_budget(pair, monkeypatch):
    c1, c2 = map(parse_label, pair)
    calls = []
    member = oracle._Prepped.member_mask

    def spy(self, cands):
        calls.append(cands.shape[:2])
        return member(self, cands)

    monkeypatch.setattr(oracle._Prepped, "member_mask", spy)
    _distinct_masks(c1, c2)
    width = max(9, order_of(c1))
    assert all(rows * n * width <= MASK_BUDGET for rows, n in calls), calls
    assert sum(rows for rows, _ in calls) == len(conjugators(c1, c2))
    if pair == ("I+Z2c", "I+Z2c"):
        # 69 conjugators at 17 rows per batch
        assert len(calls) == 5


def _on_line(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.cross(x, y), axis=-1) < 1e-9


@pytest.mark.parametrize("pair", list(PROBE_COUNTS), ids="|".join)
def test_every_spin_but_the_generic_ones_is_solved(pair):
    # A spin R(b, t) g0 is solved when it puts an axis v of H2 off the
    # line b on the line of an axis of H1.  The first k1 k2 rows are the
    # aligners g0, which stand for the generic spins; every row after
    # them is solved.
    c1, c2 = map(parse_label, pair)
    b, a = axis_orbit_reps(c1)[0], axis_orbit_reps(c2)[0]
    w, v = structural_axes(c1)[0], structural_axes(c2)[0]
    g = conjugators(c1, c2)
    ga = np.einsum("mij,kj->mki", g, a)
    gv = np.einsum("mij,kj->mki", g, v)
    aligned = _on_line(ga[:, :, None], b).any(axis=1)
    landed = _on_line(gv[:, :, None], w).any(axis=2)[:, :, None]
    solved = (landed & ~_on_line(gv[:, :, None], b)).any(axis=1)
    rows = len(b) * len(a)
    assert (aligned & solved).any(axis=1)[rows:].all()


def _generic_angle(solved: np.ndarray, period: float) -> float:
    """The generic spin that the sweep used to build for one aligner:
    the midpoint of the largest cyclic gap between its distinct solved
    angles, or 0 when it has none."""
    if solved.size == 0:
        return 0.0
    gaps = np.diff(solved, append=solved[0] + period)
    k = int(np.argmax(gaps))
    return (solved[k] + gaps[k] / 2.0) % period


def test_stated_generic_masks_match_the_midpoint_spins(monkeypatch):
    # for every aligner row (b, a), the mask of g0 restricted to the
    # elements of H2 on the line a and ±Id is the mask of the spin
    # R(b, t) g0 at the midpoint t of the row's largest gap
    table = []
    spin_table = oracle._spin_table

    def spy(solved, valid, period):
        out = spin_table(solved, valid, period)
        table.append((period, *out))
        return out

    monkeypatch.setattr(oracle, "_spin_table", spy)
    pairs = [tuple(map(parse_label, p)) for p in [*PROBE_COUNTS, *MIXED_PAIRS]]
    for c1, c2 in pairs + SWEEP_PAIRS:
        table.clear()
        g = conjugators(c1, c2)
        (period, angles, row), = table
        reps, line = axis_orbit_reps(c1)[0], _on_line_elements(c2)
        b, line = np.repeat(reps, len(line), axis=0), np.tile(line, (len(reps), 1))
        g2, member = reference_group(c2), _prepped(c1).member_mask
        for i, g0 in enumerate(g[: len(period)]):
            t = _generic_angle(angles[row == i], period[i])
            spun = rotation(b[i], t) @ g0
            stated = member(g0 @ g2 @ g0.T) & line[i]
            assert np.array_equal(stated, member(spun @ g2 @ spun.T)), (c1, c2, i)


# the finite classes of the test pools, and the largest of each family
CAP_LABELS = _finite_labels(12) + [parse_label(text) for text in (
    "D128", "D127", "D128^z", "D127^z", "D128^d", "Z128", "Z128^-", "D64+Z2c")]


def test_a_normalizing_half_turn_reverses_each_axis():
    # conjugators aligns a only onto +b: some half turn n with n a = -a
    # keeps the class, so g and g n meet H1 alike
    s = np.sqrt(0.5)
    fixed = np.vstack([np.eye(3), [[s, s, 0.0], [s, -s, 0.0]]])
    for label in CAP_LABELS:
        ref = reference_group(label)
        cands = np.vstack([fixed, structural_axes(label)[0]])
        for a in axis_orbit_reps(label)[0]:
            normal = cands[np.abs(cands @ a) < 1e-9]
            assert any(np.abs(materialize(label, rotation(n, np.pi)) - ref).max()
                       < 1e-9 for n in normal), (label, a)


def test_heights_are_equal_or_far_apart():
    # conjugators compares heights to within 1e-9.  The heights of the
    # cap families, with cos(j pi / n) for every D_n up to D128, are
    # equal within rounding or at least cos(pi/128) - cos(pi/127)
    # = 4.76e-6 apart.
    dihedral = [np.cos(np.pi * np.arange(n + 1) / n) for n in range(1, 129)]
    heights = [_prepped(label).z.ravel() for label in CAP_LABELS]
    gaps = np.diff(np.sort(np.abs(np.concatenate(dihedral + heights))))
    assert gaps[gaps < 1e-6].max() < 1e-14
    assert np.isclose(gaps[gaps > 1e-14].min(),
                      np.cos(np.pi / 128) - np.cos(np.pi / 127))


def _spin_row(solved, period):
    """The spin rule one aligner at a time: the reference for the table."""
    solved = solved % period
    solved = np.sort(np.where(period - solved < 1e-9, 0.0, solved))
    return solved[np.diff(solved, prepend=-1.0) > 1e-9]


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
    angles, row = _spin_table(solved, valid, period)
    assert np.all(np.diff(row) >= 0)
    for i in range(rows):
        want = _spin_row(solved[i][valid[i]], period[i])
        assert np.array_equal(angles[row == i], want), i


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
