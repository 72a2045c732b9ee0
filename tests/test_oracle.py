"""The brute-force matrix oracle against its frozen result set.

The pinned values in tests/fixtures/clips_oracle_pins.json were
computed and frozen before the closed-form layer existed; any change
that shifts one of them is a regression, not a table disagreement.
"""

import numpy as np
import pytest

from conftest import labels_up_to, load_pins
from o3clips.engine import clips, verify_cells
from o3clips.groups import (
    E3,
    GroupError,
    axis_orbit_reps,
    intersect,
    materialize,
    recognize,
    reference_group,
    structural_axes,
)
from o3clips.labels import (
    ClassLabel,
    format_label,
    is_infinite,
    order_of,
    parse_label,
)
from o3clips.infinite import COL_KINDS, FINITE_KINDS, table_cols, table_rows
from o3clips import axial, groups, oracle
from o3clips.oracle import (
    _column_masks,
    _prepped,
    _spin_table,
    _sweeps,
    clips_oracle,
    clips_oracles,
    conjugators,
)
from o3clips.rotations import EPS_MAT, ORDER_CAP, random_rotation, rotation
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["1", "1+Z2c"])
def test_axisless_class_sweeps_nothing(text):
    # the sweep carries its empty tables through without a warning, as a
    # row, as a column and beside a column whose heights match none of
    # the row's (Z5 against D4+Z2c: its 3 aligners and no spin)
    c, d4 = parse_label(text), parse_label("D4+Z2c")
    for pair in [(c, d4), (d4, c), (c, c)]:
        assert conjugators(*pair).shape == (0, 3, 3)
        assert clips_oracle(*pair).labels() == [text]
    sweeps = _sweeps((d4,), (c, parse_label("Z5"), c))[0]
    assert [len(g) for g in sweeps] == [0, 3, 0]


def test_oracle_rejects_infinite():
    with pytest.raises(Exception):
        clips_oracle(parse_label("SO(2)"), parse_label("Z2"))


def test_no_columns_sweep_nothing_but_pass_the_gate():
    assert clips_oracles((parse_label("D4"),), ())[0] == []
    with pytest.raises(GroupError):
        clips_oracles((parse_label("SO(2)"),), ())


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


@pytest.mark.parametrize("pair", list(PROBE_COUNTS), ids="|".join)
def test_aligner_rows_are_the_frame_products(pair):
    # conjugators reads each aligner as A + C of its spin product; it
    # must be F_b^T F_a, in (b, a) order
    c1, c2 = map(parse_label, pair)
    f1, f2 = _prepped(c1).frames, _prepped(c2).frames
    want = (f1.transpose(0, 2, 1)[:, None] @ f2[None]).reshape(-1, 3, 3)
    got = conjugators(c1, c2)[: len(want)]
    assert np.abs(got - want).max() < 1e-12


def _spy_candidates(monkeypatch) -> list:
    """The candidates of every member_mask call, copied, in call order."""
    seen = []
    member = oracle._Prepped.member_mask

    def spy(self, cands):
        seen.append(cands.copy())
        return member(self, cands)

    monkeypatch.setattr(oracle._Prepped, "member_mask", spy)
    return seen


def _conjugates(c1: ClassLabel, c2: ClassLabel) -> np.ndarray:
    """g x g^T for every conjugator g of the pair's sweep and every x in
    H2, conjugator by conjugator, shape (m |H2|, 3, 3)."""
    g, g2 = conjugators(c1, c2), reference_group(c2)
    want = (g[:, None] @ g2[None]) @ g.transpose(0, 2, 1)[:, None]
    return want.reshape(-1, 3, 3)


@pytest.mark.parametrize("pair", [("I+Z2c", "O^-"), ("D128^z", "D128^z")],
                         ids="|".join)
def test_batched_conjugates_are_g_x_g_transpose(pair, monkeypatch):
    # the candidates that _column_masks of one column hands to
    # member_mask, in one call, are g x g^T for every conjugator g and
    # every x in H2
    c1, c2 = map(parse_label, pair)
    seen = _spy_candidates(monkeypatch)
    _column_masks((c1,), (c2,))
    assert len(seen) == 1
    assert np.abs(seen[0] - _conjugates(c1, c2)).max() < 1e-12
    if pair == ("D128^z", "D128^z"):
        # 35 conjugators of 256 candidates, past the budget of
        # 2^16 // 9 = 7281 candidates, and still one call: a column is
        # never cut
        assert len(seen[0]) == 35 * 256


def _on_line_elements(label: ClassLabel) -> np.ndarray:
    """Per axis orbit representative a, the elements x of the reference
    group that are ±Id or rotate about the line a: det(x) x fixes a."""
    elems, reps = reference_group(label), axis_orbit_reps(label)[0]
    h = np.linalg.det(elems)[:, None, None] * elems
    return np.abs(np.einsum("xij,aj->axi", h, reps) - reps[:, None]).max(axis=2) < 1e-9


# the 63 finite pairs of verify_cells(3, 3)
SWEEP_PAIRS = [(row, col)
               for row in table_rows(("Z", "D", "T", "O", "I"), range(2, 4))
               for col in table_cols(("Z-", "Dz", "Dd", "O-"), range(1, 4))]


# the probe and mixed pairs, and every pair that verify_cells(3, 3) sweeps
# (its D2^d column is its D2^z column, so 56 distinct pairs, one of
# them the probe I+Z2c x O^-)
@pytest.mark.parametrize("pair", list(dict.fromkeys(
    [*PROBE_COUNTS, *MIXED_PAIRS,
     *((str(c1), str(c2)) for c1, c2 in SWEEP_PAIRS)])), ids="|".join)
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
    got = {np.packbits(np.frombuffer(key, bool)).tobytes()
           for key in _column_masks((c1,), (c2,))[0][0]}
    assert got == want


def test_mask_recognition_reads_the_label_census(monkeypatch):
    # recognize(c2, mask) reads the census of c2 at the mask; it must
    # name the class that a census of the masked elements names, both
    # when it reads the census (a miss of its memo) and when it hits
    assert len(SWEEP_PAIRS) == 63
    monkeypatch.setattr(groups, "_RECOGNIZED", {})
    pairs = [tuple(map(parse_label, p)) for p in [*PROBE_COUNTS, *MIXED_PAIRS]]
    for c1, c2 in pairs + SWEEP_PAIRS:
        g2 = reference_group(c2)
        for key in _column_masks((c1,), (c2,))[0][0]:
            mask = np.frombuffer(key, bool)
            want = recognize(g2[mask])
            assert recognize(c2, mask) == want, (c1, c2)
            assert recognize(c2, mask) == want, (c1, c2)


def _spy_census_reads(monkeypatch) -> list:
    """Record the label of every census read that ``recognize`` makes."""
    reads = []
    census = groups.label_census

    def spy(label):
        reads.append(label)
        return census(label)

    monkeypatch.setattr(groups, "label_census", spy)
    return reads


def test_a_mask_and_its_raw_bytes_are_one_memo_entry(monkeypatch):
    # the oracle hands on each mask as the raw bytes it was deduped by,
    # which are the memo key itself
    monkeypatch.setattr(groups, "_RECOGNIZED", {})
    label = parse_label("D6^d")
    elems = reference_group(label)
    proper = np.linalg.det(elems) > 0
    diag = np.abs(elems[:, 2, 2] - 1.0) < 1e-9
    for mask, first in [(proper, "array"), (diag, "bytes")]:
        forms = [mask, mask.tobytes()]
        if first == "bytes":
            forms.reverse()
        got = [recognize(label, form) for form in forms]
        assert got[0] == got[1] == recognize(elems[mask])
    assert list(groups._RECOGNIZED) == [label]
    assert list(groups._RECOGNIZED[label]) == [proper.tobytes(), diag.tobytes()]


def test_recognition_memo_keys_masks_by_content(monkeypatch):
    monkeypatch.setattr(groups, "_RECOGNIZED", {})
    reads = _spy_census_reads(monkeypatch)
    label = parse_label("D4+Z2c")
    mask = np.linalg.det(reference_group(label)) > 0
    assert recognize(label, mask) == parse_label("D4")
    assert len(reads) == 1
    # a copy with equal contents hits the memo
    assert recognize(label, mask.copy()) == parse_label("D4")
    assert len(reads) == 1
    # a mask edited in place is a new key, recognized afresh
    mask[:] = True
    assert recognize(label, mask) == label
    assert len(reads) == 2


def test_a_sweep_reads_the_census_once_per_class_and_mask(monkeypatch):
    # warm every per-class cache, then start the memo empty: the first
    # pass reads the census once per distinct (class, mask), the second
    # never
    list(verify_cells(3, 3))
    monkeypatch.setattr(groups, "_RECOGNIZED", {})
    reads = _spy_census_reads(monkeypatch)
    keys = []
    plain = groups.recognize

    def spy(label, mask):
        # the oracle hands on raw bytes, the axial oracle arrays
        if isinstance(mask, bytes):
            mask = np.frombuffer(mask, bool)
        keys.append((label, np.packbits(mask).tobytes()))
        return plain(label, mask)

    monkeypatch.setattr(oracle, "recognize", spy)
    monkeypatch.setattr(axial, "recognize", spy)
    list(verify_cells(3, 3))
    assert len(reads) == len(set(keys)) < len(keys)
    reads.clear()
    list(verify_cells(3, 3))
    assert reads == []


def test_frames_take_each_representative_to_e3():
    for label in _finite_labels(12):
        frames = _prepped(label).frames
        reps = axis_orbit_reps(label)[0]
        gram = frames @ frames.transpose(0, 2, 1)
        assert np.all(np.abs(gram - np.eye(3)) < 1e-12), label
        assert np.all(np.abs(np.linalg.det(frames) - 1.0) < 1e-12), label
        assert np.all(np.abs(frames @ reps[:, :, None] - E3[:, None]) < 1e-12)


def _heights(label: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """Per axis orbit representative b and per structural axis w, the
    height b.w of w along b, and whether w lies off the line b."""
    x, y, z = np.moveaxis(_prepped(label).frames @ structural_axes(label)[0].T, 1, 0)
    return z, np.hypot(x, y) > 1e-9


def _einsum_conjugators(c1: ClassLabel, c2: ClassLabel) -> np.ndarray:
    """The sweep as it was built from the frames alone: the solved table
    and its mask side by side by ``hstack``, new angles by ``np.diff``,
    and A, B, C by one three-operand ``einsum`` per pair."""
    h1, h2 = _prepped(c1), _prepped(c2)
    k1, k2 = len(h1.orders), len(h2.orders)
    rows = k1 * k2
    a1, a2 = h1.alpha.reshape(k1, -1), h2.alpha.reshape(k2, -1)
    diff = (a1[:, None, :, None] - a2[None, :, None, :]).reshape(rows, -1)
    (z1, off1), (z2, off2) = _heights(c1), _heights(c2)
    z1, z2 = z1[:, None, :, None], z2[None, :, None, :]
    off = off1[:, None, :, None] & off2[None, :, None, :]
    same = (off & (np.abs(z1 - z2) < 1e-9)).reshape(rows, -1)
    opposite = (off & (np.abs(z1 + z2) < 1e-9)).reshape(rows, -1)
    period = 2.0 * np.pi / np.lcm.outer(h1.orders, h2.orders).ravel()
    row, col = np.nonzero(np.hstack([same, opposite]))
    t = np.hstack([diff, diff + np.pi])[row, col] % period[row]
    t = np.where(period[row] - t < 1e-9, 0.0, t)
    order = np.lexsort((t, row))
    t, row = t[order], row[order]
    new = (np.diff(t, prepend=-1.0) > 1e-9) | (np.diff(row, prepend=-1) != 0)
    t = np.concatenate([np.zeros(rows), t[new]])
    row = np.concatenate([np.arange(rows), row[new]])
    abc = np.einsum("bji,sjk,akl->basil", h1.frames, oracle._SPIN, h2.frames)
    coef = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
    return np.einsum("ns,nsil->nil", coef, abc.reshape(rows, 3, 3, 3)[row])


def test_conjugators_match_the_frame_einsum():
    # the per-label F_b^T {P, J, E} times H2's frames, and the sliced
    # dedupe, give the einsum build's rows in its order
    pairs = [tuple(map(parse_label, p)) for p in [*PROBE_COUNTS, *MIXED_PAIRS]]
    for c1, c2 in pairs + SWEEP_PAIRS:
        got, want = conjugators(c1, c2), _einsum_conjugators(c1, c2)
        assert got.shape == want.shape, (c1, c2)
        assert np.abs(got - want).max(initial=0.0) <= 1e-15, (c1, c2)


def _finite_cols(size: int) -> tuple[ClassLabel, ...]:
    """The distinct finite columns of ``verify_cells(size, size)``, in
    table order."""
    cols = table_cols(COL_KINDS, range(1, size + 1))
    return tuple(dict.fromkeys(c for c in cols if not is_infinite(c)))


def _packed(masks) -> list[bytes]:
    """The masks of one ``_column_masks`` column, each raw-bytes key read
    back as a boolean mask, packed and sorted."""
    return sorted(np.packbits(np.frombuffer(key, bool)).tobytes() for key in masks)


def test_one_sweep_of_many_columns_answers_as_each_column_alone():
    # every row of verify_cells(8, 8) against its 23 distinct finite
    # columns at once: the answers and the distinct masks of each column
    # are those of the column swept alone
    cols = _finite_cols(8)
    assert len(cols) == 23
    for row in table_rows(FINITE_KINDS, range(2, 9)):
        want = [clips_oracle(row, c) for c in cols]
        assert clips_oracles((row,), cols)[0] == want
        for col, masks in zip(cols, _column_masks((row,), cols)[0]):
            alone = _column_masks((row,), (col,))[0][0]
            assert _packed(masks) == _packed(alone), (row, col)


# large classes within the cap, the classes of the probe pairs, T+Z2c
# and I
HEAVY = [parse_label(text) for text in (
    "D128^z", "D128", "D128^d", "D64+Z2c", "D60+Z2c", "I+Z2c", "I", "O^-",
    "T+Z2c", "Z7", "Z11", "D12^z", "D11^z")]


def test_one_sweep_of_many_columns_keeps_each_columns_rows():
    # the shared sweep regroups its rows by column: each column gets the
    # rows of conjugators on that pair alone, in the same order
    for row in HEAVY:
        for col, g in zip(HEAVY, _sweeps((row,), HEAVY)[0]):
            assert np.array_equal(g, conjugators(row, col)), (row, col)


# what one batch may hold: the floats of one member_mask call's
# candidates, 9 per candidate, or the entries of the height table of one
# block of rows
MASK_BUDGET = 2 ** 16


@pytest.mark.parametrize("row, cols", [
    ("I+Z2c", ("I+Z2c",)), ("I+Z2c", ("O^-",)), ("D128^z", ("D128^z",)),
    ("I+Z2c", tuple(map(str, _finite_cols(3))))],
    ids=["I+Z2c|I+Z2c", "I+Z2c|O^-", "D128^z|D128^z", "I+Z2c|size-3 columns"])
def test_masks_stay_within_the_batch_budget(row, cols, monkeypatch):
    # the row's candidates over all its columns go to member_mask in
    # runs of whole columns: the calls hold every conjugate of every
    # column, in column order, each call ends where a column ends, and
    # a call stays within the budget unless it is a single column
    c1, labels = parse_label(row), [parse_label(c) for c in cols]
    seen = _spy_candidates(monkeypatch)
    _column_masks((c1,), labels)
    sizes = [len(cands) for cands in seen]
    per_col = [len(conjugators(c1, c2)) * order_of(c2) for c2 in labels]
    assert set(np.cumsum(sizes)) <= set(np.cumsum(per_col))
    assert all(9 * n <= MASK_BUDGET or n in per_col for n in sizes), sizes
    want = np.concatenate([_conjugates(c1, c2) for c2 in labels])
    assert np.abs(np.concatenate(seen) - want).max() < 1e-12
    if (row, cols) == ("I+Z2c", ("I+Z2c",)):
        # 69 conjugators of 120 candidates, past the budget, in one call
        assert sizes == [69 * 120]
    if len(cols) > 1:
        # the 3,920 candidates of the row's 8 columns in one call
        assert sizes == [3920]


def _verify_rows(size: int) -> tuple[ClassLabel, ...]:
    """The rows of ``verify_cells(size, size)``, in table order."""
    return tuple(table_rows(FINITE_KINDS, range(2, size + 1)))


@pytest.mark.parametrize("rows, cols", [
    (_verify_rows(8), _finite_cols(8)), (tuple(HEAVY), tuple(HEAVY))],
    ids=["verify 8x8", "HEAVY x HEAVY"])
def test_a_block_of_rows_sweeps_as_each_row_alone(rows, cols):
    # every row swept in one block, past the budget: each pair gets the
    # rows of conjugators on that pair alone, in the same order, and
    # each row the masks of its sweep alone; the answers of the budgeted
    # blocks are those of each pair alone
    for row, sweeps in zip(rows, _sweeps(rows, cols), strict=True):
        for col, g in zip(cols, sweeps, strict=True):
            assert np.array_equal(g, conjugators(row, col)), (row, col)
    for row, masks in zip(rows, _column_masks(rows, cols), strict=True):
        alone = _column_masks((row,), cols)[0]
        assert [_packed(m) for m in masks] == [_packed(m) for m in alone], row
    want = [[clips_oracle(row, col) for col in cols] for row in rows]
    assert clips_oracles(rows, cols) == want


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a``."""
    while a.base is not None:
        a = a.base
    return a


def test_each_row_of_a_block_owns_its_sweep():
    # ``_column_masks`` drops each row's sweep once it is masked, which
    # frees it only when no other row's sweep is a view of the same array
    swept = _sweeps(_verify_rows(3), _finite_cols(3))
    owners = [{id(_owner(g)) for g in row} for row in swept]
    assert all(len(o) == 1 for o in owners)
    assert len(set().union(*owners)) == len(swept)


def _spy_blocks(monkeypatch) -> list:
    """The rows of every ``_sweeps`` call, in call order."""
    blocks = []
    sweeps = oracle._sweeps

    def spy(rows, cols):
        blocks.append(tuple(rows))
        return sweeps(rows, cols)

    monkeypatch.setattr(oracle, "_sweeps", spy)
    return blocks


@pytest.mark.parametrize("bad", ["SO(2)", "D129"])
@pytest.mark.parametrize("at", [0, 8, 17])
def test_a_refused_row_stops_the_sweep_before_any_block(bad, at, monkeypatch):
    # the 17 rows of verify_cells(8, 8) make four blocks; an infinite or
    # over-cap class at the head, in the middle or at the end of the rows
    # is refused before the first of them is swept
    rows = list(_verify_rows(8))
    rows.insert(at, parse_label(bad))
    blocks = _spy_blocks(monkeypatch)
    with pytest.raises(GroupError):
        clips_oracles(rows, _finite_cols(8))
    assert blocks == []


def _table_size(rows, cols) -> int:
    """The entries of the height table of one block of ``_sweeps``."""
    return (sum(len(_prepped(c).z) for c in rows)
            * sum(len(_prepped(c).signed_z) for c in cols))


@pytest.mark.parametrize("size, blocks", [(3, [7]), (8, [12, 3, 1, 1])])
def test_blocks_stay_within_the_batch_budget(size, blocks, monkeypatch):
    # clips_oracles sweeps the rows in order, in blocks that each take
    # rows while the height table stays within the budget, unless the
    # block is one row; a block of several rows also holds at most 2^15
    # aligners, as ``_spin_table``'s rounding bound reads
    rows, cols = _verify_rows(size), _finite_cols(size)
    swept = _spy_blocks(monkeypatch)
    clips_oracles(rows, cols)
    assert [len(block) for block in swept] == blocks
    assert [row for block in swept for row in block] == list(rows)
    aligners = sum(len(_prepped(c).orders) for c in cols)
    for block, after in zip(swept, [*swept[1:], None]):
        table = _table_size(block, cols)
        assert table <= MASK_BUDGET or len(block) == 1, block
        if len(block) > 1:
            assert sum(len(_prepped(c).orders) for c in block) * aligners <= 2 ** 15
        if after:
            # the block closed because its next row would not fit
            assert _table_size((*block, after[0]), cols) > MASK_BUDGET


def test_every_row_is_a_block_of_its_own_at_size_64():
    # against the 191 distinct finite columns of verify_cells(64, 64)
    # each row's table alone fills the budget, so the rows are swept one
    # at a time
    rows, cols = _verify_rows(64), _finite_cols(64)
    assert len(cols) == 191
    assert oracle._blocks(rows, cols) == [[row] for row in rows]


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

    def spy(t, row, period):
        out = spin_table(t, row, period)
        table.append((period, *out))
        return out

    monkeypatch.setattr(oracle, "_spin_table", spy)
    pairs = [tuple(map(parse_label, p)) for p in [*PROBE_COUNTS, *MIXED_PAIRS]]
    for c1, c2 in pairs + SWEEP_PAIRS:
        table.clear()
        g = conjugators(c1, c2)
        reps, line = axis_orbit_reps(c1)[0], _on_line_elements(c2)
        b, line = np.repeat(reps, len(line), axis=0), np.tile(line, (len(reps), 1))
        # one spin table, or none when no angle is solved and every row
        # is an aligner
        assert len(table) == 1 or (not table and len(g) == len(b)), (c1, c2)
        period, angles, row = table[0] if table else (None, np.empty(0), np.empty(0))
        g2, member = reference_group(c2), _prepped(c1).member_mask
        for i, g0 in enumerate(g[: len(b)]):
            t = _generic_angle(angles[row == i], None if period is None else period[i])
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
    heights = [_heights(label)[0].ravel() for label in CAP_LABELS]
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
    # the valid entries flat, in no particular row order, as the sweep
    # passes them
    i, j = np.nonzero(valid)
    shuffle = rng.permutation(len(i))
    angles, row = _spin_table(solved[i, j][shuffle], i[shuffle], period)
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


def test_membership_keys_are_far_apart_on_every_class():
    # member_mask takes the element of nearest key, which is a member's
    # own element when the keys of distinct elements lie more than
    # 2 EPS_MAT apart (|w|_1 = 1); every class within the cap clears
    # that by far, the closest being D127 at about 3.6e-7, and comes
    # from the gate already sorted by key
    assert np.all(groups._KEY > 0) and abs(groups._KEY.sum() - 1.0) < 1e-15
    gaps = {}
    for label in labels_up_to(256):
        keys = reference_group(label).reshape(-1, 9) @ groups._KEY
        gaps[format_label(label)] = np.diff(keys).min(initial=np.inf)
    worst = min(gaps, key=gaps.get)
    assert gaps[worst] >= 1e-7, (worst, gaps[worst])


def test_close_membership_keys_are_refused(monkeypatch):
    # weights proportional to 1, ..., 9 give two elements of T one key;
    # the gate refuses such a class rather than sort and mask it by a
    # shared key (the uncached body, as the cached class stays built)
    monkeypatch.setattr(groups, "_KEY", np.arange(1.0, 10.0) / 45.0)
    with pytest.raises(GroupError, match="membership keys"):
        groups.reference_group.__wrapped__(parse_label("T"))


def _entrywise_member_mask(prep, cands: np.ndarray) -> np.ndarray:
    """``member_mask`` without its key test: every candidate against the
    element of nearest key, entry by entry."""
    flat = cands.reshape(-1, 9)
    near = prep.near.take(prep.mids.searchsorted(flat @ groups._KEY), axis=1)
    near -= flat.T
    return (np.abs(near, out=near) < EPS_MAT).all(axis=0).reshape(cands.shape[:-2])


def test_the_key_test_drops_no_member_of_a_sweep(monkeypatch):
    # every candidate that the verify_cells(8, 8) sweep masks gets the
    # answer of the entrywise test run on all of them
    calls, members, total = [], 0, 0
    member = oracle._Prepped.member_mask

    def spy(self, cands):
        nonlocal members, total
        got = member(self, cands)
        calls.append(np.array_equal(got, _entrywise_member_mask(self, cands)))
        members, total = members + int(got.sum()), total + got.size
        return got

    monkeypatch.setattr(oracle._Prepped, "member_mask", spy)
    clips_oracles(_verify_rows(8), _finite_cols(8))
    assert calls and all(calls)
    assert 0 < members < total


@pytest.mark.parametrize("text", ["I+Z2c", "O^-", "D128^d", "D6^d"])
def test_member_mask_planted_near_the_keys(text):
    # moving every entry of an element by 0.9 EPS_MAT keeps it a member,
    # whatever the signs; one entry off by 2 EPS_MAT makes a non-member
    # even where its key lies within EPS_MAT of the element's, so the key
    # test prunes and the entrywise test decides
    prep = _prepped(parse_label(text))
    elems = prep.flat
    rng = np.random.default_rng(11)
    for signs in (np.ones(9), -np.ones(9), rng.choice([-1.0, 1.0], size=9)):
        assert prep.member_mask((elems + 0.9 * EPS_MAT * signs).reshape(-1, 3, 3)).all()
    for j in range(1, 9):
        off = elems.copy()
        off[:, j] += 2 * EPS_MAT
        assert np.abs(off @ groups._KEY - prep.keys).max() < EPS_MAT, j
        assert not prep.member_mask(off.reshape(-1, 3, 3)).any(), j


def _dense_member_mask(label: ClassLabel, cands: np.ndarray) -> np.ndarray:
    """Each candidate against its Frobenius-nearest element of the
    class, the argmax of one product with all elements, entry by
    entry."""
    elems, flat = reference_group(label).reshape(-1, 9), cands.reshape(-1, 9)
    near = elems[(flat @ elems.T).argmax(axis=1)]
    return (np.abs(near - flat) < EPS_MAT).all(axis=1)


def test_member_mask_matches_the_dense_nearest_element():
    # the sweep candidates of the probe pairs and of the 56 distinct
    # pairs of verify_cells(3, 3)
    pairs = dict.fromkeys([*(tuple(map(parse_label, p)) for p in PROBE_COUNTS),
                           *SWEEP_PAIRS])
    assert len(pairs) == 59
    for c1, c2 in pairs:
        cands = _conjugates(c1, c2)
        got = _prepped(c1).member_mask(cands)
        assert np.array_equal(got, _dense_member_mask(c1, cands)), (c1, c2)


# every class of finite_labels(128) within the order cap, with the
# one-element classes, the polyhedral classes and their lifts named again
LOOKUP_LABELS = list(dict.fromkeys([
    *(c for c in _finite_labels(128) if order_of(c) <= ORDER_CAP),
    *(parse_label(text) for text in ("1", "1+Z2c", "T", "O", "I", "T+Z2c",
                                     "O+Z2c", "I+Z2c"))]))


def test_bucket_lookup_is_the_midpoint_search():
    # nearest reads searchsorted's index off the bucket table: at every
    # element key and midpoint and one float either side of each, beyond
    # both ends and at seeded uniform keys, on every class
    rng = np.random.default_rng(49)
    uniform = rng.uniform(-1.5, 1.5, size=10_000)
    for label in LOOKUP_LABELS:
        prep = _prepped(label)
        assert prep.first.nbytes <= 33 * len(prep.keys), label
        marks = np.concatenate([prep.keys, prep.mids])
        keys = np.concatenate([
            marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
            prep.keys[0] - [1e-3, 0.5, 2.0], prep.keys[-1] + [1e-3, 0.5, 2.0],
            uniform])
        got = prep.nearest(keys)
        assert np.array_equal(got, prep.mids.searchsorted(keys)), label


def _dense_height_matches(z: np.ndarray, signed_z: np.ndarray) -> set:
    """The (i, j) of the two boolean tables that matched heights before
    the sort and search."""
    i, j = np.nonzero((z[:, None] > signed_z - 1e-9)
                      & (z[:, None] < signed_z + 1e-9))
    return set(zip(i.tolist(), j.tolist()))


def _height_blocks():
    """The (z, signed_z) of every block of ``_sweeps`` that
    ``verify_cells(8, 8)`` and the square of ``finite_labels(16)``
    sweep."""
    square = tuple(_finite_labels(16))
    for rows, cols in [(_verify_rows(8), _finite_cols(8)), (square, square)]:
        signed_z = np.concatenate([_prepped(c).signed_z for c in cols])
        for block in oracle._blocks(rows, cols):
            yield np.concatenate([_prepped(c).z for c in block]), signed_z


def test_height_matches_are_the_dense_tables():
    blocks = 0
    for z, signed_z in _height_blocks():
        i, j = oracle._height_matches(z, signed_z)
        assert np.all(np.diff(i) >= 0)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(i)
        assert pairs == _dense_height_matches(z, signed_z)
        blocks += 1
    # 4 blocks at size 8, 59 on the square
    assert blocks == 63


@pytest.mark.parametrize("z, signed_z", [
    # NaN on either side, or both, matches nothing
    ([np.nan, 0.5, np.nan], [0.5, np.nan, -0.5, 0.5 + 5e-10]),
    ([0.0, np.nan], [np.nan, np.nan, 0.0, 1e-12]),
    ([np.nan], [0.25, np.nan]),
    # no match, one equal and one just outside the window, and empties
    ([0.1, 0.2], [0.3, -0.1, 0.1 + 2e-9]),
    ([], [0.5, np.nan]),
    ([0.5, np.nan], []),
    ([], []),
], ids=["nan-both", "nan-rows", "nan-row-only", "no-match", "no-rows",
        "no-columns", "empty"])
def test_height_matches_planted(z, signed_z):
    z, signed_z = np.array(z, dtype=float), np.array(signed_z, dtype=float)
    i, j = oracle._height_matches(z, signed_z)
    assert i.dtype.kind == j.dtype.kind == "i"
    assert set(zip(i.tolist(), j.tolist())) == _dense_height_matches(z, signed_z)
