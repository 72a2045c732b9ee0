"""The axial membership oracle against its frozen result set.

Pins cover every finite class of Tables 1-2 against each axial or full
infinite class; they were computed and frozen before the closed-form
layer existed.
"""

from functools import lru_cache

import numpy as np
import pytest

from conftest import load_pins
from o3clips.axial import (
    _axial_masks,
    _candidate_directions,
    _direction_rows,
    clips_axial,
)
from o3clips.groups import (
    axis_orbit_reps,
    label_census,
    recognize,
    reference_group,
    structural_axes,
)
from o3clips.engine import clips
from o3clips.labels import ClassSet, format_label, parse_label
from o3clips.rotations import IDENTITY, canonical_axis, unit
from o3clips.infinite import table_rows
from test_acceptance import _finite_labels
from test_oracle import CAP_LABELS

PINS = load_pins("clips_axial_pins")


@pytest.mark.parametrize("key", sorted(PINS))
def test_frozen_pin(key):
    fin, inf = key.split("|")
    got = clips_axial(parse_label(fin), parse_label(inf))
    assert got.labels() == PINS[key]


AXIAL = [parse_label(s)
         for s in ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c", "O(2)^-")]


def test_symbolic_route_matches_clips_axial_on_criterion_5_pool():
    # every class of criterion 5's pool against the five axial classes;
    # the pairs that differ are exactly the printed cells of the
    # O(2)+Z2c row: D_2k^z, D_4k^d and O^-
    pool = _finite_labels(12)
    assert len(pool) == 75
    o2_z2c = parse_label("O(2)+Z2c")
    printed = {(fin, o2_z2c) for fin in pool
               if (fin.kind == "Dz" and fin.n % 2 == 0)
               or (fin.kind == "Dd" and fin.n % 4 == 0) or fin.kind == "O-"}
    assert len(printed) == 10
    differ = {(fin, inf) for fin in pool for inf in AXIAL
              if clips(fin, inf) != clips_axial(fin, inf)}
    assert differ == printed


def test_rejects_wrong_arguments():
    with pytest.raises(ValueError):
        clips_axial(parse_label("SO(2)"), parse_label("O(2)"))
    with pytest.raises(ValueError):
        clips_axial(parse_label("Z4"), parse_label("D4"))


def test_refuses_a_finite_second_class_before_building_rows():
    # the kind of c_inf is read first, so no direction rows of c_fin
    # are built or cached for a call that is refused
    _direction_rows.cache_clear()
    with pytest.raises(ValueError, match="not an axial class: Z4"):
        clips_axial(parse_label("D128"), parse_label("Z4"))
    assert _direction_rows.cache_info().currsize == 0


def test_rejects_a_class_above_the_order_cap():
    with pytest.raises(ValueError, match="D300 has order 600, above the "
                                         "order cap 256"):
        clips_axial(parse_label("D300"), parse_label("O(2)^-"))


def test_full_group_sides():
    # O(3) absorbs; SO(3) keeps the rotation part.
    assert clips_axial(parse_label("D4^z"),
                       parse_label("O(3)")).labels() == ["D4^z"]
    assert clips_axial(parse_label("D4^z"),
                       parse_label("SO(3)")).labels() == ["Z4"]
    assert clips_axial(parse_label("O"),
                       parse_label("SO(3)")).labels() == ["O"]


def test_candidate_directions_merge_repeated_lines():
    # D128^z: the z axis and 128 in-plane mirror normals in three
    # orbits.  The normals of the pairs that start at a representative
    # lie on the z axis and the 128 in-plane lines, so with the
    # representatives they make 129 distinct lines; one probe normal to
    # each representative follows them
    label = parse_label("D128^z")
    dirs, reps = _candidate_directions(label), axis_orbit_reps(label)[0]
    lines, probes = dirs[:-len(reps)], dirs[-len(reps):]
    assert len(lines) == 129
    assert (np.abs(lines @ lines.T) > 1 - 1e-9).sum() == len(lines)
    assert np.abs(np.einsum("ij,ij->i", probes, reps)).max() < 1e-15


def test_axial_mask_recognition_reads_the_label_census():
    # every mask of clips_axial on the O(2)^- column of verify_cells(8, 8):
    # recognize(row, mask) names the class of the masked elements
    col = parse_label("O(2)^-")
    for row in table_rows(("Z", "D", "T", "O", "I"), range(2, 9)):
        elems = reference_group(row)
        masks = _axial_masks(col, label_census(row)[0], *_direction_rows(row))
        assert masks.shape == (len(_candidate_directions(row)) + 1, len(elems))
        for mask in masks:
            assert recognize(row, mask) == recognize(elems[mask]), row


def test_dedupe_keeps_the_class_of_every_mask():
    # clips_axial keeps no dedupe of its own: it hands every row of
    # _axial_masks to recognize, which memoizes per class and mask; each
    # row's elements, recognized one by one with no memo, give the same
    # classes
    for fin in _finite_labels(12):
        rows, elems = (label_census(fin)[0], *_direction_rows(fin)), reference_group(fin)
        for inf in AXIAL + [parse_label("SO(3)"), parse_label("O(3)")]:
            every = ClassSet({recognize(elems[m]) for m in _axial_masks(inf, *rows)})
            assert clips_axial(fin, inf) == every, (fin, inf)


def _fix_anti(elems, dirs):
    """Which elements fix and which reverse each direction, one row per
    direction."""
    img = np.einsum("gij,kj->kgi", elems, dirs)
    return (np.abs(img - dirs[:, None]).max(axis=2) < 1e-9,
            np.abs(img + dirs[:, None]).max(axis=2) < 1e-9)


@lru_cache(maxsize=None)
def _pair_line_rows(label):
    """``_fix_anti`` at every axis and the normal of every pair of
    axes, one copy of each line that several pairs share."""
    axes = structural_axes(label)[0]
    i, j = np.triu_indices(len(axes), 1)
    lines = canonical_axis(np.concatenate([axes, np.cross(axes[i], axes[j])]))
    _, first = np.unique(np.round(lines, 6), axis=0, return_index=True)
    return _fix_anti(reference_group(label), lines[np.sort(first)])


@pytest.mark.parametrize("seed", range(11))
def test_orbit_representatives_give_the_classes_of_every_direction(seed):
    # the candidate set before the orbit reduction, with random points
    # for the generic ones: every axis, every pair normal, a random
    # point of every axis's circle and a random direction
    rng = np.random.default_rng(seed)
    for fin in CAP_LABELS:
        elems, proper = reference_group(fin), label_census(fin)[0]
        axes = structural_axes(fin)[0]
        drawn = np.concatenate([unit(np.cross(axes, rng.normal(size=3))),
                                unit(rng.normal(size=(1, 3)))])
        fix, anti = map(np.vstack, zip(_pair_line_rows(fin), _fix_anti(elems, drawn)))
        for col in AXIAL:
            masks = _axial_masks(col, proper, fix, anti)
            want = ClassSet(recognize(fin, mask) for mask in masks)
            assert clips_axial(fin, col) == want, (fin, col)


def test_axial_masks_follow_the_definitions_of_the_axial_classes():
    # each class about u from its definition: SO(2) the rotations about
    # u; O(2) those and the half turns about lines normal to u; +Z2c
    # adds -x for each x; O(2)^- the rotations about u and the
    # reflections in planes through u.  _axial_masks reads no involution
    # flag: a proper x with x u = -u is a half turn, and an improper x
    # with x u = u is a reflection
    for fin in _finite_labels(12):
        elems, dirs = reference_group(fin), _candidate_directions(fin)
        dirs = dirs[:len(dirs) - len(axis_orbit_reps(fin)[0])]  # the lines
        proper = np.linalg.det(elems) > 0
        square = np.abs(elems @ elems - IDENTITY).max(axis=(1, 2)) < 1e-9
        fix, anti = _fix_anti(elems, dirs)
        so2 = proper & fix
        o2 = so2 | (proper & square & anti)
        want = {"SO(2)": so2, "O(2)": o2,
                "SO(2)+Z2c": so2 | (~proper & anti),
                "O(2)+Z2c": o2 | (~proper & (anti | (square & fix))),
                "O(2)^-": so2 | (~proper & square & fix)}
        got_fix, got_anti = (rows[:len(dirs)] for rows in _direction_rows(fin))
        for col in AXIAL:
            got = _axial_masks(col, proper, got_fix, got_anti)
            assert np.array_equal(got, want[format_label(col)]), (fin, col)


def test_stated_rows_hold_at_random_points():
    # the circle row of a representative a is the row at three random
    # points normal to a, and the last row is that of a random direction.
    # orthogonal(e3) is e2, a 2-fold axis of D_n for even n, so the row
    # at the probe alone would also hold the half turn about e2
    rng = np.random.default_rng(0)
    for label in CAP_LABELS:
        elems, reps = reference_group(label), axis_orbit_reps(label)[0]
        fix, anti = _direction_rows(label)
        circle = len(fix) - 1 - len(reps)
        for r, a in enumerate(reps):
            u = unit(np.cross(a, rng.normal(size=(3, 3))))
            got_fix, got_anti = _fix_anti(elems, u)
            assert (got_fix == fix[circle + r]).all(), (label, a)
            assert (got_anti == anti[circle + r]).all(), (label, a)
        got_fix, got_anti = _fix_anti(elems, unit(rng.normal(size=(1, 3))))
        assert (got_fix == fix[-1]).all() and (got_anti == anti[-1]).all(), label


def test_axial_masks_stay_within_the_float_budget():
    # the broadcast in _direction_rows holds |G| x directions x 3 floats
    sizes = {format_label(label): len(reference_group(label)) * 3
             * len(_candidate_directions(label))
             for label in CAP_LABELS}
    assert max(sizes.values()) <= 2.5e5, sizes
