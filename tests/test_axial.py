"""The axial membership oracle against its frozen result set.

Pins cover every finite class of Tables 1-2 against each axial or full
infinite class; they were computed and frozen before the closed-form
layer existed.
"""

import numpy as np
import pytest

from conftest import load_pins
from o3clips.axial import (
    _axial_masks,
    _candidate_directions,
    clips_axial,
    pair_rng,
)
from o3clips.groups import (
    label_census,
    recognize,
    reference_group,
    structural_axes,
)
from o3clips.labels import ClassSet, format_label, parse_label
from o3clips.rotations import canonical_axis
from o3clips.tables import table_rows
from test_acceptance import _finite_labels
from test_oracle import CAP_LABELS

PINS = load_pins("clips_axial_pins")


@pytest.mark.parametrize("key", sorted(PINS))
def test_frozen_pin(key):
    fin, inf = key.split("|")
    got = clips_axial(parse_label(fin), parse_label(inf))
    assert got.labels() == PINS[key]


def test_rejects_wrong_arguments():
    with pytest.raises(ValueError):
        clips_axial(parse_label("SO(2)"), parse_label("O(2)"))
    with pytest.raises(ValueError):
        clips_axial(parse_label("Z4"), parse_label("D4"))


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
    # lie on the z axis and the 128 in-plane lines; with one generic
    # point on each representative's circle and one generic direction
    # they make 133 distinct lines
    dirs = _candidate_directions(parse_label("D128^z"), np.random.default_rng(0))
    assert len(dirs) == 133
    assert (np.abs(dirs @ dirs.T) > 1 - 1e-9).sum() == len(dirs)


def test_axial_mask_recognition_reads_the_label_census():
    # every mask of clips_axial on the O(2)^- column of verify_cells(8, 8):
    # recognize(row, mask) names the class of the masked elements
    col = parse_label("O(2)^-")
    for row in table_rows(("Z", "D", "T", "O", "I"), range(2, 9)):
        elems = reference_group(row)
        dirs = _candidate_directions(row, pair_rng(row, col, 0))
        masks = _axial_masks(col, elems, label_census(row)[0], dirs)
        assert masks.shape == (len(dirs), len(elems))
        for mask in masks:
            assert recognize(row, mask) == recognize(elems[mask]), row


AXIAL = [parse_label(text) for text in
         ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c", "O(2)^-")]


def _all_directions(label, rng):
    """Every axis, the normal of every pair of axes, one generic point
    of every axis's circle and one generic direction, with the same two
    draws of ``rng``: the candidate set before the orbit reduction."""
    axes = structural_axes(label)[0]
    i, j = np.triu_indices(len(axes), 1)
    normals = np.cross(axes[i], axes[j])
    normals = normals[np.linalg.norm(normals, axis=1) > 1e-9]
    circle = np.cross(axes, rng.normal(size=3))
    return canonical_axis(
        np.concatenate([axes, normals, circle, rng.normal(size=(1, 3))]))


@pytest.mark.parametrize("seed", range(4))
def test_orbit_representatives_give_the_classes_of_every_direction(seed):
    for fin in _finite_labels(12):
        elems, proper = reference_group(fin), label_census(fin)[0]
        for col in AXIAL:
            dirs = _all_directions(fin, pair_rng(fin, col, seed))
            masks = np.unique(_axial_masks(col, elems, proper, dirs), axis=0)
            want = ClassSet(recognize(fin, mask) for mask in masks)
            assert clips_axial(fin, col, seed) == want, (fin, col)


def test_axial_masks_stay_within_the_float_budget():
    # the broadcast in _axial_masks holds |G| x directions x 3 floats
    sizes = {format_label(label): len(reference_group(label)) * 3
             * len(_candidate_directions(label, np.random.default_rng(0)))
             for label in CAP_LABELS}
    assert max(sizes.values()) <= 2.5e5, sizes
