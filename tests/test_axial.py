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
from o3clips.labels import parse_label
from o3clips.tables import table_rows

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
    # D128^z: the z axis and 128 in-plane mirror normals, whose 8,256
    # pairwise normals all lie on those lines; one generic point on each
    # axis's circle and one generic direction make 259 distinct lines
    axes = structural_axes(parse_label("D128^z"))[0]
    dirs = _candidate_directions(axes, np.random.default_rng(0))
    assert len(dirs) == 259
    assert (np.abs(dirs @ dirs.T) > 1 - 1e-9).sum() == len(dirs)


def test_axial_mask_recognition_reads_the_label_census():
    # every mask of clips_axial on the O(2)^- column of verify_cells(8, 8):
    # recognize(row, mask) names the class of the masked elements
    col = parse_label("O(2)^-")
    for row in table_rows(("Z", "D", "T", "O", "I"), range(2, 9)):
        elems = reference_group(row)
        dirs = _candidate_directions(structural_axes(row)[0],
                                     pair_rng(row, col, 0))
        for mask in _axial_masks(col, elems, label_census(row)[0], dirs):
            assert recognize(row, mask) == recognize(elems[mask]), row
