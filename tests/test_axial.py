"""The axial membership oracle against its frozen result set.

Pins cover every finite class of Tables 1-2 against each axial or full
infinite class; they were computed and frozen before the closed-form
layer existed.
"""

import pytest

from conftest import load_pins
from o3clips.axial import clips_axial
from o3clips.labels import parse_label

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
