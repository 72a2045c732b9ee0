import pytest

from o3clips.engine import clips
from o3clips.infinite import clips_reduce, normalize
from o3clips.labels import (
    ClassSet,
    canonicalize,
    is_infinite,
    parse_label,
    typeclass,
)
from test_properties import INFINITE, finite_labels


def test_typeclass():
    expect = {
        "1": "I", "Z5": "I", "D5": "I", "T": "I", "O": "I", "I": "I",
        "SO(2)": "I", "O(2)": "I", "SO(3)": "I",
        "1+Z2c": "II", "Z5+Z2c": "II", "T+Z2c": "II",
        "SO(2)+Z2c": "II", "O(2)+Z2c": "II", "O(3)": "II",
        "Z4^-": "III", "D5^z": "III", "D8^d": "III", "O^-": "III",
        "O(2)^-": "III",
    }
    for text, kind in expect.items():
        assert typeclass(parse_label(text)) == kind, text


def test_is_infinite():
    for text in ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c", "O(2)^-",
                 "SO(3)", "O(3)"):
        assert is_infinite(parse_label(text))
    for text in ("1", "Z4", "Z12", "D4", "D12", "T", "O", "I", "Z16^-",
                 "D4^z", "D8^z", "D16^d", "O^-", "I+Z2c"):
        assert not is_infinite(parse_label(text))


def test_reduce_domain():
    # every pair has a closed form, the finite type III x III pairs too
    pool = dict.fromkeys([canonicalize(x) for x in finite_labels(12)]
                         + INFINITE)
    for a in pool:
        for b in pool:
            assert isinstance(clips_reduce(a, b), ClassSet), (a, b)
    formerly_deferred = {
        ("Z4^-", "D4^z"): ["1", "Z2"],
        ("D4^d", "O^-"): ["1", "Z2", "Z2^-", "Z4^-", "D4^d"],
        ("Z2^-", "Z6^-"): ["1", "Z2^-"],
    }
    for (a, b), cell in formerly_deferred.items():
        assert clips_reduce(parse_label(a), parse_label(b)).labels() == cell


def test_normalize_is_idempotent_and_lands_in_three_type_pairs():
    pool = dict.fromkeys([canonicalize(x) for x in finite_labels(12)]
                         + INFINITE)
    landed = set()
    for a in pool:
        for b in pool:
            na, nb, _ = normalize(a, b)
            assert normalize(na, nb) == (na, nb, False), (a, b)
            landed.add(frozenset((typeclass(na), typeclass(nb))))
    assert landed == {frozenset({"I"}), frozenset({"II", "III"}),
                      frozenset({"III"})}


def test_normalize_strips_and_lifts():
    def norm(a, b):
        return normalize(parse_label(a), parse_label(b))

    assert norm("Z4+Z2c", "D6+Z2c") == (parse_label("Z4"),
                                        parse_label("D6"), True)
    assert norm("D6^d", "T+Z2c") == (parse_label("D6^d"),
                                     parse_label("T+Z2c"), False)
    assert norm("O^-", "Z4") == (parse_label("T"), parse_label("Z4"), False)
    assert norm("Z4", "D4+Z2c") == (parse_label("Z4"), parse_label("D4"),
                                    False)


def test_reduce_is_symmetric_where_defined():
    pairs = [("Z4+Z2c", "D4^z"), ("Z6^-", "SO(2)"), ("D8^d", "O(2)"),
             ("O^-", "SO(2)+Z2c"), ("O(2)^-", "O(2)^-")]
    for a, b in pairs:
        lhs = clips_reduce(parse_label(a), parse_label(b))
        rhs = clips_reduce(parse_label(b), parse_label(a))
        assert lhs == rhs


def test_full_group_absorbers():
    # intersecting with O(3) changes nothing; with SO(3) keeps the
    # rotation part
    assert clips("D4^z", "O(3)").labels() == ["D4^z"]
    assert clips("T+Z2c", "O(3)").labels() == ["T+Z2c"]
    assert clips("D4^z", "SO(3)").labels() == ["Z4"]
    assert clips("T+Z2c", "SO(3)").labels() == ["T"]
    assert clips("O(2)^-", "SO(3)").labels() == ["SO(2)"]
    assert clips("O(3)", "O(3)").labels() == ["O(3)"]
    assert clips("SO(3)", "SO(3)").labels() == ["SO(3)"]


def test_infinite_with_infinite():
    assert clips("SO(2)", "SO(2)").labels() == ["1", "SO(2)"]
    assert clips("SO(2)", "O(2)").labels() == ["1", "Z2", "SO(2)"]
    assert clips("O(2)", "O(2)").labels() == ["Z2", "D2", "O(2)"]
    assert clips("O(2)^-", "O(2)^-").labels() == ["Z2^-", "O(2)^-"]
    assert clips("SO(2)+Z2c", "O(2)^-").labels() == ["1", "Z2^-",
                                                     "SO(2)"]


def test_finite_with_axial():
    assert clips("Z6^-", "SO(2)").labels() == ["1", "Z3"]
    assert clips("D8^d", "O(2)").labels() == ["1", "Z2", "D2", "D4"]
    assert clips("O^-", "SO(2)+Z2c").labels() == ["1", "Z2^-", "Z3",
                                                  "Z4^-"]


# Cells of the two infinite rows, transcribed from the published grid
# (column families Z_2n^-, D_n^z, D_2n^d, O^-, O(2)^- at n = 1..8).
# D2^d names the same class as D2^z, so that column entry evaluates
# through the D^z cell.
INFINITE_ROW_CELLS = [
    ("SO(2)+Z2c", "Z2^-", ["1", "Z2^-"]),
    ("SO(2)+Z2c", "Z4^-", ["1", "Z4^-"]),
    ("SO(2)+Z2c", "Z6^-", ["1", "Z6^-"]),
    ("SO(2)+Z2c", "Z8^-", ["1", "Z8^-"]),
    ("SO(2)+Z2c", "Z10^-", ["1", "Z10^-"]),
    ("SO(2)+Z2c", "Z12^-", ["1", "Z12^-"]),
    ("SO(2)+Z2c", "Z14^-", ["1", "Z14^-"]),
    ("SO(2)+Z2c", "Z16^-", ["1", "Z16^-"]),
    ("SO(2)+Z2c", "D2^z", ["1", "Z2", "Z2^-"]),
    ("SO(2)+Z2c", "D3^z", ["1", "Z2^-", "Z3"]),
    ("SO(2)+Z2c", "D4^z", ["1", "Z2^-", "Z4"]),
    ("SO(2)+Z2c", "D5^z", ["1", "Z2^-", "Z5"]),
    ("SO(2)+Z2c", "D6^z", ["1", "Z2^-", "Z6"]),
    ("SO(2)+Z2c", "D7^z", ["1", "Z2^-", "Z7"]),
    ("SO(2)+Z2c", "D8^z", ["1", "Z2^-", "Z8"]),
    ("SO(2)+Z2c", "D2^d", ["1", "Z2", "Z2^-"]),
    ("SO(2)+Z2c", "D4^d", ["1", "Z2", "Z2^-", "Z4^-"]),
    ("SO(2)+Z2c", "D6^d", ["1", "Z2", "Z2^-", "Z6^-"]),
    ("SO(2)+Z2c", "D8^d", ["1", "Z2", "Z2^-", "Z8^-"]),
    ("SO(2)+Z2c", "D10^d", ["1", "Z2", "Z2^-", "Z10^-"]),
    ("SO(2)+Z2c", "D12^d", ["1", "Z2", "Z2^-", "Z12^-"]),
    ("SO(2)+Z2c", "D14^d", ["1", "Z2", "Z2^-", "Z14^-"]),
    ("SO(2)+Z2c", "D16^d", ["1", "Z2", "Z2^-", "Z16^-"]),
    ("SO(2)+Z2c", "O^-", ["1", "Z2^-", "Z3", "Z4^-"]),
    ("SO(2)+Z2c", "O(2)^-", ["1", "Z2^-", "SO(2)"]),
    ("O(2)+Z2c", "Z2^-", ["1", "Z2^-"]),
    ("O(2)+Z2c", "Z4^-", ["1", "Z2", "Z4^-"]),
    ("O(2)+Z2c", "Z6^-", ["1", "Z2^-", "Z6^-"]),
    ("O(2)+Z2c", "Z8^-", ["1", "Z2", "Z8^-"]),
    ("O(2)+Z2c", "Z10^-", ["1", "Z2^-", "Z10^-"]),
    ("O(2)+Z2c", "Z12^-", ["1", "Z2", "Z12^-"]),
    ("O(2)+Z2c", "Z14^-", ["1", "Z2^-", "Z14^-"]),
    ("O(2)+Z2c", "Z16^-", ["1", "Z2", "Z16^-"]),
    ("O(2)+Z2c", "D2^z", ["1", "D2^z"]),
    ("O(2)+Z2c", "D3^z", ["1", "Z2^-", "D3^z"]),
    ("O(2)+Z2c", "D4^z", ["1", "D2^z", "D4^z"]),
    ("O(2)+Z2c", "D5^z", ["1", "Z2^-", "D5^z"]),
    ("O(2)+Z2c", "D6^z", ["1", "D2^z", "D6^z"]),
    ("O(2)+Z2c", "D7^z", ["1", "Z2^-", "D7^z"]),
    ("O(2)+Z2c", "D8^z", ["1", "D2^z", "D8^z"]),
    ("O(2)+Z2c", "D2^d", ["1", "D2^z"]),
    ("O(2)+Z2c", "D4^d", ["1", "Z2", "D2", "D2^z", "D4^d"]),
    ("O(2)+Z2c", "D6^d", ["1", "Z2", "Z2^-", "D2^z", "D6^d"]),
    ("O(2)+Z2c", "D8^d", ["1", "Z2", "D2", "D2^z", "D8^d"]),
    ("O(2)+Z2c", "D10^d", ["1", "Z2", "Z2^-", "D2^z", "D10^d"]),
    ("O(2)+Z2c", "D12^d", ["1", "Z2", "D2", "D2^z", "D12^d"]),
    ("O(2)+Z2c", "D14^d", ["1", "Z2", "Z2^-", "D2^z", "D14^d"]),
    ("O(2)+Z2c", "D16^d", ["1", "Z2", "D2", "D2^z", "D16^d"]),
    ("O(2)+Z2c", "O^-", ["1", "Z2^-", "D3^z", "D4^d"]),
    ("O(2)+Z2c", "O(2)^-", ["1", "D2^z", "O(2)^-"]),
]


@pytest.mark.parametrize("row,col,expected", INFINITE_ROW_CELLS)
def test_infinite_row_transcriptions(row, col, expected):
    assert clips(row, col).labels() == expected
