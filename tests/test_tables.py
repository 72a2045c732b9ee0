import json
import pathlib
import random

import pytest

from conftest import load_pins
from test_properties import finite_labels
from o3clips import clips, tables
from o3clips.infinite import normalize
from o3clips.labels import (
    ClassLabel,
    class_set,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    icosa,
    o2,
    o2_minus,
    octa,
    octa_minus,
    parse_label,
    so2,
    strip_z2c,
    tetra,
    typeclass,
    with_z2c,
)
from o3clips.oracle import clips_oracle
from o3clips.tables import cell, clips_type2_type3


def _cell(row: str, col: str) -> list[str]:
    return clips_type2_type3(parse_label(row), parse_label(col)).labels()


def test_octa_row_against_d6d():
    assert _cell("O+Z2c", "D6^d") == [
        "1", "Z2", "Z2^-", "Z3", "D2^z", "D3", "D3^z"]


# Cells that differ from a literal transcription: each was corrected to
# the brute-force value (matrix oracle for finite columns, the axial
# membership oracle for O(2)^-).  The third column is the condition on
# the row parameter m that selects the corrected form, if any.
CORRECTED_CELLS = [
    ("T+Z2c", "O^-", "", ["1", "Z2", "Z2^-", "Z3", "D2^z", "T"]),
    ("I+Z2c", "O^-", "", ["1", "Z2", "Z2^-", "Z3", "D2^z", "D3^z", "T"]),
    ("D4+Z2c", "D6^z", "m even", ["1", "Z2", "Z2^-", "D2^z"]),
    ("D4+Z2c", "D4^z", "m even",
     ["1", "Z2", "Z2^-", "Z4", "D2^z", "D4^z"]),
    ("D6+Z2c", "D4^z", "m even", ["1", "Z2", "Z2^-", "D2^z"]),
    ("D3+Z2c", "D4^d", "m odd", ["1", "Z2", "Z2^-"]),
    ("D5+Z2c", "D8^d", "m odd", ["1", "Z2", "Z2^-"]),
    ("Z4+Z2c", "O(2)^-", "", ["1", "Z2^-", "Z4"]),
    ("Z5+Z2c", "O(2)^-", "", ["1", "Z5"]),
    ("D4+Z2c", "O(2)^-", "m even", ["1", "Z2^-", "D2^z", "D4^z"]),
    ("D5+Z2c", "O(2)^-", "m odd", ["1", "Z2", "Z2^-", "D5^z"]),
    ("T+Z2c", "O(2)^-", "", ["1", "Z2^-", "Z3", "D2^z"]),
    ("O+Z2c", "O(2)^-", "", ["1", "Z2^-", "D2^z", "D3^z", "D4^z"]),
    ("I+Z2c", "O(2)^-", "", ["1", "Z2^-", "D2^z", "D3^z", "D5^z"]),
]


@pytest.mark.parametrize("row,col,where,expected", CORRECTED_CELLS)
def test_corrected_cells(row, col, where, expected):
    assert _cell(row, col) == expected
    if where:
        assert parse_label(row).n % 2 == (where == "m odd")


def test_unaffected_neighbours_of_corrections():
    # sanity anchors around the corrected cells
    assert _cell("O+Z2c", "O^-") == [
        "1", "Z2", "Z2^-", "Z3", "Z4^-", "D2^z", "D3^z", "D4^d", "O^-"]
    assert _cell("D3+Z2c", "D6^d") == [
        "1", "Z2", "Z2^-", "Z3", "D3", "D3^z"]
    assert _cell("Z6+Z2c", "Z4^-") == ["1", "Z2"]
    assert _cell("T+Z2c", "D4^z") == ["1", "Z2", "Z2^-", "D2^z"]


# The two infinite rows are kept exactly as published.  Where the
# geometry says otherwise, the disagreement is pinned here: the cell on
# the left is what the table prints, the set on the right is what the
# axial oracle measures.
PRINTED_DIVERGENCES = [
    ("O(2)+Z2c", "D2^z",
     ["1", "D2^z"],
     ["1", "Z2", "Z2^-", "D2^z"]),
    ("O(2)+Z2c", "D4^z",
     ["1", "D2^z", "D4^z"],
     ["1", "Z2", "Z2^-", "D2^z", "D4^z"]),
    ("O(2)+Z2c", "D6^z",
     ["1", "D2^z", "D6^z"],
     ["1", "Z2", "Z2^-", "D2^z", "D6^z"]),
    ("O(2)+Z2c", "D8^z",
     ["1", "D2^z", "D8^z"],
     ["1", "Z2", "Z2^-", "D2^z", "D8^z"]),
    ("O(2)+Z2c", "D4^d",
     ["1", "Z2", "D2", "D2^z", "D4^d"],
     ["1", "Z2", "Z2^-", "D2", "D2^z", "D4^d"]),
    ("O(2)+Z2c", "D8^d",
     ["1", "Z2", "D2", "D2^z", "D8^d"],
     ["1", "Z2", "Z2^-", "D2", "D2^z", "D8^d"]),
    ("O(2)+Z2c", "D12^d",
     ["1", "Z2", "D2", "D2^z", "D12^d"],
     ["1", "Z2", "Z2^-", "D2", "D2^z", "D12^d"]),
    ("O(2)+Z2c", "D16^d",
     ["1", "Z2", "D2", "D2^z", "D16^d"],
     ["1", "Z2", "Z2^-", "D2", "D2^z", "D16^d"]),
    ("O(2)+Z2c", "O^-",
     ["1", "Z2^-", "D3^z", "D4^d"],
     ["1", "Z2", "Z2^-", "D2^z", "D3^z", "D4^d"]),
]


@pytest.mark.parametrize("row,col,printed,measured", PRINTED_DIVERGENCES)
def test_printed_divergences_pinned(row, col, printed, measured):
    cell = _cell(row, col)
    assert cell == printed
    pins = load_pins("clips_axial_pins")
    assert pins[f"{col}|{row}"] == measured
    assert cell != measured


def test_divergence_list_is_exhaustive():
    # every other pinned axial value agrees with the table
    pins = load_pins("clips_axial_pins")
    diverging = {(row, col) for row, col, _, _ in PRINTED_DIVERGENCES}
    for key, truth in pins.items():
        fin, inf = key.split("|")
        if parse_label(inf).kind not in ("SO2", "O2"):
            continue
        if not parse_label(inf).plus:
            continue
        try:
            cell = _cell(inf, fin)
        except ValueError:
            continue
        if (inf, fin) in diverging:
            continue
        assert cell == truth, f"unexpected divergence at {inf} x {fin}"


def test_o2_membrane_cell_kept_printed():
    # published cell; the geometric value would also contain Z2^-
    assert _cell("O(2)+Z2c", "O(2)^-") == ["1", "D2^z", "O(2)^-"]


def test_the_printed_o2_row_is_the_rule_less_the_omitted_classes():
    # Against every finite type III column with subscript <= 40, each
    # class that tables._omitted drops lies in the rule's cell, and the
    # axial membership oracle gives the rule's cell.  The 31 columns
    # with an omission are ROADMAP item 2's 31 pairs.
    from o3clips.axial import clips_axial

    row = with_z2c(o2())
    cols = [c for c in dict.fromkeys(tables.table_cols(tables.COL_KINDS,
                                                       range(1, 41)))
            if c.kind != "O2-" and c.n <= 40]
    omitting = 0
    for col in cols:
        rule, omitted = tables._signed_rule(row, col), tables._omitted(col)
        assert all(c in rule for c in omitted), col
        assert clips_axial(col, row) == rule, col
        omitting += bool(omitted)
    assert omitting == 31


def test_cells_always_contain_trivial():
    rows = ["Z2+Z2c", "Z7+Z2c", "D2+Z2c", "D7+Z2c", "T+Z2c", "O+Z2c",
            "I+Z2c", "SO(2)+Z2c", "O(2)+Z2c"]
    cols = ["Z2^-", "Z6^-", "D3^z", "D4^z", "D4^d", "D6^d", "O^-",
            "O(2)^-"]
    one = parse_label("1")
    for row in rows:
        for col in cols:
            cell = clips_type2_type3(parse_label(row), parse_label(col))
            assert one in cell


def test_rejects_wrong_kinds():
    with pytest.raises(ValueError):
        clips_type2_type3(parse_label("Z4"), parse_label("Z4^-"))
    with pytest.raises(ValueError):
        clips_type2_type3(parse_label("Z4+Z2c"), parse_label("D4"))
    with pytest.raises(ValueError):
        clips_type2_type3(parse_label("O^-"), parse_label("Z4^-"))
    with pytest.raises(ValueError):
        clips_type2_type3(parse_label("1+Z2c"), parse_label("Z4^-"))


def test_membership_example_cells():
    # a handful of spot values straight from the published grid
    assert _cell("Z6+Z2c", "D4^z") == ["1", "Z2", "Z2^-"]
    assert _cell("T+Z2c", "Z6^-") == ["1", "Z2^-", "Z3"]
    assert _cell("I+Z2c", "O(2)^-") == ["1", "Z2^-", "D2^z", "D3^z", "D5^z"]
    assert class_set(*_cell("SO(2)+Z2c", "Z6^-")) == class_set("1", "Z6^-")


ROTATIONS = ([cyclic(k) for k in range(2, 13)]
             + [dihedral(k) for k in range(2, 13)] + [tetra(), octa(), icosa()])


def test_type1_table_matches_oracle():
    # every unordered pair of {Z_k, D_k : k <= 12} and T, O, I
    pairs = [(a, b) for i, a in enumerate(ROTATIONS) for b in ROTATIONS[i:]]
    assert len(pairs) == 325
    for a, b in pairs:
        answer = cell(a, b)
        assert answer == cell(b, a), (a, b)
        assert answer == clips_oracle(a, b), (a, b)


def _type1(a: str, b: str) -> list[str]:
    return cell(parse_label(a), parse_label(b)).labels()


def test_type1_branches():
    assert _type1("Z6", "Z4") == ["1", "Z2"]
    assert _type1("D9", "Z6") == ["1", "Z2", "Z3"]
    # D2 from each principal axis on a secondary line of the other side
    assert _type1("D4", "D6") == ["1", "Z2", "D2"]
    assert _type1("D8", "D12") == ["1", "Z2", "Z4", "D2", "D4"]
    assert _type1("D3", "D6") == ["1", "Z2", "Z3", "D3"]
    assert _type1("O", "D12") == ["1", "Z2", "Z3", "Z4", "D2", "D3", "D4"]
    assert _type1("T", "D5") == ["1", "Z2"]
    # a shared D2 frame forces a shared T
    assert _type1("I", "T") == ["1", "Z2", "Z3", "T"]


def test_type1_cell_answers_an_axial_side():
    # an axial side is a rotation class of the rule
    assert _type1("SO(2)", "D4") == ["1", "Z2", "Z4"]
    assert _type1("D4", "SO(2)") == ["1", "Z2", "Z4"]


# the finite type III classes of criterion 5's pool: order at most 24
TYPE_III_POOL = [lab for lab in dict.fromkeys(finite_labels(12))
                 if typeclass(lab) == "III"]


def test_type3_table_matches_oracle():
    # all ordered pairs, so the rule is also checked for symmetry
    assert len(TYPE_III_POOL) == 23
    for a in TYPE_III_POOL:
        for b in TYPE_III_POOL:
            assert cell(a, b) == clips_oracle(a, b), (a, b)


@pytest.mark.parametrize("a,b", [
    ("D128^z", "D96^d"), ("Z256^-", "D128^d"), ("D127^z", "Z254^-"),
    ("D128^d", "O^-"), ("O^-", "D120^z"),
])
def test_type3_table_matches_oracle_near_the_cap(a, b):
    a, b = parse_label(a), parse_label(b)
    assert cell(a, b) == clips_oracle(a, b)


def _type3(a: str, b: str) -> list[str]:
    return cell(parse_label(a), parse_label(b)).labels()


def test_type3_cells():
    assert _type3("Z4^-", "D4^z") == ["1", "Z2"]
    assert _type3("D4^d", "O^-") == ["1", "Z2", "Z2^-", "Z4^-", "D4^d"]
    assert _type3("O^-", "O^-") == ["1", "Z2^-", "Z3", "Z4^-", "D3^z", "O^-"]
    # above the oracle's order cap
    assert _type3("D129^z", "D2^z") == ["1", "Z2^-"]
    assert _type3("Z258^-", "D3^z") == ["1", "Z2^-", "Z3"]


def test_type3_cell_answers_o2_minus():
    # O(2)^- is a type III class of the rule
    assert _type3("O(2)^-", "D4^z") == ["1", "Z2^-", "D4^z"]
    assert _type3("D4^z", "O(2)^-") == ["1", "Z2^-", "D4^z"]


# parameters with many divisors, where the deleted gcd and parity
# branches of the table were corrected by hand
MANY_DIVISORS = (12, 18, 20, 24, 30)


@pytest.mark.parametrize("row", [f"{family}{m}+Z2c" for family in "ZD"
                                 for m in MANY_DIVISORS])
def test_rule_matches_oracle_at_many_divisors(row):
    row = parse_label(row)
    cols = [f(n) for n in MANY_DIVISORS
            for f in (lambda n: cyclic_minus(2 * n), dihedral_z,
                      lambda n: dihedral_d(2 * n))]
    for col in (*cols, octa_minus()):
        assert clips_type2_type3(row, col) == clips_oracle(row, col), col


# the pairs of criterion 5's pool that the rule answers with a Z or D
# envelope on both sides: I x I, II x III (a type II class entering with
# the signed axes of its rotation part) and III x III
ZD_POOL = [lab for lab in dict.fromkeys(finite_labels(12))
           if strip_z2c(lab).kind in ("Z", "D", "Z-", "Dz", "Dd")]


def test_rule_reads_either_z_or_d_side_as_the_principal_one():
    # a type II label is passed as itself, on either side, and the rule
    # finds it by its plus flag
    pairs = {("I", "I"), ("II", "III"), ("III", "II"), ("III", "III")}
    checked = 0
    for a in ZD_POOL:
        for b in ZD_POOL:
            if (typeclass(a), typeclass(b)) not in pairs:
                continue
            assert (tables._signed_rule(a, b)
                    == tables._signed_rule(b, a)), (a, b)
            checked += 1
    assert checked == 4 * 22 ** 2


# every Z, D, Z^-, D^z and D^d class with a subscript up to 40, the
# lifts +Z2c, T, O, I, O^- and the five axial classes: 248 classes,
# whose 61,504 pairs normalize to 60,118 that reach ``_signed_rule``
RULE_POOL = list(dict.fromkeys([*finite_labels(40), so2(), o2(), o2_minus(),
                                with_z2c(so2()), with_z2c(o2())]))


def test_rule_memo_is_exact(monkeypatch):
    # A pair answered from the memo gets the cell that a fresh
    # computation of that very pair gives, whichever pair of its key
    # came first.  Keyed on gcd(n, L) instead of gcd(n, 2L), the memo
    # gives about 1,400 of these pairs a wrong cell, the count depending
    # on the order.
    pairs = [normalize(a, b)[:2] for a in RULE_POOL for b in RULE_POOL]
    random.Random(0).shuffle(pairs)
    monkeypatch.setattr(tables, "_RULE", {})
    memoized = [cell(a, b) for a, b in pairs]
    assert len(tables._RULE) > 0
    fresh = {}
    for pair, got in zip(pairs, memoized):
        if pair not in fresh:
            tables._RULE.clear()
            fresh[pair] = cell(*pair)
        assert got == fresh[pair], pair


def _divisors(n: int) -> int:
    return sum(n % k == 0 for k in range(1, n + 1))


def test_rule_memo_is_keyed_by_label_not_pair(monkeypatch):
    with open(pathlib.Path(__file__).resolve().parents[1] / "perfbench"
              / "expected_grid.json", encoding="utf-8") as fh:
        grid = json.load(fh)
    pairs = [(row, col) for row in grid["table"] for col in grid["cols"]]
    monkeypatch.setattr(tables, "_RULE", {})
    for row, col in pairs:
        clips(row, col)
    keys = list(tables._RULE)
    # each key is one class x with the kind, lift and one divisor d of
    # 2L of the other side, never the other class itself
    for x, kind, plus, d in keys:
        assert isinstance(x, ClassLabel) and type(kind) is str
        assert type(plus) is bool and tables._period(x) % d == 0
    # so the memo holds at most one cell per x, (kind, lift) of y and
    # divisor of 2L: 6 x 1,003 = 6,018 here, for 24,897 pairs
    sides = {(kind, plus) for _, kind, plus, _ in keys}
    bound = len(sides) * sum(_divisors(tables._period(x))
                             for x in {x for x, *_ in keys})
    assert 0 < len(keys) <= bound < len(pairs) // 4
