import json
import pathlib
import random
from math import gcd, lcm

import pytest

from conftest import empty_clips_memo, load_pins
from test_properties import INFINITE, finite_labels
from o3clips import clips, clips_type2_type3, engine, infinite, labels
from o3clips.infinite import cell, clips_reduce, normalize
from o3clips.labels import (
    ClassLabel,
    ClassSet,
    class_set,
    format_label,
    parse_label,
    strip_z2c,
    typeclass,
    with_z2c,
)
from o3clips.oracle import clips_oracle


def _cell(row: str, col: str) -> list[str]:
    return clips_type2_type3(row, col).labels()


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
    # class that infinite._omitted drops lies in the rule's cell, and the
    # axial membership oracle gives the rule's cell.  The 31 columns
    # with an omission are ROADMAP item 2's 31 pairs.
    from o3clips.axial import clips_axial

    row = parse_label("O(2)+Z2c")
    cols = [c for c in dict.fromkeys(infinite.table_cols(infinite.COL_KINDS,
                                                         range(1, 41)))
            if c.kind != "O2-" and c.n <= 40]
    omitting = 0
    for col in cols:
        rule = infinite._signed_rule(row, col)
        omitted = infinite._omitted(col)
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
    # each pair is refused as labels and as spellings
    for row, col in [("Z4", "Z4^-"), ("Z4+Z2c", "D4"), ("O^-", "Z4^-"),
                     ("1+Z2c", "Z4^-")]:
        with pytest.raises(ValueError):
            clips_type2_type3(parse_label(row), parse_label(col))
        with pytest.raises(ValueError):
            clips_type2_type3(row, col)
    # a spelled pair of the table answers as its labels do
    row, col = parse_label("D4+Z2c"), parse_label("D4^z")
    assert clips_type2_type3("D4+Z2c", "D4^z") is clips_type2_type3(row, col)
    # a spec that names no class raises as parse_label does
    with pytest.raises(ValueError, match="cannot parse class label 'bogus'"):
        clips_type2_type3("bogus", col)
    with pytest.raises(TypeError, match="int is not a class label"):
        clips_type2_type3(row, 5)


def test_membership_example_cells():
    # a handful of spot values straight from the published grid
    assert _cell("Z6+Z2c", "D4^z") == ["1", "Z2", "Z2^-"]
    assert _cell("T+Z2c", "Z6^-") == ["1", "Z2^-", "Z3"]
    assert _cell("I+Z2c", "O(2)^-") == ["1", "Z2^-", "D2^z", "D3^z", "D5^z"]
    assert class_set(*_cell("SO(2)+Z2c", "Z6^-")) == class_set("1", "Z6^-")


def _pair_cell(a: str, b: str) -> list[str]:
    return cell(parse_label(a), parse_label(b)).labels()


def test_type1_branches():
    assert _pair_cell("Z6", "Z4") == ["1", "Z2"]
    assert _pair_cell("D9", "Z6") == ["1", "Z2", "Z3"]
    # D2 from each principal axis on a secondary line of the other side
    assert _pair_cell("D4", "D6") == ["1", "Z2", "D2"]
    assert _pair_cell("D8", "D12") == ["1", "Z2", "Z4", "D2", "D4"]
    assert _pair_cell("D3", "D6") == ["1", "Z2", "Z3", "D3"]
    assert _pair_cell("O", "D12") == ["1", "Z2", "Z3", "Z4", "D2", "D3", "D4"]
    assert _pair_cell("T", "D5") == ["1", "Z2"]
    # a shared D2 frame forces a shared T
    assert _pair_cell("I", "T") == ["1", "Z2", "Z3", "T"]


def test_type1_cell_answers_an_axial_side():
    # an axial side is a rotation class of the rule
    assert _pair_cell("SO(2)", "D4") == ["1", "Z2", "Z4"]
    assert _pair_cell("D4", "SO(2)") == ["1", "Z2", "Z4"]


@pytest.mark.parametrize("a,b", [
    ("D128^z", "D96^d"), ("Z256^-", "D128^d"), ("D127^z", "Z254^-"),
    ("D128^d", "O^-"), ("O^-", "D120^z"),
])
def test_type3_table_matches_oracle_near_the_cap(a, b):
    a, b = parse_label(a), parse_label(b)
    assert cell(a, b) == clips_oracle(a, b)


def test_type3_cells():
    assert _pair_cell("Z4^-", "D4^z") == ["1", "Z2"]
    assert _pair_cell("D4^d", "O^-") == ["1", "Z2", "Z2^-", "Z4^-", "D4^d"]
    assert _pair_cell("O^-", "O^-") == [
        "1", "Z2^-", "Z3", "Z4^-", "D3^z", "O^-"]
    # above the oracle's order cap
    assert _pair_cell("D129^z", "D2^z") == ["1", "Z2^-"]
    assert _pair_cell("Z258^-", "D3^z") == ["1", "Z2^-", "Z3"]


def test_type3_cell_answers_o2_minus():
    # O(2)^- is a type III class of the rule
    assert _pair_cell("O(2)^-", "D4^z") == ["1", "Z2^-", "D4^z"]
    assert _pair_cell("D4^z", "O(2)^-") == ["1", "Z2^-", "D4^z"]


# parameters with many divisors, where the deleted gcd and parity
# branches of the table were corrected by hand
MANY_DIVISORS = (12, 18, 20, 24, 30)


@pytest.mark.parametrize("row", [f"{family}{m}+Z2c" for family in "ZD"
                                 for m in MANY_DIVISORS])
def test_rule_matches_oracle_at_many_divisors(row):
    row = parse_label(row)
    cols = [ClassLabel(kind, m * n) for n in MANY_DIVISORS
            for kind, m in (("Z-", 2), ("Dz", 1), ("Dd", 2))]
    for col in (*cols, parse_label("O^-")):
        assert clips_type2_type3(row, col) == clips_oracle(row, col), col


# the pairs of criterion 5's pool that the rule answers with a Z or D
# envelope on both sides: I x I, II x III (a type II class entering with
# the signed axes of its rotation part) and III x III
ZD_POOL = [lab for lab in finite_labels(12)
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
            assert (infinite._signed_rule(a, b)
                    == infinite._signed_rule(b, a)), (a, b)
            checked += 1
    assert checked == 4 * 22 ** 2


# every kind and lift: 1, 1+Z2c, SO(3), O(3) and the five axial classes;
# T, O, I with their lifts, and O^-; Z, D with their lifts and D^z up to
# subscript 40; Z^- and D^d up to subscript 80: 290 classes, whose
# 84,100 ordered pairs reach the memo of ``clips_reduce``
MEMO_POOL = list(dict.fromkeys([
    *finite_labels(40),
    *map(parse_label, ("SO(2)", "O(2)", "O(2)^-", "SO(2)+Z2c", "O(2)+Z2c",
                       "SO(3)", "O(3)")),
    *(ClassLabel(kind, 2 * k) for k in range(21, 41) for kind in ("Z-", "Dd")),
]))
GRID_FILE = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "expected_grid.json")


def _fresh(a: ClassLabel, b: ClassLabel) -> ClassSet:
    # ``clips_reduce``'s answer computed again, with no memo
    x, y, lift = normalize(a, b)
    out = cell(x, y)
    return ClassSet(with_z2c(k) for k in out) if lift else out


def test_rule_memo_is_exact(monkeypatch):
    # A pair answered from the memo gets the answer that a fresh
    # normalize, cell and lift of that very pair gives, whichever pair
    # of its key came first.  Keyed on gcd(n, L) instead of gcd(n, 2L),
    # the memo gives about 5,100 of these pairs a wrong answer, the count
    # depending on the order.
    assert len(MEMO_POOL) ** 2 == 84_100
    pairs = [(a, b) for a in MEMO_POOL for b in MEMO_POOL]
    random.Random(0).shuffle(pairs)
    empty_clips_memo(monkeypatch)
    for a, b in pairs:
        assert clips_reduce(a, b) == _fresh(a, b), (a, b)
    # most pairs are answered from a key that another pair filled
    keys = _compact_keys()
    assert len(keys) == 19_318
    assert len(keys) <= _key_bound(keys) < len(pairs)


def test_period_is_twice_the_lcm_of_the_rule_axes():
    # the memo keys the second side by gcd(n, x.period), and step 3 of
    # its exactness argument needs every axis order p that the rule
    # reads of x to divide x.period / 2
    absorbers = set(class_set("1", "1+Z2c", "SO(3)", "O(3)"))
    pool = finite_labels(128) + INFINITE
    assert len(set(pool)) == len(pool) == 771 + 7 and absorbers <= set(pool)
    for x in pool:
        if x in absorbers:
            assert x.axes == () and x.period == 0, x
        else:
            orders = [p for p, *_ in x.axes]
            assert x.period == (0 if 0 in orders else 2 * lcm(*orders)), x


def _compact_keys() -> list:
    # The rule's compact keys, the keys of ``_MEMO``, each holding a
    # ClassSet.  ``_PAIRS`` holds the pairs as given, one dict per first
    # argument, and each of their answers is a ClassSet of ``_MEMO``.
    shared = {id(out) for out in infinite._MEMO.values()}
    assert all(type(key) is tuple and len(key) == 4 for key in infinite._MEMO)
    assert all(type(out) is ClassSet for out in infinite._MEMO.values())
    for first, answers in infinite._PAIRS.items():
        assert isinstance(first, (ClassLabel, str)), first
        for second, out in answers.items():
            assert isinstance(second, (ClassLabel, str)), (first, second)
            assert id(out) in shared, (first, second)
    return list(infinite._MEMO)


def _divisors(n: int) -> int:
    return sum(n % k == 0 for k in range(1, n + 1))


def _key_bound(keys) -> int:
    # Each key is the first class x with the kind, lift and one divisor
    # d of 2L of the other side, never the other class itself unless 2L
    # is 0.  So the memo holds per x at most one answer per (kind, lift)
    # of the other side and divisor of 2L, or one per other class when
    # 2L = 0.
    sides = {}
    for x, kind, plus, d in keys:
        assert isinstance(x, ClassLabel) and type(kind) is str
        assert type(plus) is bool and gcd(d, x.period) == d
        sides.setdefault(x, set()).add(
            (kind, plus) if x.period else (kind, plus, d))
    return sum(len(side) * (_divisors(x.period) or 1)
               for x, side in sides.items())


def _grid() -> dict:
    with open(GRID_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def test_rule_memo_is_keyed_by_label_not_pair(monkeypatch):
    grid = _grid()
    pairs = [(row, col) for row in grid["table"] for col in grid["cols"]]
    empty_clips_memo(monkeypatch)
    for row, col in pairs:
        clips(row, col)
    keys = _compact_keys()
    # x is always the row, and the other side's kinds are the columns'
    # five; the bound is 4,975 here, for 24,897 pairs
    assert {x for x, *_ in keys} == set(map(parse_label, grid["table"]))
    assert {kind for _, kind, _, _ in keys} == set(infinite.COL_KINDS)
    assert 0 < len(keys) <= _key_bound(keys) < len(pairs) // 4
    # an absorber 1 or SO(3), lifted or not, has period 0, so as x it
    # keys the other side whole; as y it has no subscript to reduce
    for z in class_set("1", "1+Z2c", "SO(3)", "O(3)"):
        assert z.period == 0
        for c in map(parse_label, [*grid["table"], *grid["cols"]]):
            whole = {(z, c): (z, c.kind, c.plus, c.n),
                     (c, z): (c, z.kind, z.plus, c.period)}
            for (a, b), key in whole.items():
                got = clips(a, b)
                assert infinite._MEMO[key] is got


def test_a_warm_repeat_builds_nothing(monkeypatch):
    # a lifted II x II cell, a III x I cell whose side loses its sign and
    # the printed O(2)+Z2c row each return the one stored ClassSet
    for a, b in (("D4+Z2c", "SO(2)+Z2c"), ("D6^z", "SO(2)"),
                 ("D4^z", "O(2)+Z2c")):
        assert clips(a, b) is clips(a, b), (a, b)
    # the table's own entry point answers through the same memo
    row, col = parse_label("D12+Z2c"), parse_label("D18^d")
    assert clips_type2_type3(row, col) is clips_type2_type3(row, col)
    grid = _grid()
    pairs = [(row, col) for row in grid["table"] for col in grid["cols"]]
    pairs = random.Random(1).sample(pairs, 1_000)
    for a, b in pairs:
        clips(a, b)
    built = []
    init = ClassSet.__init__

    def spy(self, items=()):
        built.append(self)
        init(self, items)

    monkeypatch.setattr(ClassSet, "__init__", spy)
    for a, b in pairs:
        clips(a, b)
    assert built == []
    ClassSet([parse_label("1")])  # the spy sees a construction
    assert len(built) == 1


def _grid_pairs() -> list[tuple[str, str]]:
    # every ``symbolic_grid`` cell as perfbench/worker.py spells it: the
    # table, then its finite classes against the five axial classes
    grid = _grid()
    axial = [format_label(x) for x in INFINITE[:5]]
    return list(dict.fromkeys(
        [(row, col) for row in grid["table"] for col in grid["cols"]]
        + [(f, x) for f in grid["axial_table"] for x in axial]))


def _answer_grid(monkeypatch) -> tuple[list, list]:
    # The grid's pairs as spellings and as labels, and their answers,
    # each form answered once into emptied stores.  The spelled pass
    # fills both stores; the labelled one adds pairs as given only.
    spelled = _grid_pairs()
    assert len(spelled) == 26_373
    labelled = [(parse_label(a), parse_label(b)) for a, b in spelled]
    empty_clips_memo(monkeypatch)
    warm = []
    for pairs, firsts, entries in ((spelled, 321, 26_373),
                                   (labelled, 641, 52_612)):
        warm.append([clips(a, b) for a, b in pairs])
        assert len(infinite._PAIRS) == firsts
        assert sum(map(len, infinite._PAIRS.values())) == entries
        assert len(_compact_keys()) == 3_935
    assert all(s is t for s, t in zip(*warm))
    return [spelled, labelled], warm


def test_a_warm_pair_is_two_memo_probes(monkeypatch):
    # Once the grid is answered as spellings and as labels, a warm call
    # in either form returns the one stored ClassSet of its pair, and
    # none parses, normalizes, reaches the rule or takes a gcd.
    forms, warm = _answer_grid(monkeypatch)

    def refuse(*args):
        raise AssertionError("a warm call left the memo")

    monkeypatch.setattr(labels, "_parse", refuse)
    monkeypatch.setattr(engine, "parse_label", refuse)
    for name in ("parse_label", "normalize", "cell", "gcd"):
        monkeypatch.setattr(infinite, name, refuse)
    for pairs, answers in zip(forms, warm):
        for (a, b), out in zip(pairs, answers):
            assert clips(a, b) is out, (a, b)


def test_the_pair_store_can_be_cleared_alone(monkeypatch):
    # Every pair entry points at the ClassSet of its compact key, so
    # clearing ``_PAIRS`` keeps every compact key, and a repeated pair
    # in either form is refilled from its key, with no rule, and returns
    # the very ClassSet it returned before.  Clearing the table of
    # resolved spellings as well parses each spelling again to the very
    # label it named.  A bound on either store may therefore clear it
    # (ROADMAP item 22).
    forms, warm = _answer_grid(monkeypatch)
    named = {s: parse_label(s) for pair in forms[0] for s in pair}

    def refuse(*args):
        raise AssertionError("a refilled pair reached the rule")

    for name in ("normalize", "cell"):
        monkeypatch.setattr(infinite, name, refuse)
    for stores in ((infinite._PAIRS,), (infinite._PAIRS, parse_label.__self__)):
        for store in stores:
            store.clear()
        assert len(_compact_keys()) == 3_935
        for pairs, answers in zip(forms, warm):
            for (a, b), out in zip(pairs, answers):
                assert clips(a, b) is out, (a, b)
        assert all(parse_label(s) is label for s, label in named.items())
        assert sum(map(len, infinite._PAIRS.values())) == 52_612
        assert len(_compact_keys()) == 3_935


def test_a_spec_that_is_no_class_raises_as_before_and_stores_nothing(
        monkeypatch):
    # The hit path reads ``_PAIRS`` before anything is parsed, so every
    # spec that is no class, a compact key of ``_MEMO`` among them, must
    # still raise the error of ``parse_label``, first side first, on
    # every call, and leave both stores as they were.
    empty_clips_memo(monkeypatch)
    z2 = parse_label("Z2")
    for a, b in (("Z2", "Z2"), (z2, "D4^z"), (z2, z2)):
        clips(a, b)
    key = next(iter(infinite._MEMO))
    not_a_class = "{} is not a class label or a str"
    bad = [
        (5, TypeError, not_a_class.format("int")),
        (["Z2"], TypeError, "unhashable type: 'list'"),
        (None, TypeError, not_a_class.format("NoneType")),
        ("bogus", ValueError,
         "cannot parse class label 'bogus' (near position 1)"),
        (key, TypeError, not_a_class.format("tuple")),
    ]

    def snapshot() -> tuple[dict, dict]:
        return ({k: dict(v) for k, v in infinite._PAIRS.items()},
                dict(infinite._MEMO))

    before = snapshot()
    for good in ("Z2", z2):
        for spec, exc, message in bad:
            for pair in ((spec, good), (good, spec)) * 2:
                with pytest.raises(exc) as err:
                    clips(*pair)
                assert type(err.value) is exc and str(err.value) == message
                assert snapshot() == before, pair
    with pytest.raises(TypeError, match="not a class label"):
        clips(5, "bogus")
