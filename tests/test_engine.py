import itertools

import pytest

from conftest import empty_clips_memo
from o3clips import engine, infinite
from o3clips.engine import (
    ClipsMismatch,
    class_leq,
    clips,
    clips_families,
    verify_cells,
)
from o3clips.labels import (
    ClassSet,
    class_set,
    format_label,
    is_infinite,
    order_of,
    parse_label,
    typeclass,
    with_z2c,
)
from o3clips.infinite import COL_KINDS, FINITE_KINDS, table_cols, table_rows
from test_properties import finite_labels


def test_accepts_strings_and_labels():
    a, b = parse_label("Z2"), parse_label("D4")
    assert clips("Z2", "D4") == clips(a, b)
    assert clips("Z2", b) == clips(a, "D4")


def test_the_finite_square_matches_brute_force():
    # every ordered pair of finite classes with subscript <= 16 (ROADMAP
    # item 17), by one oracle sweep; the first side goes in as its
    # spelling and the second as a label, so both resolve paths meet it.
    # The pool holds every type I class Z_k, D_k (k <= 12), T, O, I and
    # every type III class of order <= 24, and the sweep is symmetric.
    pool = finite_labels(16)
    assert len(pool) == 99
    brute = engine.clips_oracle(pool, pool)
    assert [list(line) for line in zip(*brute)] == brute
    pairs = [(a, b, answer) for a, line in zip(pool, brute, strict=True)
             for b, answer in zip(pool, line, strict=True)]
    assert len(pairs) == 9_801
    assert len({(typeclass(a), typeclass(b)) for a, b, _ in pairs}) == 9
    bad = [f"{typeclass(a)} x {typeclass(b)}: {a} x {b}"
           for a, b, answer in pairs if clips(format_label(a), b) != answer]
    assert not bad, f"{len(bad)} pairs differ, first: {bad[:5]}"


def test_invalid_method():
    with pytest.raises(ValueError):
        clips("Z2", "Z2", method="fast")


def test_oracle_method_needs_finite():
    with pytest.raises(ValueError):
        clips("Z2", "SO(2)", method="oracle")


def test_symmetry_spot():
    pairs = [("Z4", "D6"), ("T", "O^-"), ("Z4^-", "O+Z2c"),
             ("O(2)", "D8"), ("SO(2)+Z2c", "D6^d"), ("O(2)^-", "I")]
    for a, b in pairs:
        assert clips(a, b) == clips(b, a)


def test_inversion_strip_identity():
    # a +Z2c factor is invisible to a plain rotation group
    for h1, h2 in [("Z6", "D4"), ("D3", "O"), ("Z5", "I"), ("T", "T")]:
        assert clips(h1, f"{h2}+Z2c") == clips(h1, h2)


def test_type3_proper_part_identity():
    # a mirror-type group meets a rotation group in its rotation part
    assert clips("Z8^-", "D6") == clips("Z4", "D6")
    assert clips("D4^z", "O") == clips("Z4", "O")
    assert clips("D8^d", "T") == clips("D4", "T")
    assert clips("O^-", "I") == clips("T", "I")


def test_type2_pairs_factor_through_rotation_parts():
    for h1, h2 in [("Z4", "D6"), ("D2", "D2"), ("T", "D3")]:
        inner = clips(h1, h2)
        outer = clips(f"{h1}+Z2c", f"{h2}+Z2c")
        assert outer == ClassSet(with_z2c(x) for x in inner)


def test_both_method_agrees_on_sample():
    pairs = [("Z4", "Z6"), ("D4", "D6"), ("T", "O"), ("O", "I"),
             ("Z4^-", "D4"), ("D6^d", "O^-"), ("Z6+Z2c", "D4^z"),
             ("T+Z2c", "I+Z2c")]
    for a, b in pairs:
        assert clips(a, b, method="both") == clips(a, b)


def test_both_method_raises_on_planted_mismatch(monkeypatch):
    wrong = class_set("1", "I")

    def lying_cell(a, b):
        return wrong

    # every normalized pair reaches the one closed-form dispatch, once
    # the memo stores in front of it are empty
    empty_clips_memo(monkeypatch)
    monkeypatch.setattr(infinite, "cell", lying_cell)
    with pytest.raises(ClipsMismatch) as err:
        clips("Z4+Z2c", "D4^z", method="both")
    assert err.value.symbolic == wrong
    assert "symbolic" in str(err.value)


def test_both_method_checks_the_type3_rule(monkeypatch):
    # the type III x III rule answers Z4^- x D4^z, and "both" checks it
    # with one oracle call on the pair itself
    a, b = parse_label("Z4^-"), parse_label("D4^z")
    calls = []
    oracle = engine.clips_oracle

    def spy(rows, cols):
        calls.append((tuple(rows), tuple(cols)))
        return oracle(rows, cols)

    monkeypatch.setattr(engine, "clips_oracle", spy)
    assert clips(a, b, method="both") == class_set("1", "Z2")
    assert calls == [((a,), (b,))]
    empty_clips_memo(monkeypatch)
    monkeypatch.setattr(infinite, "cell",
                        lambda x, y: class_set("1", "Z4^-"))
    with pytest.raises(ClipsMismatch):
        clips(a, b, method="both")


def test_symbolic_route_never_calls_brute_force(monkeypatch):
    # criterion 5's pool: 75 finite classes and the 7 infinite ones
    def refuse(*args, **kwargs):
        raise AssertionError("brute force called")

    monkeypatch.setattr(engine, "clips_oracle", refuse)
    monkeypatch.setattr(engine, "clips_axial", refuse)
    pool = finite_labels(12) + [parse_label(x) for x in INFINITE]
    assert len(pool) == 82
    answered = [clips(a, b) for a in pool for b in pool]
    assert len(answered) == 6724


def test_normalized_pair_answers_without_the_oracle(monkeypatch):
    # T meets Z2^- only through Z2^-'s rotation part, the trivial group
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(engine, "clips_oracle", no_oracle)
    assert clips("T", "Z2^-") == class_set("1")
    assert clips("Z2^-", "O") == class_set("1")


def test_clips_families_is_pairwise_union():
    fam1 = ["Z2", "Z3"]
    fam2 = ["D2", "D3"]
    want = ClassSet()
    for a, b in itertools.product(fam1, fam2):
        want = want | clips(a, b)
    assert clips_families(fam1, fam2) == want


def test_clips_families_accepts_classsets():
    cs1 = class_set("Z2", "Z3")
    cs2 = class_set("D2", "D3")
    assert clips_families(cs1, cs2) == clips_families(["Z2", "Z3"],
                                                      ["D2", "D3"])


LEQ_TRUE = [
    ("1", "1"), ("1", "Z5"), ("1", "O(3)"), ("1", "SO(2)"),
    ("Z2", "D2"), ("Z3", "Z6"), ("Z4", "D4"), ("Z5", "I"),
    ("D2", "T"), ("D2", "O"), ("T", "O"), ("T", "I"), ("D5", "I"),
    ("Z2", "SO(2)"), ("Z9", "SO(2)"), ("D7", "O(2)"), ("SO(2)", "O(2)"),
    ("Z2", "SO(3)"), ("O(2)", "SO(3)"), ("I", "SO(3)"), ("T", "I+Z2c"),
    ("Z2^-", "D2^z"), ("Z2^-", "O^-"), ("Z4^-", "D4^d"),
    ("D2^z", "D4^z"), ("D3^z", "O^-"), ("D2^z", "O^-"),
    ("Z6^-", "SO(2)+Z2c"), ("Z8", "SO(2)+Z2c"), ("SO(2)", "SO(2)+Z2c"),
    ("D8^d", "O(2)+Z2c"), ("O(2)^-", "O(2)+Z2c"), ("O(2)", "O(2)+Z2c"),
    ("Z2^-", "O(2)^-"), ("D5^z", "O(2)^-"), ("SO(2)", "O(2)^-"),
    ("Z7", "O(2)^-"), ("Z3", "O(2)^-"), ("Z4^-", "O^-"),
    ("1+Z2c", "Z4+Z2c"), ("Z3+Z2c", "D3+Z2c"),
    ("T+Z2c", "O+Z2c"), ("O^-", "O(3)"), ("O(2)+Z2c", "O(3)"),
    ("SO(3)", "O(3)"), ("D4^z", "D8^z"), ("Z4", "D8^z"),
    # beyond the oracle's order cap
    ("Z600^-", "Z600^-"), ("Z600^-", "SO(2)+Z2c"), ("D150^z", "D300^z"),
]

LEQ_FALSE = [
    ("Z5", "Z7"), ("Z4", "T"), ("O", "I"), ("D4", "I"), ("I", "O"),
    ("SO(2)", "Z8"), ("O(2)", "SO(2)"), ("SO(3)", "O(2)"),
    ("1+Z2c", "Z5"), ("1+Z2c", "SO(2)"), ("Z2+Z2c", "O^-"),
    ("D4^d", "D8^d"), ("Z4", "D4^d"), ("Z2^-", "Z4^-"),
    ("Z4^-", "D4^z"),
    ("D2", "O(2)^-"), ("O^-", "O(2)^-"), ("Z2^-", "SO(2)"),
    ("T", "D8"), ("O(3)", "SO(3)"), ("O(2)^-", "SO(2)+Z2c"),
    ("D3", "SO(2)+Z2c"), ("T+Z2c", "I"),
]

# Each finite family and each infinite class against the infinite
# classes: the columns of INFINITE that a class of the row sits in.
INFINITE = ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c", "O(2)^-", "SO(3)",
            "O(3)")
BELOW_INFINITE = {
    "1": INFINITE,
    "Z5": INFINITE,
    "D3": ("O(2)", "O(2)+Z2c", "SO(3)", "O(3)"),
    "T": ("SO(3)", "O(3)"),
    "O": ("SO(3)", "O(3)"),
    "I": ("SO(3)", "O(3)"),
    "Z2^-": ("SO(2)+Z2c", "O(2)+Z2c", "O(2)^-", "O(3)"),
    "Z6^-": ("SO(2)+Z2c", "O(2)+Z2c", "O(3)"),
    "D3^z": ("O(2)+Z2c", "O(2)^-", "O(3)"),
    "D6^d": ("O(2)+Z2c", "O(3)"),
    "O^-": ("O(3)",),
    "1+Z2c": ("SO(2)+Z2c", "O(2)+Z2c", "O(3)"),
    "Z4+Z2c": ("SO(2)+Z2c", "O(2)+Z2c", "O(3)"),
    "D4+Z2c": ("O(2)+Z2c", "O(3)"),
    "T+Z2c": ("O(3)",),
    "O+Z2c": ("O(3)",),
    "I+Z2c": ("O(3)",),
    "SO(2)": INFINITE,
    "O(2)": ("O(2)", "O(2)+Z2c", "SO(3)", "O(3)"),
    "SO(2)+Z2c": ("SO(2)+Z2c", "O(2)+Z2c", "O(3)"),
    "O(2)+Z2c": ("O(2)+Z2c", "O(3)"),
    "O(2)^-": ("O(2)+Z2c", "O(2)^-", "O(3)"),
    "SO(3)": ("SO(3)", "O(3)"),
    "O(3)": ("O(3)",),
}
_LISTED = set(LEQ_TRUE) | set(LEQ_FALSE)
LEQ_TRUE += [(a, b) for a, cols in BELOW_INFINITE.items() for b in cols
             if (a, b) not in _LISTED]
LEQ_FALSE += [(a, b) for a, cols in BELOW_INFINITE.items() for b in INFINITE
              if b not in cols and (a, b) not in _LISTED]


@pytest.mark.parametrize("a,b", LEQ_TRUE)
def test_class_leq_true(a, b):
    assert class_leq(a, b)


@pytest.mark.parametrize("a,b", LEQ_FALSE)
def test_class_leq_false(a, b):
    assert not class_leq(a, b)


def test_leq_antisymmetric_on_pool():
    pool = ["1", "Z2", "Z4", "D2", "T", "O", "Z2^-", "D2^z", "D4^d",
            "O^-", "Z2+Z2c", "SO(2)", "O(2)", "O(2)^-", "O(3)"]
    for a in pool:
        for b in pool:
            if a != b and class_leq(a, b) and class_leq(b, a):
                raise AssertionError(f"{a} and {b} mutually below")


def test_verify_cells_small_grid_all_match():
    checks = list(verify_cells(n_max=2, m_max=3, seed=1))
    assert len(checks) == 7 * 7
    assert all(c.match for c in checks)


def test_verify_cells_seed_has_no_effect():
    # the benchmark's worker still passes a seed; neither oracle draws
    # random numbers, so every seed gives the same cells
    runs = [list(verify_cells(n_max=3, m_max=3, seed=s)) for s in (0, 1, 7)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("size, swept, cells", [(3, 56, 70), (8, 391, 425)])
def test_verify_cells_sweeps_each_distinct_cell_once(size, swept, cells,
                                                     monkeypatch):
    # the D_2n^d column at n = 1 is D2^z, so each row meets that cell
    # twice; the oracle sees it once per call, in one call per pass with
    # every row against the distinct finite columns in table order, and
    # every cell is still yielded in row-major order over the table's
    # rows and columns
    calls = []
    oracle = engine.clips_oracle

    def spy(rows, cols):
        calls.append((tuple(rows), tuple(cols)))
        return oracle(rows, cols)

    monkeypatch.setattr(engine, "clips_oracle", spy)
    checks = list(verify_cells(size, size))
    rows = table_rows(FINITE_KINDS, range(2, size + 1))
    cols = table_cols(COL_KINDS, range(1, size + 1))
    assert [(c.row, c.col) for c in checks] == [(r, c) for r in rows for c in cols]
    assert len(checks) == cells
    finite = tuple(dict.fromkeys(c for c in cols if not is_infinite(c)))
    assert calls == [(tuple(rows), finite)]
    assert len(rows) == 2 * size + 1
    pairs = [(a, b) for rows_, cols_ in calls for a in rows_ for b in cols_]
    assert len(pairs) == len(set(pairs)) == swept
    assert all(c.match for c in checks)
    # both D2^z cells of a row read the pass's one sweep
    d2z = parse_label("D2^z")
    for r in rows:
        twins = [c for c in checks if c.row == r and c.col == d2z]
        assert len(twins) == 2 and twins[0] == twins[1], r
    # a second call sweeps every distinct cell again
    list(verify_cells(size, size))
    assert calls[1:] == calls[:1]


def test_dominance_on_small_cells():
    for a, b in [("D4", "O"), ("Z6+Z2c", "D4^z"), ("O^-", "T+Z2c")]:
        cell = clips(a, b)
        for x in cell:
            assert class_leq(x, parse_label(a))
            assert class_leq(x, parse_label(b))


def test_order_divisibility_on_small_cells():
    for a, b in [("D4", "O"), ("T", "I"), ("D6^d", "O+Z2c")]:
        na, nb = order_of(parse_label(a)), order_of(parse_label(b))
        for x in clips(a, b):
            k = order_of(x)
            assert na % k == 0 and nb % k == 0


def test_repeated_type3_calls_agree():
    # a type III x III pair answers from the rule alike on every call
    first = clips("D4^d", "O^-")
    assert clips("D4^d", "O^-") == first == clips("O^-", "D4^d")
    assert first == class_set("1", "Z2", "Z2^-", "Z4^-", "D4^d")


def test_every_public_name_resolves():
    # __all__ is computed from the package's imports: it stays sorted,
    # and holds no submodule and no private name
    import types

    import o3clips

    assert o3clips.__all__ == sorted(o3clips.__all__)
    for name in o3clips.__all__:
        assert getattr(o3clips, name) is not None, name
        assert not name.startswith("_"), name
        assert not isinstance(getattr(o3clips, name), types.ModuleType), name
