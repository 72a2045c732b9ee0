import itertools

import pytest

from conftest import load_catalog
from o3clips.engine import class_leq
from o3clips.labels import class_set, format_label, parse_label
from o3clips.piezo import (
    ELA_CLASSES,
    PIEZ_CLASSES,
    PIEZ_LAW_CLASSES,
    PIEZ_LAW_PRINTED,
    SYM_CLASSES,
    compute_piez,
    diff_piez,
    isotropy_direct_sum,
    printed_collisions,
)


def test_builtin_catalogs_match_fixtures():
    assert ELA_CLASSES.labels() == load_catalog("ela_classes")
    assert PIEZ_CLASSES.labels() == load_catalog("piez_classes")
    assert SYM_CLASSES.labels() == load_catalog("sym_classes")
    assert PIEZ_LAW_CLASSES.labels() == load_catalog("piez_law_classes")


def test_catalog_sizes():
    assert len(ELA_CLASSES) == 8
    assert len(PIEZ_CLASSES) == 16
    assert len(SYM_CLASSES) == 3
    assert len(PIEZ_LAW_CLASSES) == 25
    assert len(PIEZ_LAW_PRINTED) == 26


def _bounds(classes):
    # the least and the greatest class under class_leq
    least = [a for a in classes if all(class_leq(a, b) for b in classes)]
    greatest = [b for b in classes if all(class_leq(a, b) for a in classes)]
    return [format_label(least[0]), format_label(greatest[0])]


def test_catalog_bounds():
    assert _bounds(ELA_CLASSES) == ["1", "O(3)"]
    assert _bounds(PIEZ_CLASSES) == ["1", "O(3)"]
    assert _bounds(SYM_CLASSES) == ["D2+Z2c", "O(3)"]
    assert _bounds(PIEZ_LAW_CLASSES) == ["1", "O(3)"]


def test_printed_collisions():
    assert printed_collisions() == [("D2^d", "D2^z")]


def test_direct_sum_pair():
    # permittivity alone, coupled with itself, stays inside its lattice
    got = isotropy_direct_sum([SYM_CLASSES, SYM_CLASSES])
    assert parse_label("D2+Z2c") in got
    assert parse_label("O(3)") in got
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="need at least one catalog"):
            isotropy_direct_sum(empty)
    # catalogs may be spelled, ClassSets, or drawn from a generator
    spelled = [["D2+Z2c", "O(3)"], ["O(2)+Z2c"]]
    sets = tuple(class_set(*c) for c in spelled)
    want = isotropy_direct_sum(spelled)
    assert want == class_set("1+Z2c", "Z2+Z2c", "D2+Z2c", "O(2)+Z2c")
    assert isotropy_direct_sum(sets) == want
    assert isotropy_direct_sum(c for c in spelled) == want


def test_compute_piez_regression():
    # The recomputed catalog is the published list plus the central
    # inversion class [1+Z2c]: it arises from clips of Z2+Z2c (in the
    # elasticity catalog) with D2+Z2c (in the permittivity catalog) and
    # survives the fold.  Pinned so any drift in either direction is
    # caught.
    computed = compute_piez()
    assert computed == PIEZ_LAW_CLASSES | class_set("1+Z2c")
    assert len(computed) == 26


def test_diff_piez_reports_the_single_extra():
    d = diff_piez()
    assert d.missing == ()
    assert d.extra == ("1+Z2c",)
    assert not d.match
    assert d.printed_count == 26
    assert d.canonical_count == 25
    assert d.collisions == (("D2^d", "D2^z"),)
    # the first pair, in canonical order, that gives the extra class
    assert d.witnesses == {"1+Z2c": ("Z2+Z2c", "D2+Z2c")}
    pair = d.witnesses["1+Z2c"]
    assert parse_label("1+Z2c") in __import__("o3clips").clips(*pair)


def test_fold_methods_agree():
    # "both" checks every finite pair of the fold against the oracle
    assert compute_piez(method="both") == compute_piez()
    assert diff_piez().computed == compute_piez()


def test_extra_class_witnessed_at_the_matrix_level():
    # Z2+Z2c and D2+Z2c really do intersect in {+-Id} at a generic
    # relative orientation: the rule-level result is not an artifact.
    from o3clips import clips
    cell = clips("Z2+Z2c", "D2+Z2c")
    assert parse_label("1+Z2c") in cell
    assert cell == clips("Z2+Z2c", "D2+Z2c", method="oracle")


def test_fold_is_order_independent():
    base = compute_piez()
    for perm in itertools.permutations(
            [ELA_CLASSES, PIEZ_CLASSES, SYM_CLASSES]):
        assert isotropy_direct_sum(list(perm)) == base


def test_every_computed_label_round_trips():
    for lbl in compute_piez().labels():
        assert format_label(parse_label(lbl)) == lbl
