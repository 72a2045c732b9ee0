"""Randomized structural checks on the clips operation.

Labels are drawn from the finite families with small parameters plus the
closed axial groups, so every strategy output is a canonical class the
engine accepts.  The deterministic bulk sweep lives in the acceptance
suite; this layer just shrinks counterexamples when an invariant breaks.
"""

from functools import cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import empty_clips_memo
from o3clips import infinite
from o3clips import (
    ClassLabel,
    class_leq,
    class_set,
    clips,
    clips_families,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    icosa,
    is_infinite,
    o2,
    o2_minus,
    o3,
    octa,
    octa_minus,
    order_of,
    so2,
    sort_key,
    so3,
    tetra,
    trivial,
    with_z2c,
)
from o3clips.infinite import normalize

MAX_PARAM = 12


def finite_rotation_labels(n_max=MAX_PARAM):
    pool = [trivial(), tetra(), octa(), icosa()]
    pool += [cyclic(n) for n in range(2, n_max + 1)]
    pool += [dihedral(n) for n in range(2, n_max + 1)]
    return pool


def finite_labels(n_max=MAX_PARAM):
    pool = list(finite_rotation_labels(n_max))
    pool += [with_z2c(c) for c in finite_rotation_labels(n_max)]
    pool += [cyclic_minus(2 * k) for k in range(1, n_max // 2 + 1)]
    pool += [dihedral_z(n) for n in range(2, n_max + 1)]
    pool += [dihedral_d(2 * k) for k in range(1, n_max // 2 + 1)]
    pool.append(octa_minus())
    return list(dict.fromkeys(pool))  # D_2^d is D_2^z


INFINITE = [so2(), o2(), with_z2c(so2()), with_z2c(o2()), o2_minus(),
            so3(), o3()]

finite = st.sampled_from(finite_labels())
finite_small = st.sampled_from(finite_labels(6))
rows = st.sampled_from([with_z2c(c) for c in finite_rotation_labels()
                        if c != trivial()])
cols = st.sampled_from(
    [cyclic_minus(2 * k) for k in range(1, 7)]
    + [dihedral_z(n) for n in range(2, MAX_PARAM + 1)]
    + [dihedral_d(2 * k) for k in range(1, 7)]
    + [octa_minus(), o2_minus()])
anything = st.sampled_from(finite_labels() + INFINITE)
rotations_small = st.sampled_from([c for c in finite_rotation_labels(8)
                                   if c != trivial()])


@settings(deadline=None, max_examples=300)
@given(anything, anything)
def test_clips_is_symmetric(a, b):
    assert clips(a, b) == clips(b, a)


@settings(deadline=None, max_examples=300)
@given(rows, cols)
def test_mixed_reflection_cells_contain_trivial(row, col):
    # a generic relative orientation intersects down to the identity
    assert trivial() in clips(row, col)


@settings(deadline=None, max_examples=300)
@given(anything)
def test_self_membership(a):
    assert a in clips(a, a)


@settings(deadline=None, max_examples=300)
@given(finite, finite)
def test_dominance(a, b):
    for c in clips(a, b):
        assert class_leq(c, a)
        assert class_leq(c, b)


@settings(deadline=None, max_examples=300)
@given(finite, finite)
def test_order_divides_both(a, b):
    na, nb = order_of(a), order_of(b)
    for c in clips(a, b):
        k = order_of(c)
        assert na % k == 0
        assert nb % k == 0


@settings(deadline=None, max_examples=150)
@given(rotations_small, rotations_small)
def test_adding_inversion_to_one_side_changes_nothing(h1, h2):
    assert clips(h1, with_z2c(h2)) == clips(h1, h2)


@settings(deadline=None, max_examples=150)
@given(rotations_small, rotations_small)
def test_adding_inversion_to_both_sides_factors(h1, h2):
    plain = clips(h1, h2)
    lifted = class_set(*(with_z2c(c) for c in plain))
    assert clips(with_z2c(h1), with_z2c(h2)) == lifted


@settings(deadline=None, max_examples=200)
@given(anything)
def test_full_group_is_identity_element(a):
    assert clips(a, o3()) == class_set(a)


@settings(deadline=None, max_examples=200)
@given(finite_small, finite_small, finite_small)
def test_family_union(a, b, c):
    fam = clips_families([a, b], [c])
    assert fam == clips(a, c) | clips(b, c)


@settings(deadline=None, max_examples=300)
@given(anything, anything)
def test_results_are_canonical_and_ordered(a, b):
    cell = clips(a, b)
    labels = list(cell)
    assert labels == sorted(labels, key=sort_key)
    if not is_infinite(a) and not is_infinite(b):
        assert not any(is_infinite(c) for c in cell)


# 1, Z_n and D_n for n <= 6, D_n^z, Z_2n^- and D_2n^d for n in
# {2, 3, 4, 6}, T, O, I, O^-, the seven infinite classes, and the +Z2c
# lifts of 1, Z2, Z3, Z4, D2, D3, D4, T, O and I: 44 classes, among them
# 13 +Z2c lifts (with SO(2)+Z2c, O(2)+Z2c and O(3))
ORDER_POOL = (
    [trivial(), *map(cyclic, range(2, 7)), *map(dihedral, range(2, 7))]
    + [x for n in (2, 3, 4, 6)
       for x in (dihedral_z(n), cyclic_minus(2 * n), dihedral_d(2 * n))]
    + [tetra(), octa(), icosa(), octa_minus(), *INFINITE]
    + [with_z2c(c) for c in (trivial(), cyclic(2), cyclic(3), cyclic(4),
                             dihedral(2), dihedral(3), dihedral(4),
                             tetra(), octa(), icosa())])


def test_class_leq_is_a_partial_order_below_both_factors():
    # class_leq is reflexive, antisymmetric and transitive on the pool,
    # and every class of a o b lies below a and below b
    assert len(set(ORDER_POOL)) == 44
    leq = {(a, b): class_leq(a, b) for a in ORDER_POOL for b in ORDER_POOL}
    for a in ORDER_POOL:
        assert leq[a, a], a
        for b in ORDER_POOL:
            if leq[a, b] and b != a:
                assert not leq[b, a], (a, b)
                assert all(leq[a, c] for c in ORDER_POOL if leq[b, c]), (a, b)
        for b in ORDER_POOL:
            for x in clips(a, b):
                assert class_leq(x, a) and class_leq(x, b), (a, b, x)


@pytest.mark.parametrize("row, failing", [("printed", 66), ("rule", 0)])
def test_associativity_fails_only_through_the_printed_o2_row(row, failing,
                                                              monkeypatch):
    # clips is associative on classes: both groupings of a triple give
    # the classes of H1 ∩ g H2 g^-1 ∩ k H3 k^-1 over all g and k.  Of the
    # 85,184 ordered triples of the pool, the printed O(2)+Z2c row (the
    # rule less infinite._omitted) breaks it on 66, each holding O(2)+Z2c,
    # and the signed-axis rule with nothing omitted on none.  Once
    # ROADMAP item 2 answers that row by the rule, the printed case
    # expects 0 as well.
    o2_z2c = with_z2c(o2())
    if row == "rule":
        empty_clips_memo(monkeypatch)
        monkeypatch.setattr(infinite, "_omitted", lambda col: ())
    pair = cache(clips)
    family = cache(lambda cs, c: clips_families(cs, (c,)))
    broken = [(a, b, c) for a in ORDER_POOL for b in ORDER_POOL
              for c in ORDER_POOL
              if family(pair(a, b), c) != family(pair(b, c), a)]
    assert len(ORDER_POOL) ** 3 == 85_184
    assert len(broken) == failing
    assert all(o2_z2c in triple for triple in broken)


# An axial class with axis a, read at a generic angle to another axis b:
# the only elements but Id that keep both lines are -Id, R(n, pi) and
# -R(n, pi), n normal to both axes.  Which of them each class holds
# follows from its definition: O(2) holds every half-turn about a line
# normal to a, O(2)^- = SO(2) ∪ -(O(2)∖SO(2)) every reflection in a plane
# through a, and +Z2c adds -Id and the negatives.
GENERIC_ELEMENTS = {
    so2(): set(),
    o2(): {"R"},
    with_z2c(so2()): {"-Id"},
    with_z2c(o2()): {"-Id", "R", "-R"},
    o2_minus(): {"-R"},
}
GENERIC_CLASS = {
    frozenset(): trivial(),
    frozenset({"R"}): cyclic(2),
    frozenset({"-Id"}): with_z2c(trivial()),
    frozenset({"-R"}): cyclic_minus(2),
    frozenset({"-Id", "R", "-R"}): with_z2c(cyclic(2)),
}
# the published cell {1, D2^z, O(2)^-} against the generic class Z2^-
AXIAL_DIVERGENCES = {("O2", "O2-")}


def test_an_axial_cell_holds_1_only_at_a_generic_trivial_meeting():
    diverging = set()
    for key, data in infinite._AXIAL_AXIAL.items():
        # an SO(2) or O(2) side facing O(2)^- serves the +Z2c row
        a, b = (ClassLabel(k, 0, k != "O2-" and "O2-" in key) for k in key)
        assert normalize(a, b) == (a, b, False)
        assert clips(a, b) == data
        common = GENERIC_CLASS[frozenset(
            GENERIC_ELEMENTS[a] & GENERIC_ELEMENTS[b])]
        if common not in data or (trivial() in data) != (common is trivial()):
            diverging.add(key)
    assert diverging == AXIAL_DIVERGENCES
