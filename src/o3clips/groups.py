"""Matrix realizations of the finite closed subgroups of O(3).

Every finite class is built from one table, ``cyclic_factors``: a list
of cyclic factors (sign, axis, order), the factor being the group of
sign^k R(axis, 2 pi k / order) for k < order.  A rotation class has its
own row; a type III class takes its envelope's factors times the signs
of ``labels.TYPE_III``.  The class in reference orientation is the
ordered product <f1><f2>... of its factors, doubled by {Id, -Id} for a
+Z2c label.  ``reference_group`` multiplies the factors out and sorts
the result once, by one key, and ``generators`` lists one generator per
factor.

``reference_group`` is the one gate of the matrix layer.  It raises
``GroupError`` (a ``ValueError``): before any element is built, for an
infinite class, through ``cyclic_factors``, and for a class above
``rotations.ORDER_CAP``; and for a class whose elements' keys lie within
3 EPS_MAT of each other.  Every matrix path (``materialize``, the
census views below, both oracles and ``o3clips materialize``) reaches
it first, so none of them checks a class again.  Its key order,
k(x) = w . x for one fixed weight vector w (``_KEY``), is the one
element order of the matrix layer: ``materialize`` and
``lexsort_elements`` sort by the same key, and the oracle's membership
test looks a candidate up by it.

``recognize`` inverts the construction: given any finite set of
orthogonal matrices forming a group, it returns the canonical class
label, using only the determinant split, the rotation axes and the
element count; a type III class is named from its envelope and kernel
by ``labels.type3_class``.

``close_group``, the dedupe of ``lexsort_elements`` and
``_check_separation`` close a generator list by a fixpoint loop.  No
library path calls them; they are the independent reference that the
tests compare the factor construction against.

``_census`` is the one place that finds axes: the unsigned axes of an
element set and the axis of each element, from which ``structural_axes``
counts a class's cyclic order about each axis and ``orbit_reps`` picks
the lowest axis of each orbit under the set.  ``same_line`` is the one test
of whether two directions lie on one line, for the census, the orbits,
``rep_line_mask`` and both oracles.  ``label_census`` runs it once
per class, on the reference group.  ``recognize`` counts both of its
halves from one census: its own for an element set, or the label's
census restricted to a mask for a subgroup of a reference group, which
is how both brute-force oracles (``oracle`` and ``axial``) recognize.
``structural_axes``, ``axis_orbit_reps`` and ``rep_line_mask`` are
cached per-label views of the same census, from which the oracles take
their axes and the elements on the line of each representative.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .labels import (
    TYPE_III,
    ClassLabel,
    format_label,
    is_infinite,
    order_of,
    tilde_part,
    type3_class,
    with_z2c,
)
from .rotations import (
    EPS_MAT,
    IDENTITY,
    ORDER_CAP,
    canonical_axis,
    rotation,
)

MIN_SEPARATION = 1e-2  # floor that ``_check_separation`` asserts
_SAME_AXIS = 1e-9  # 1 - |a.b| below this: one unsigned axis
# the membership key weights, proportional to pi^-i, with |w|_1 = 1: the
# key k(x) = w . x of a matrix's 9 flattened entries is the one element
# order of the matrix layer (``reference_group``)
_KEY = np.pi ** -np.arange(9.0)
_KEY /= _KEY.sum()

PHI = (1.0 + np.sqrt(5.0)) / 2.0  # golden ratio, order-5 axes of I

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
DIAGONAL = E1 + E2 + E3  # a 3-fold axis of T, O, I and O^-
FIVE_FOLD = E1 + PHI * E3  # a 5-fold axis of I


class GroupError(ValueError):
    pass


def cyclic_factors(label: ClassLabel) -> list[tuple[int, np.ndarray, int]]:
    """The cyclic factors (sign, axis, order) of a finite class, whose
    ordered product is the class in reference orientation (without the
    {Id, -Id} factor of a +Z2c label)."""
    if is_infinite(label):
        raise GroupError(f"{label} is infinite and has no finite generator set")
    if label.kind in TYPE_III:
        # the envelope's factors, each times the sign the class puts on it
        signs = TYPE_III[label.kind][3]
        return [(s * sign, axis, m) for s, (sign, axis, m)
                in zip(signs, cyclic_factors(tilde_part(label)))]
    n = label.n
    match label.kind:
        case "1":
            return []
        case "Z":
            return [(1, E3, n)]
        case "D":
            return [(1, E3, n), (1, E1, 2)]
        case "T":
            return [(1, E3, 2), (1, E1, 2), (1, DIAGONAL, 3)]
        case "O":
            return [(1, E3, 4), (1, E1, 2), (1, DIAGONAL, 3)]
        case "I":
            return [(1, E3, 2), (1, E1, 2), (1, DIAGONAL, 3), (1, FIVE_FOLD, 5)]
    raise GroupError(f"no factor table for {label}")


def generators(label: ClassLabel) -> list[np.ndarray]:
    """Generator matrices of a finite class in reference orientation:
    one per cyclic factor, then -Id for a +Z2c label."""
    gens = [sign * rotation(axis, 2 * np.pi / m)
            for sign, axis, m in cyclic_factors(label)]
    return gens + [-IDENTITY] if label.plus else gens


def _key_sorted(flat: np.ndarray) -> np.ndarray:
    """Flattened elements (k, 9) sorted by their key (``_KEY``)."""
    return flat[np.argsort(flat @ _KEY)]


def lexsort_elements(mats: np.ndarray) -> np.ndarray:
    """Deduplicate matrices (entrywise within EPS_MAT) and return them
    in key order, the order of ``reference_group``.

    Distinct group elements are separated by at least MIN_SEPARATION
    while numerical copies agree to ~1e-12, so a coarse rounding pass
    can only split copies across a grid boundary, never merge distinct
    elements; one tolerance test of the surviving rows against each
    other re-merges the splits, keeping the first row of each match.
    """
    flat = mats.reshape(-1, 9)
    _, first = np.unique(np.round(flat, 6), axis=0, return_index=True)
    flat = flat[np.sort(first)]
    same = np.abs(flat[:, None] - flat[None]).max(axis=2) < EPS_MAT
    flat = flat[same.argmax(axis=1) == np.arange(len(flat))]
    return _key_sorted(flat).reshape(-1, 3, 3)


def close_group(gens: list[np.ndarray]) -> np.ndarray:
    """Close a generator list under multiplication: the fixpoint
    reference for ``reference_group``, used by the tests only.

    Raises
    ------
    GroupError
        If the closure exceeds ``ORDER_CAP`` elements (in particular for
        generator sets of infinite groups).
    """
    elems = lexsort_elements(np.array([IDENTITY, *gens]))
    while True:
        prods = np.einsum("aij,bjk->abik", elems, elems).reshape(-1, 3, 3)
        new = lexsort_elements(np.concatenate([elems, prods]))
        if len(new) > ORDER_CAP:
            raise GroupError(f"group closure exceeds cap {ORDER_CAP}")
        if len(new) == len(elems):
            break
        elems = new
    _check_separation(elems)
    return elems


def _check_separation(elems: np.ndarray) -> None:
    if len(elems) < 2:
        return
    flat = elems.reshape(len(elems), 9)
    diff = np.abs(flat[:, None, :] - flat[None, :, :]).max(axis=2)
    np.fill_diagonal(diff, np.inf)
    if diff.min() < MIN_SEPARATION:
        raise GroupError(
            f"degenerate element set: min separation {diff.min():.3e}"
        )


@lru_cache(maxsize=None)
def reference_group(label: ClassLabel) -> np.ndarray:
    """Cached element set of a finite class in reference orientation,
    shape (k, 3, 3), read-only, sorted by key.

    The key of a 3x3 matrix x is k(x) = w . x over its 9 flattened
    entries, for the fixed weights w_i proportional to pi^-i with
    |w|_1 = 1 (``_KEY``), so two matrices within d of each other
    entrywise have keys within d.  The sorted keys of the elements are
    checked to lie more than 3 EPS_MAT apart (the smallest gap within
    the order cap is about 3.6e-7, at D127, and the tests measure it on
    every class), and a class without that separation is refused.  So
    this order is the one element order of the matrix layer: noise
    below 1.5 EPS_MAT per entry cannot swap two elements, and the
    oracle finds a candidate's one possible match among the elements by
    its key alone (``oracle._Prepped``).  The oracle's membership mask
    bits index the elements in this order.

    No element is repeated.  For subgroups A and B,
    |AB| = |A| |B| / |A ∩ B|, so a product of a subgroup and a cyclic
    factor that meet only in Id has |A| |B| distinct elements:

    - Z_n and Z_n^- are one factor;
    - D_n = Z_n <R(e1, pi)>, D_n^z = Z_n <-R(e1, pi)> and
      D_n^d = Z_n^- <R(e1, pi)>: every element of the first factor acts
      on the e1 e2-plane as a rotation, the second factor's generator
      as a reflection;
    - T = D2 Z3, O = D4 Z3, O^- = D4^d Z3 and I = T Z5 (D2, D4 and D4^d
      are the products of their first two factors): the two orders are
      coprime;
    - a +Z2c label appends {Id, -Id}, which meets a rotation group in Id.

    Each product has the order of the class and lies in its group, so
    it is the whole group.

    Distinct elements are at least sqrt(2) sin(pi / N) apart entrywise,
    N the group order, so at least 0.017 within the order cap.  In the
    Z, D, Z^-, D^z and D^d families (and their +Z2c lifts) every
    element maps e3 to ±e3 and acts on the e1 e2-plane as a rotation or
    a reflection by a multiple of 2 pi / n plus a shift of 0 or pi that
    the e3 sign and the plane kind fix.  Two elements that differ in
    the e3 sign differ by 2 in entry (3, 3), a plane rotation and a
    plane reflection by at least 1, and two rotations (or reflections)
    of the plane by t != t' by max(|cos t - cos t'|, |sin t - sin t'|)
    >= sqrt(2) sin(|t - t'| / 2) >= sqrt(2) sin(pi / n).  Here n <= N,
    and a group with both plane kinds has N >= 4, where
    sqrt(2) sin(pi / N) <= 1.  The polyhedral classes, finitely many,
    are at least 0.8 apart.  The tests check the bound on every class
    within the cap.

    Raises
    ------
    GroupError
        For an infinite class, or one above the order cap, before any
        element is built; and for a class whose keys lie within
        3 EPS_MAT, which no class within the cap has.
    """
    factors = cyclic_factors(label)
    order = order_of(label)
    if order > ORDER_CAP:
        raise GroupError(f"{format_label(label)} has order {order}, above "
                         f"the order cap {ORDER_CAP}")
    elems = IDENTITY[None]
    for sign, axis, m in factors:
        k = np.arange(m)
        spin = rotation(axis, 2 * np.pi * k / m)
        powers = (float(sign) ** k)[:, None, None] * spin
        elems = (elems[:, None] @ powers[None]).reshape(-1, 3, 3)
    if label.plus:
        elems = np.concatenate([elems, -elems])
    flat = _key_sorted(elems.reshape(-1, 9))
    if np.diff(flat @ _KEY).min(initial=np.inf) <= 3 * EPS_MAT:
        raise GroupError(f"{format_label(label)}: membership keys closer "
                         "than 3 EPS_MAT")
    elems = flat.reshape(-1, 3, 3)
    elems.flags.writeable = False
    return elems


def materialize(label: ClassLabel, orientation: np.ndarray | None = None) -> np.ndarray:
    """Element set of a finite class, optionally conjugated.

    Parameters
    ----------
    label : ClassLabel
        A finite class of order <= ORDER_CAP.  Infinite classes and
        larger ones raise ``GroupError`` before any element is built;
        their clips are handled by closed-form rules.
    orientation : (3, 3) array, optional
        Conjugating rotation g; the result is g G g^T sorted by the
        key of ``reference_group``, its own elements' keys.  A conjugate
        of a duplicate-free set has no duplicates, so it is sorted
        without a dedupe.
    """
    elems = reference_group(label)
    if orientation is None:
        return elems
    g = np.asarray(orientation, dtype=float)
    flat = np.einsum("ij,ajk,lk->ail", g, elems, g).reshape(-1, 9)
    return _key_sorted(flat).reshape(-1, 3, 3)


def intersect(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Common elements of two materialized groups (subset of ``g2``)."""
    f1 = g1.reshape(len(g1), 9)
    f2 = g2.reshape(len(g2), 9)
    dist = np.abs(f1[:, None, :] - f2[None, :, :]).max(axis=2)
    mask = (dist < EPS_MAT).any(axis=0)
    return g2[mask]


def same_line(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether unit vectors u and v lie on one unsigned line, one row per
    vector of u and one column per vector of v: the package's one
    same-line test, 1 - |u.v| below ``_SAME_AXIS``."""
    return np.abs(u @ v.T) > 1.0 - _SAME_AXIS


def _census(elems: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proper flags, unsigned axes, and the axis index of each element
    (-1 for ±Id): the element g, or -g when improper, rotates about it."""
    proper = np.linalg.det(elems) > 0
    h = np.where(proper[:, None, None], elems, -elems)
    moved = np.abs(h - IDENTITY).max(axis=(1, 2)) >= EPS_MAT
    ids = np.full(len(elems), -1)
    h = h[moved]
    if len(h) == 0:
        return proper, np.zeros((0, 3)), ids
    # h + h^T - (tr h - 1) Id = 2 (1 - cos t) u u^T for the rotation by t
    # about u: its largest diagonal entry picks a column along u, and a
    # half turn needs no branch of its own
    tr = np.einsum("aii->a", h)
    sym = h + h.transpose(0, 2, 1) - (tr - 1.0)[:, None, None] * IDENTITY
    col = np.einsum("aii->ai", sym).argmax(axis=1)
    u = canonical_axis(sym[np.arange(len(sym)), :, col])
    # distinct axes of a group within the order cap are >= pi/128 apart
    first, ids[moved] = np.unique(same_line(u, u).argmax(axis=1),
                                  return_inverse=True)
    return proper, u[first], ids


def _axis_counts(ids: np.ndarray, n: int) -> np.ndarray:
    """Elements about each of n axes, from their census axis indices."""
    return np.bincount(ids[ids >= 0], minlength=n)


def orbit_reps(elems: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Indices of one unsigned axis per orbit under the element set, each
    the lowest index of its orbit, in increasing order.

    The set is a group, so the orbit of an axis is exactly its set of
    images.  The lowest axis not yet placed therefore starts a new orbit,
    and its images under the set are the whole orbit, which is dropped
    before the next pick.  Each pick holds |G| x axes floats."""
    reps, left = [], np.ones(len(axes), dtype=bool)
    while left.any():
        reps.append(int(left.argmax()))
        img = elems @ axes[reps[-1]]
        left &= ~same_line(img, axes).any(axis=0)
    return np.array(reps, dtype=int)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def label_census(label: ClassLabel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_census`` of the reference group of a finite class, run once per
    class (cached, read-only): the proper flag and axis index of every
    element, and the unsigned axes they index."""
    return _read_only(*_census(reference_group(label)))


@lru_cache(maxsize=None)
def structural_axes(label: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """All structural axes of a finite class in reference orientation,
    with the proper cyclic order about each (cached, read-only)."""
    proper, axes, ids = label_census(label)
    return _read_only(axes, 1 + _axis_counts(ids[proper], len(axes)))


@lru_cache(maxsize=None)
def axis_orbit_reps(label: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """One axis per orbit of structural axes under the group's own
    action, with the proper cyclic order about it (cached, read-only).
    Conjugation by the group moves an axis within its orbit, so clips
    only depends on the orbit."""
    axes, orders = structural_axes(label)
    first = orbit_reps(reference_group(label), axes)
    return _read_only(axes[first], orders[first])


@lru_cache(maxsize=None)
def rep_line_mask(label: ClassLabel) -> np.ndarray:
    """Per axis orbit representative a (``axis_orbit_reps``) and per
    element of the reference group, whether the element is ±Id or
    rotates, up to sign, about the line a (cached, read-only).  These
    are the elements that act alike on every direction normal to a:
    the matrix oracle keeps them at a generic spin about a, and the
    axial oracle at a generic point of a's circle."""
    _, axes, ids = label_census(label)
    on = same_line(axis_orbit_reps(label)[0], axes)
    return _read_only(np.hstack([on, np.ones((len(on), 1), bool)])[:, ids])[0]


class RecognitionError(ValueError):
    pass


def _rotation_class(k: int, counts: np.ndarray) -> ClassLabel:
    """Canonical class of a finite rotation group of order k, from the
    count of its non-identity rotations about each axis of a census."""
    if k == 1:
        return ClassLabel("1")
    orders = sorted((counts[counts > 0] + 1).tolist(), reverse=True)
    if len(orders) == 1:
        if orders[0] != k:
            raise RecognitionError(f"cyclic census mismatch: {orders} vs {k}")
        return ClassLabel("Z", k)
    if k == 12 and sum(1 for m in orders if m == 3) == 4:
        return ClassLabel("T")
    if k == 24 and sum(1 for m in orders if m == 4) == 3:
        return ClassLabel("O")
    if k == 60 and sum(1 for m in orders if m == 5) == 6:
        return ClassLabel("I")
    n = k // 2
    if 2 * n != k or orders[0] != n or any(m != 2 for m in orders[1:] if m != n):
        raise RecognitionError(f"unrecognized rotation group: order {k}, axes {orders}")
    return ClassLabel("D", n)


# per class, the classes that ``recognize(label, mask)`` has named, keyed
# by the raw bytes of the mask
_RECOGNIZED: dict[ClassLabel, dict[bytes, ClassLabel]] = {}


def recognize(group, mask: np.ndarray | bytes | None = None) -> ClassLabel:
    """Canonical class label of a finite subgroup of O(3).

    ``recognize(elems)`` takes an element set (k, 3, 3) and runs its
    census; ``recognize(label, mask)`` takes the subgroup of
    ``reference_group(label)`` that a boolean mask selects, and reads
    the label's cached census (``label_census``) at the mask.  Axis lines
    are merged by a tolerance test between them, so a census of the
    subset would merge the subset's axes exactly as the label's census
    does: the counts below, and so the class, are those of
    ``recognize(reference_group(label)[mask])``.

    The mask form therefore depends only on the label and the mask's
    contents, and it is memoized per class, keyed by the mask's raw
    bytes (``tobytes``, one byte per element of a boolean mask): each
    mask is read from the census once, and a mask edited in place is
    keyed afresh.  The mask may also be given as those raw bytes, as
    the oracle hands on the masks it tells apart by them; on a miss
    they are read back as a boolean mask.  Every key is a subgroup of
    the reference group, so a class never holds more entries than it
    has subgroups (D128 has tau(128) + sigma(128) = 263).  The element
    form is not memoized.

    The determinant splits the group; a type III group is named by
    ``labels.type3_class`` from its envelope tilde, the proper elements
    and the negated improper ones, and its kernel, the proper part
    (the ``labels.TYPE_III`` table).  Without -Id the two halves
    are disjoint (p = -q would put -Id = q p^-1 in the group), so tilde
    has |G| elements, and each of them is h = det(x) x for one x of G.
    One census of h therefore serves both: per axis, tilde counts every
    element about it and the proper part only the proper ones.
    """
    if mask is None:
        return _classify(*_census(group))
    memo = _RECOGNIZED.setdefault(group, {})
    key = mask if mask.__class__ is bytes else mask.tobytes()
    label = memo.get(key)
    if label is None:
        proper, axes, ids = label_census(group)
        mask = np.frombuffer(key, bool)
        label = memo[key] = _classify(proper[mask], axes, ids[mask])
    return label


def _classify(proper: np.ndarray, axes: np.ndarray, ids: np.ndarray) -> ClassLabel:
    """The class of ``recognize`` from a census: the proper flag and axis
    index of every element, and the axes they index."""
    p = _rotation_class(int(proper.sum()), _axis_counts(ids[proper], len(axes)))
    if proper.all():
        return p
    if (ids[~proper] < 0).any():  # -Id
        return with_z2c(p)
    t = _rotation_class(len(ids), _axis_counts(ids, len(axes)))
    label = type3_class(t, p)
    if label is None:
        raise RecognitionError(f"unrecognized improper group: tilde {t}, proper {p}")
    return label
