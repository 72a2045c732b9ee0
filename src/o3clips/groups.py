"""Matrix realizations of the finite closed subgroups of O(3).

A label is materialized from a fixed generator list into the full
element set (shape (k, 3, 3)), kept in a deterministic lexicographic
order.  ``recognize`` inverts this: given any finite set of orthogonal
matrices forming a group, it returns the canonical class label, using
only the determinant split, the rotation axes and the element count.

``axis_census`` is the one place that finds axes: the unsigned axes of
an element set and the cyclic order about each; ``axis_orbits`` groups
them into orbits under the set.  ``recognize`` reads its orders from
the census, and ``structural_axes`` and ``axis_orbit_reps`` are cached
per-label views, from which both brute-force oracles (``oracle`` and
``axial``) take their axes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .labels import (
    ClassLabel,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    icosa,
    is_infinite,
    octa,
    octa_minus,
    tetra,
    trivial,
    with_z2c,
)
from .rotations import (
    EPS_MAT,
    IDENTITY,
    ORDER_CAP,
    canonical_axis,
    rotation,
    rotoreflection,
)

MIN_SEPARATION = 1e-2  # sanity floor on inter-element distance
_SAME_AXIS = 1e-9  # 1 - |a.b| below this: one unsigned axis

PHI = (1.0 + np.sqrt(5.0)) / 2.0  # golden ratio, order-5 axes of I

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class GroupError(ValueError):
    pass


def generators(label: ClassLabel) -> list[np.ndarray]:
    """Generator matrices of a finite class in reference orientation."""
    if is_infinite(label):
        raise GroupError(f"{label} is infinite and has no finite generator set")
    kind, n = label.kind, label.n
    gens: list[np.ndarray]
    match kind:
        case "1":
            gens = []
        case "Z":
            gens = [rotation(E3, 2 * np.pi / n)]
        case "D":
            gens = [rotation(E3, 2 * np.pi / n), rotation(E1, np.pi)]
        case "T":
            gens = [
                rotation(E3, np.pi),
                rotation(E1, np.pi),
                rotation(E1 + E2 + E3, 2 * np.pi / 3),
            ]
        case "O":
            gens = [
                rotation(E3, np.pi / 2),
                rotation(E1, np.pi),
                rotation(E1 + E2 + E3, 2 * np.pi / 3),
            ]
        case "I":
            gens = [
                rotation(E3, np.pi),
                rotation(E1 + E2 + E3, 2 * np.pi / 3),
                rotation(E1 + PHI * E3, 2 * np.pi / 5),
            ]
        case "Z-":
            # order n with subscript n even; -R(e3, 2*pi/n) generates it
            gens = [rotoreflection(E3, 2 * np.pi / n)]
        case "Dz":
            gens = [rotation(E3, 2 * np.pi / n), rotoreflection(E1, np.pi)]
        case "Dd":
            gens = [rotoreflection(E3, 2 * np.pi / n), rotation(E1, np.pi)]
        case "O-":
            gens = [
                rotoreflection(E3, np.pi / 2),
                rotoreflection(E2 - E3, np.pi),
            ]
        case _:
            raise GroupError(f"no generator table for {label}")
    if label.plus:
        gens = gens + [-IDENTITY]
    return gens


def lexsort_elements(mats: np.ndarray) -> np.ndarray:
    """Deduplicate matrices (entrywise within EPS_MAT) and return them
    in lexicographic order of their flattened entries.

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
    order = np.lexsort(flat.T[::-1])
    return flat[order].reshape(-1, 3, 3)


def close_group(gens: list[np.ndarray], cap: int = ORDER_CAP) -> np.ndarray:
    """Close a generator list under multiplication.

    Raises
    ------
    GroupError
        If the closure exceeds ``cap`` elements (in particular for
        generator sets of infinite groups).
    """
    elems = lexsort_elements(np.array([IDENTITY, *gens]))
    while True:
        prods = np.einsum("aij,bjk->abik", elems, elems).reshape(-1, 3, 3)
        new = lexsort_elements(np.concatenate([elems, prods]))
        if len(new) > cap:
            raise GroupError(f"group closure exceeds cap {cap}")
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
    """Cached element set of a finite class in reference orientation."""
    elems = close_group(generators(label))
    elems.flags.writeable = False
    return elems


def materialize(label: ClassLabel, orientation: np.ndarray | None = None) -> np.ndarray:
    """Element set of a finite class, optionally conjugated.

    Parameters
    ----------
    label : ClassLabel
        A finite class (order <= 256).  Infinite classes raise
        ``GroupError``; their clips are handled by closed-form rules.
    orientation : (3, 3) array, optional
        Conjugating rotation g; the result is g G g^T in canonical
        element order.  A conjugate of a duplicate-free set has no
        duplicates, so it is sorted without ``lexsort_elements``.
    """
    elems = reference_group(label)
    if orientation is None:
        return elems
    g = np.asarray(orientation, dtype=float)
    flat = np.einsum("ij,ajk,lk->ail", g, elems, g).reshape(-1, 9)
    return flat[np.lexsort(flat.T[::-1])].reshape(-1, 3, 3)


def intersect(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Common elements of two materialized groups (subset of ``g2``)."""
    f1 = g1.reshape(len(g1), 9)
    f2 = g2.reshape(len(g2), 9)
    dist = np.abs(f1[:, None, :] - f2[None, :, :]).max(axis=2)
    mask = (dist < EPS_MAT).any(axis=0)
    return g2[mask]


def axis_census(elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's one axis census of a finite element set.

    Returns
    -------
    axes : (n, 3) array
        Unsigned axes (``canonical_axis`` signs) of the non-central
        elements in order of first appearance; an improper g contributes
        the axis of -g (the reflection normal for g = -R(v, pi)).
    orders : (n,) int array
        The proper cyclic order about each axis: the number of rotations
        in the set, the identity included, that fix it.
    """
    dets = np.linalg.det(elems)
    h = elems * np.sign(dets)[:, None, None]
    h = h[np.abs(h - IDENTITY).max(axis=(1, 2)) >= EPS_MAT]
    if len(h) == 0:
        return np.zeros((0, 3)), np.zeros(0, dtype=int)
    # h + h^T - (tr h - 1) Id = 2 (1 - cos t) u u^T for the rotation by t
    # about u: its largest diagonal entry picks a column along u, and a
    # half turn needs no branch of its own
    tr = np.einsum("aii->a", h)
    sym = h + h.transpose(0, 2, 1) - (tr - 1.0)[:, None, None] * IDENTITY
    col = np.einsum("aii->ai", sym).argmax(axis=1)
    u = canonical_axis(sym[np.arange(len(sym)), :, col])
    # distinct axes of a group within the order cap are >= pi/128 apart
    same = np.abs(u @ u.T) > 1.0 - _SAME_AXIS
    axes = u[same.argmax(axis=1) == np.arange(len(u))]
    img = np.einsum("gij,aj->gai", elems, axes)
    fixed = (np.abs(img - axes).max(axis=2) < EPS_MAT) & (dets > 0)[:, None]
    return axes, fixed.sum(axis=0)


def axis_orbits(elems: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """For each unsigned axis the lowest index of an axis in its orbit
    under the element set.  The set is a group, so the orbit of an axis
    is exactly its set of images."""
    if len(axes) == 0:
        return np.zeros(0, dtype=int)
    img = np.einsum("gij,aj->gai", elems, axes)
    orbit = (np.abs(img @ axes.T) > 1.0 - _SAME_AXIS).any(axis=0)
    return orbit.argmax(axis=1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def structural_axes(label: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """All structural axes of a finite class in reference orientation,
    with the proper cyclic order about each (cached, read-only)."""
    axes, orders = axis_census(reference_group(label))
    return _read_only(axes, orders)


@lru_cache(maxsize=None)
def axis_orbit_reps(label: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """One axis per orbit of structural axes under the group's own
    action, with the proper cyclic order about it (cached, read-only).
    Conjugation by the group moves an axis within its orbit, so clips
    only depends on the orbit."""
    axes, orders = structural_axes(label)
    first = np.unique(axis_orbits(reference_group(label), axes))
    return _read_only(axes[first], orders[first])


class RecognitionError(ValueError):
    pass


def recognize_so3(proper: np.ndarray) -> ClassLabel:
    """Canonical class of a finite rotation group."""
    k = len(proper)
    if k == 1:
        return trivial()
    orders = sorted(axis_census(proper)[1].tolist(), reverse=True)
    if len(orders) == 1:
        if orders[0] != k:
            raise RecognitionError(f"cyclic census mismatch: {orders} vs {k}")
        return cyclic(k)
    if k == 12 and sum(1 for m in orders if m == 3) == 4:
        return tetra()
    if k == 24 and sum(1 for m in orders if m == 4) == 3:
        return octa()
    if k == 60 and sum(1 for m in orders if m == 5) == 6:
        return icosa()
    n = k // 2
    if 2 * n != k or orders[0] != n or any(m != 2 for m in orders[1:] if m != n):
        raise RecognitionError(f"unrecognized rotation group: order {k}, axes {orders}")
    return dihedral(n)


def recognize(elems: np.ndarray) -> ClassLabel:
    """Canonical class label of a finite subgroup of O(3).

    The determinant splits the group; a type III group is identified by
    the pair (recognize(proper + negated improper), recognize(proper)).
    Without -Id the two halves are disjoint (p = -q would put
    -Id = q p^-1 in the group), so ``tilde`` needs no dedupe.
    """
    dets = np.linalg.det(elems)
    proper = elems[dets > 0]
    improper = elems[dets < 0]
    if len(improper) == 0:
        return recognize_so3(proper)
    if (np.abs(improper + IDENTITY).max(axis=(1, 2)) < EPS_MAT).any():
        return with_z2c(recognize_so3(proper))
    tilde = np.concatenate([proper, -improper])
    t = recognize_so3(tilde)
    p = recognize_so3(proper)
    match (t.kind, p.kind):
        case ("Z", "1") if t.n == 2:
            return cyclic_minus(2)
        case ("Z", "Z") if t.n == 2 * p.n:
            return cyclic_minus(t.n)
        case ("D", "Z") if t.n == p.n:
            return dihedral_z(t.n)
        case ("D", "D") if t.n == 2 * p.n:
            return dihedral_d(t.n)
        case ("O", "T"):
            return octa_minus()
    raise RecognitionError(f"unrecognized improper group: tilde {t}, proper {p}")
