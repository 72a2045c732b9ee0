"""Closed-form clips cells: type II row against type III column, and
finite rotation group against finite rotation group.

Every cell of the two-column-family tables is a small set of classes
given by gcd/parity branches in the row parameter m and the column
parameter n.  clips_type2_type3 evaluates one cell and reports which
branch fired.  Cells and helpers:

* rows:    [Z_m+Z2c], [D_m+Z2c], [T+Z2c], [O+Z2c], [I+Z2c],
           [SO(2)+Z2c], [O(2)+Z2c]
* columns: [Z_2n^-], [D_n^z], [D_2n^d], [O^-], [O(2)^-]

Four cell families differ from the usual published form; the
brute-force oracles (tests) agree with the versions here.

* O^- column, T+Z2c and I+Z2c rows: [D_2] dropped.  A D_2 inside the
  intersection forces the whole 2-fold frame to be shared, and the
  only tetrahedral group containing a given D_2 frame is the one
  spanned by its body-diagonal 3-folds, so the intersection always
  contains a full T and the class [D_2] is never exact.
* D_n^z column, D_m+Z2c row, m even: [Z_{d_2}] added.  Aligning a
  secondary 2-fold of D_m to e_3 at generic azimuth leaves exactly
  {1, R(e_3, pi)}, a bare [Z_2], whenever n is even.
* D_2n^d column, D_m+Z2c row, m odd: [Z_2] and [Z_2^-] both added
  (the parity-selected gamma(m, n) supplies only one of them).  A
  secondary-to-secondary alignment at generic azimuth isolates
  {1, R(v, pi)}, and a mirror-to-mirror alignment isolates {1, sigma},
  for every parameter pair.
* O(2)^- column, finite rows other than Z_m+Z2c: the bare cyclic
  classes are dropped ([Z_m] for D_m+Z2c; [Z_2] for T+Z2c; [Z_2],
  [Z_3], [Z_4] for O+Z2c; [Z_2], [Z_3], [Z_5] for I+Z2c).  See the
  comment on the cell function: aligning the axial group with a k-fold
  axis that has a perpendicular half-turn always drags reflections in,
  so those intersections are [D_k^z], never bare [Z_k].  The only bare
  cyclic survivors are [Z_m] against Z_m+Z2c (no half-turns off-axis
  at all) and [Z_2] against D_m+Z2c with m odd (half-turn axes spaced
  pi/m have no perpendicular partner, and R(e_3, pi) is missing).

The two infinite rows ([SO(2)+Z2c], [O(2)+Z2c]) are kept exactly as
published for every column, including cells where the membership
oracle disagrees; the disagreements are pinned in the test suite.

clips_type1_type1 is the SO(3) clips table of the finite rotation
groups (Olive & Auffray, *Symmetry classes for even-order tensors*,
2013), with d = gcd(m, n), d_p = gcd(m, p), Z_1 = 1 and D_1 = Z_2;
every cell also holds [1]:

* Z_m x Z_n = {Z_d};  Z_m x D_n = {Z_d, Z_{d_2}}
* Z_m x T = {Z_{d_2}, Z_{d_3}};  Z_m x O adds Z_{d_4};
  Z_m x I = {Z_{d_2}, Z_{d_3}, Z_{d_5}}
* D_m x D_n = {Z_2, Z_d, D_d}, plus D_2 when m and n are both even
* D_m x T = {Z_2, Z_{d_3}};  D_m x O = {Z_2, Z_{d_3}, Z_{d_4}, D_{d_3},
  D_{d_4}};  D_m x I = {Z_2, Z_{d_3}, Z_{d_5}, D_{d_3}, D_{d_5}}; each
  plus D_2 when m is even
* T x T = T x I = {Z_2, Z_3, T};  T x O = {Z_2, Z_3, D_2, T};
  O x O = {Z_2, Z_3, Z_4, D_2, D_3, D_4, O};
  O x I = {Z_2, Z_3, D_2, D_3, T};
  I x I = {Z_2, Z_3, Z_5, D_3, D_5, T, I}

[D_2] is absent from T x T, T x I and I x I for the reason given for
the O^- column above: a shared D_2 frame forces a shared T.  The
brute-force oracle agrees on every pair of {Z_k, D_k : k <= 30} and
T, O, I (tests check k <= 12).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .labels import (
    _BUILDERS,
    _FAMILY_RANK,
    TYPE_III,
    ClassLabel,
    ClassSet,
    _build,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    format_label,
    icosa,
    o2_minus,
    octa,
    octa_minus,
    so2,
    tetra,
    trivial,
    with_z2c,
)

# The table's families by kind tag.  The columns are the type III
# kinds; the rows X+Z2c range over the finite rotation kinds but 1, in
# ``_FAMILY_RANK`` order (the kinds of ``clips_type1_type1``), then SO(2)
# and O(2).
COL_KINDS = tuple(TYPE_III)
FINITE_KINDS = tuple(k for k in _FAMILY_RANK if k != "1" and k not in TYPE_III)
ROW_KINDS = (*FINITE_KINDS, "SO2", "O2")


def zee(n: int) -> ClassLabel:
    """Z_2 for even n, Z_2^- for odd n."""
    return cyclic(2) if n % 2 == 0 else cyclic_minus(2)


def gamma(m: int, n: int) -> tuple[ClassLabel, ...]:
    """Parity-selected order-4 (or order-2) classes.

    {D_2, D_2^z} for m, n both even; {D_2^z} for m even, n odd;
    {Z_2} for m odd, n even; {Z_2^-} for both odd.
    """
    if m % 2 == 0 and n % 2 == 0:
        return (dihedral(2), dihedral_z(2))
    if m % 2 == 0:
        return (dihedral_z(2),)
    if n % 2 == 0:
        return (cyclic(2),)
    return (cyclic_minus(2),)


def ell_octa(n: int) -> tuple[ClassLabel, ...]:
    """Common core of the D_2n^d x O+Z2c cell."""
    d3 = gcd(3, n)
    return (
        trivial(),
        cyclic(2),
        cyclic_minus(2),
        *gamma(n, 3),
        cyclic(d3),
        dihedral(d3),
        dihedral_z(d3),
    )


def _zminus(k: int) -> ClassLabel:
    # degenerate subscript: Z_1^- is just the trivial class
    return trivial() if k == 1 else cyclic_minus(k)


def _cell_zminus(row: ClassLabel, n: int) -> tuple[str, list[ClassLabel]]:
    if row.kind == "Z":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [cyclic_minus(2 * d)]
        return "m/d odd", [cyclic(d)]
    if row.kind == "D":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [cyclic_minus(2 * d), zee(n)]
        return "m/d odd", [cyclic(d), zee(n)]
    if row.kind == "T":
        return "", [cyclic(gcd(3, n)), zee(n)]
    if row.kind == "O":
        if n % 4 == 0:
            return "4|n", [cyclic(2), cyclic(gcd(3, n)), cyclic(4)]
        if n % 2 == 0:
            return "n even, 4 does not divide n", [
                cyclic(2), cyclic(gcd(3, n)), cyclic_minus(4),
            ]
        return "n odd", [cyclic_minus(2), cyclic(gcd(3, n))]
    if row.kind == "I":
        return "", [zee(n), cyclic(gcd(3, n)), cyclic(gcd(5, n))]
    if row.kind == "SO2":
        return "", [cyclic_minus(2 * n)]
    return "", [zee(n), cyclic_minus(2 * n)]


def _cell_dz(row: ClassLabel, n: int) -> tuple[str, list[ClassLabel]]:
    d2 = gcd(2, n)
    if row.kind == "Z":
        m = row.n
        d = gcd(m, n)
        if m % 2 == 0:
            return "m even", [cyclic(d), cyclic_minus(2)]
        return "m odd", [cyclic(d)]
    if row.kind == "D":
        m = row.n
        d = gcd(m, n)
        if m % 2 == 0:
            return "m even", [
                cyclic(d), cyclic(d2), cyclic_minus(2),
                dihedral_z(d2), dihedral_z(d),
            ]
        return "m odd", [
            cyclic(d), cyclic_minus(2), cyclic(d2), dihedral_z(d),
        ]
    if row.kind == "T":
        return "", [
            cyclic_minus(2), cyclic(d2), cyclic(gcd(3, n)), dihedral_z(d2),
        ]
    if row.kind == "O":
        d3, d4 = gcd(3, n), gcd(4, n)
        return "", [
            cyclic(d2), cyclic(d3), cyclic(d4), cyclic_minus(2),
            dihedral_z(d2), dihedral_z(d3), dihedral_z(d4),
        ]
    if row.kind == "I":
        d3, d5 = gcd(3, n), gcd(5, n)
        return "", [
            cyclic(d2), cyclic(d3), cyclic(d5), cyclic_minus(2),
            dihedral_z(d2), dihedral_z(d3), dihedral_z(d5),
        ]
    if row.kind == "SO2":
        return "", [cyclic_minus(2), cyclic(n)]
    return "", [dihedral_z(d2), dihedral_z(n)]


def _cell_dd(row: ClassLabel, n: int) -> tuple[str, list[ClassLabel]]:
    if row.kind == "Z":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [cyclic(2), cyclic_minus(2), cyclic_minus(2 * d)]
        if m % 2 == 0:
            return "m even, m/d odd", [cyclic(2), cyclic_minus(2), cyclic(d)]
        return "m odd", [cyclic(d)]
    if row.kind == "D":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [
                *gamma(m, n), cyclic(2), cyclic_minus(2),
                cyclic_minus(2 * d), dihedral_d(2 * d),
            ]
        if m % 2 == 0:
            return "m even, m/d odd", [
                *gamma(m, n), cyclic(2), cyclic_minus(2),
                cyclic(d), dihedral(d), dihedral_z(d),
            ]
        return "m odd", [
            cyclic(2), cyclic_minus(2), cyclic(d), dihedral(d), dihedral_z(d),
        ]
    if row.kind == "T":
        return "", [
            cyclic(2), cyclic_minus(2), *gamma(2, n), cyclic(gcd(3, n)),
        ]
    if row.kind == "O":
        core = list(ell_octa(n))
        if n % 4 == 0:
            return "4|n", core + [
                dihedral(2), dihedral_z(2), cyclic(4), dihedral(4),
                dihedral_z(4),
            ]
        if n % 2 == 0:
            return "n even, 4 does not divide n", core + [
                dihedral(2), dihedral_z(2), cyclic_minus(4), dihedral_d(4),
            ]
        return "n odd", core + [dihedral_z(2)]
    if row.kind == "I":
        d3, d5 = gcd(3, n), gcd(5, n)
        return "", [
            cyclic(2), cyclic_minus(2),
            *gamma(2, n), *gamma(3, n), *gamma(5, n),
            cyclic(d3), dihedral(d3), dihedral_z(d3),
            cyclic(d5), dihedral(d5), dihedral_z(d5),
        ]
    if row.kind == "SO2":
        return "", [cyclic(2), cyclic_minus(2), cyclic_minus(2 * n)]
    return "", [zee(n), dihedral(gcd(2, n)), dihedral_z(2), dihedral_d(2 * n)]


def _cell_ominus(row: ClassLabel) -> tuple[str, list[ClassLabel]]:
    if row.kind == "Z":
        m = row.n
        if m % 4 == 0:
            return "4|m", [cyclic(gcd(3, m)), cyclic_minus(2), cyclic_minus(4)]
        return "4 does not divide m", [
            cyclic(gcd(2, m)), cyclic(gcd(3, m)), _zminus(gcd(2, m)),
        ]
    if row.kind == "D":
        m = row.n
        d3 = gcd(3, m)
        if m % 4 == 0:
            return "4|m", [
                cyclic(2), cyclic(d3), cyclic_minus(2), cyclic_minus(4),
                dihedral_z(d3), dihedral_z(2), dihedral_d(4),
            ]
        if m % 2 == 0:
            return "m even, 4 does not divide m", [
                cyclic(2), cyclic(d3), cyclic_minus(2),
                dihedral(2), dihedral_z(d3), dihedral_z(2),
            ]
        return "m odd", [
            cyclic(2), cyclic(d3), cyclic_minus(2), dihedral_z(d3),
        ]
    if row.kind == "T":
        return "", [
            cyclic(2), cyclic(3), cyclic_minus(2), dihedral_z(2), tetra(),
        ]
    if row.kind == "O":
        return "", [
            cyclic(2), cyclic(3), cyclic_minus(2), cyclic_minus(4),
            dihedral_z(2), dihedral_z(3), dihedral_d(4), octa_minus(),
        ]
    if row.kind == "I":
        return "", [
            cyclic(2), cyclic_minus(2), dihedral_z(2), cyclic(3),
            dihedral_z(3), tetra(),
        ]
    if row.kind == "SO2":
        return "", [cyclic(3), cyclic_minus(2), cyclic_minus(4)]
    return "", [cyclic_minus(2), dihedral_z(3), dihedral_d(4)]


def _cell_o2minus(row: ClassLabel) -> tuple[str, list[ClassLabel]]:
    # Finite rows follow the membership oracle.  A bare cyclic class
    # [Z_k], k >= 2, would need the axis of the axial group aligned with
    # a k-fold axis w of the rotation part H, but then every half-turn
    # axis of H perpendicular to w contributes a reflection to the
    # intersection, upgrading it to [D_k^z]; only axes with no
    # perpendicular half-turn in H keep a bare cyclic class.
    if row.kind == "Z":
        m = row.n
        return "", [cyclic(m), _zminus(gcd(2, m))]
    if row.kind == "D":
        m = row.n
        if m % 2 == 0:
            return "m even", [cyclic_minus(2), dihedral_z(2), dihedral_z(m)]
        return "m odd", [cyclic(2), cyclic_minus(2), dihedral_z(m)]
    if row.kind == "T":
        return "", [cyclic(3), cyclic_minus(2), dihedral_z(2)]
    if row.kind == "O":
        return "", [
            cyclic_minus(2), dihedral_z(2), dihedral_z(3), dihedral_z(4),
        ]
    if row.kind == "I":
        return "", [
            cyclic_minus(2), dihedral_z(2), dihedral_z(3), dihedral_z(5),
        ]
    if row.kind == "SO2":
        return "", [cyclic_minus(2), so2()]
    return "", [dihedral_z(2), o2_minus()]


def clips_type2_type3(row: ClassLabel, col: ClassLabel) -> tuple[str, ClassSet]:
    """Evaluate one closed-form cell.

    Parameters
    ----------
    row : ClassLabel
        A type II class: X+Z2c with X in {Z_m, D_m, T, O, I, SO(2), O(2)}.
    col : ClassLabel
        A type III class: Z_2n^-, D_n^z, D_2n^d, O^- or O(2)^-.

    Returns
    -------
    (branch, cell) : tuple[str, ClassSet]
        branch names the parameter condition that fired ("" when the
        cell is unconditional); cell always includes the trivial class.
    """
    if not (row.plus and row.kind in ROW_KINDS):
        raise ValueError(f"not a table row class: {format_label(row)}")
    if row.kind in ("Z", "D") and row.n < 2:
        raise ValueError(f"row parameter out of range: {format_label(row)}")
    if col.plus or col.kind not in COL_KINDS:
        raise ValueError(f"not a table column class: {format_label(col)}")
    if col.kind == "Z-":
        branch, cell = _cell_zminus(row, col.n // 2)
    elif col.kind == "Dz":
        branch, cell = _cell_dz(row, col.n)
    elif col.kind == "Dd":
        branch, cell = _cell_dd(row, col.n // 2)
    elif col.kind == "O-":
        branch, cell = _cell_ominus(row)
    else:
        branch, cell = _cell_o2minus(row)
    return branch, ClassSet([trivial(), *cell])


# orders p > 2 of the rotation axes of each polyhedral group; all three
# also have 2-fold axes
_POLY_AXES = {"T": (3,), "O": (3, 4), "I": (3, 5)}
_POLY_POLY = {
    ("T", "T"): (cyclic(2), cyclic(3), tetra()),
    ("T", "O"): (cyclic(2), cyclic(3), dihedral(2), tetra()),
    ("T", "I"): (cyclic(2), cyclic(3), tetra()),
    ("O", "O"): (cyclic(2), cyclic(3), cyclic(4), dihedral(2), dihedral(3),
                 dihedral(4), octa()),
    ("O", "I"): (cyclic(2), cyclic(3), dihedral(2), dihedral(3), tetra()),
    ("I", "I"): (cyclic(2), cyclic(3), cyclic(5), dihedral(3), dihedral(5),
                 tetra(), icosa()),
}


def clips_type1_type1(a: ClassLabel,
                      b: ClassLabel) -> tuple[str, ClassSet]:
    """Evaluate one finite rotation x rotation cell.

    Parameters
    ----------
    a, b : ClassLabel
        Finite rotation classes Z_m, D_m (m >= 2), T, O or I, in either
        order.  Below, m belongs to the Z or D side, the Z side when
        both are parametric.

    Returns
    -------
    (branch, cell) : tuple[str, ClassSet]
        branch names the parity condition that fired ("" when the cell
        is unconditional); cell always includes the trivial class.

    Every intersection K = H1 ∩ g H2 g^T is a rotation group inside
    both, and a rotation axis of K is an axis of each side, of an order
    dividing both orders.  With d = gcd(m, n) and d_p = gcd(m, p):

    * Z_m against anything: K is cyclic about the axis of Z_m.  Laid on
      a p-fold axis of the other side (D_n: n and 2; T: 2, 3; O: 2, 3, 4;
      I: 2, 3, 5) it is Z_{gcd(m, p)}, and 1 off every axis.
    * D_m x D_n, "m, n even" or "m or n odd": a 2-fold of each
      aligned at a generic spin gives Z_2.  Principal axes aligned give
      Z_d at a generic spin; turning one 2-fold axis of each onto the
      other makes d of them coincide modulo pi, which gives D_d.  When m
      and n are both even each side holds a D_2 frame (its principal
      axis and two perpendicular 2-folds); aligning the frames with the
      principal axes apart gives D_2 exactly, a class that is not
      otherwise among them once d > 2.
    * D_m x T, O or I, "m even" or "m odd": a shared 2-fold gives Z_2.
      The principal axis on a p-fold axis, p > 2, gives Z_{d_p}; in O
      and I every such axis has p perpendicular 2-folds spaced pi/p, so
      a spin that puts a 2-fold of D_m on one of them gives D_{d_p}.  T
      has no 2-fold perpendicular to a 3-fold, so there K stays Z_{d_3}.
      For m even, aligning a D_2 frame of D_m with one of the other
      side gives D_2.
    * T, O, I against each other: the classes are the common subgroup
      classes that occur exactly.  [D_2] is missing from T x T, T x I
      and I x I: every D_2 frame of T or I lies in the one T its
      body-diagonal 3-folds span, which both sides then contain.  O
      also holds frames of one 4-fold and two 2-fold axes, which lie in
      no T of O, so T x O, O x O and O x I keep [D_2].  [T] is missing
      from O x O because O is the only octahedral group holding its T,
      and [O], [I] occur only against themselves.
    """
    for lab in (a, b):
        if (lab.plus or lab.kind not in FINITE_KINDS
                or (lab.kind in ("Z", "D") and lab.n < 2)):
            raise ValueError(f"not a finite rotation class: "
                             f"{format_label(lab)}")
    x, y = sorted((a, b), key=lambda lab: _FAMILY_RANK[lab.kind])
    branch, cell = _cell_type1(x, y)
    return branch, ClassSet([trivial(), *cell])


def _axis_orders(lab: ClassLabel) -> tuple[int, ...]:
    # orders of the rotation axes of a finite rotation class
    if lab.kind == "Z":
        return (lab.n,)
    if lab.kind == "D":
        return (lab.n, 2)
    return (2, *_POLY_AXES[lab.kind])


def _cell_type1(x: ClassLabel, y: ClassLabel) -> tuple[str, list[ClassLabel]]:
    if x.kind not in ("Z", "D"):
        return "", list(_POLY_POLY[x.kind, y.kind])
    m = x.n
    if x.kind == "Z":
        return "", [cyclic(gcd(m, p)) for p in _axis_orders(y)]
    if y.kind == "D":
        n = y.n
        d = gcd(m, n)
        if m % 2 == 0 and n % 2 == 0:
            return "m, n even", [cyclic(2), cyclic(d), dihedral(d),
                                 dihedral(2)]
        return "m or n odd", [cyclic(2), cyclic(d), dihedral(d)]
    high = _POLY_AXES[y.kind]
    cell = [cyclic(2), *(cyclic(gcd(m, p)) for p in high)]
    if y.kind != "T":
        cell += [dihedral(gcd(m, p)) for p in high]
    if m % 2 == 0:
        return "m even", cell + [dihedral(2)]
    return "m odd", cell


def _families(kinds: Sequence[str], params: range) -> list[ClassLabel]:
    out = []
    for kind in kinds:
        if kind not in _BUILDERS:
            out.append(_build(kind, 0))
        elif kind in ("Z-", "Dd"):  # Z_2p^- and D_2p^d
            out += [_build(kind, 2 * p) for p in params if p >= 1]
        else:
            out += [_build(kind, p) for p in params if p >= 2]
    return out


def table_rows(kinds: Sequence[str], m_range: range) -> list[ClassLabel]:
    """The table's rows X+Z2c of the families ``kinds`` (tags of
    ``ROW_KINDS``) in that order, Z_m and D_m over the m >= 2 of
    ``m_range``."""
    return [with_z2c(x) for x in _families(kinds, m_range)]


def table_cols(kinds: Sequence[str], n_range: range) -> list[ClassLabel]:
    """The table's columns of the families ``kinds`` (tags of
    ``COL_KINDS``) in that order, Z_2n^- and D_2n^d over the n >= 1 of
    ``n_range``, D_n^z over its n >= 2."""
    return _families(kinds, n_range)
