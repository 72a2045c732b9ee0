"""Closed-form clips cells: type II row against type III column, finite
rotation group against finite rotation group, and finite type III
against finite type III.

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

clips_type3_type3 evaluates a finite type III x type III cell from
signed axes, with no table of its own.  A type III class is its
envelope K with a sign chi on K (``labels.TYPE_III``), and H1 ∩ g H2 g^T
is chi1 over the part of M = K1 ∩ g K2 g^T where chi1 = chi2.  For Z
and D envelopes M is one of:

1. 1, at a generic g;
2. Z_d, d = gcd(n1, n2), principal axis on principal axis at a
   generic spin, the generator at the signs (a1^(n1/d), a2^(n2/d));
3. D_d when both sides are D and a secondary of each is aligned too,
   the half-turn at (b1 a1^j, b2 a2^k) for j, k in {0, 1};
4. Z_gcd(n, 2), a principal axis on a secondary line of the other side;
5. D_2, both principal axes on secondary lines of the other side, when
   both n are even;
6. Z_2, a secondary line on a secondary line.

Z_e yields [Z_e] or [Z_e^-], D_e yields [D_e], [D_e^z] or [D_e^d], or
the halves when chi1 and chi2 differ.  The function reaches cases 2
to 5 by putting the principal axis of one side on each axis orbit of
the other, and cases 4 and 6 by putting a secondary line of the one
side on each half-turn of the other.  O^- enters through its three
axis orbits, and O^- x O^- is one fixed cell; the function's docstring
gives both arguments.  The oracle agrees on every ordered pair of
Z_2k^- (k <= 30), D_n^z (n <= 60), D_2k^d (2 <= k <= 30) and O^-
(tests check the 23 classes of order at most 24 and pairs near the
order cap).
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


# The signed axes of O^-, one entry (p, alpha, beta) per axis orbit of
# O, as ``_signed_axes`` gives them for the Z and D envelopes: the
# 4-fold axes (the 90-degree turns lie outside T, the half-turn about a
# perpendicular 4-fold axis inside), the 3-fold axes (their turns lie in
# T, the perpendicular edge half-turns outside) and the edge 2-fold
# axes (outside T, with the perpendicular 4-fold axis inside).
_OMINUS_AXES = ((4, -1, 1), (3, 1, -1), (2, -1, 1))
_OMINUS_OMINUS = (cyclic_minus(2), cyclic(3), cyclic_minus(4),
                  dihedral_z(3), octa_minus())

# the kind of Z_e or D_e under the signs on its cyclic factors: the
# rotation groups, and the rows of ``TYPE_III``
_KIND_OF_SIGNS = {(1,): "Z", (1, 1): "D",
                  **{signs: kind for kind, (*_, signs) in TYPE_III.items()}}


def clips_type3_type3(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """Evaluate one finite type III x type III cell.

    Parameters
    ----------
    a, b : ClassLabel
        Finite type III classes Z_2n^-, D_n^z, D_2n^d or O^-, in either
        order.

    Returns
    -------
    ClassSet
        The cell; it always includes the trivial class.

    A type III class H is its envelope K with the character chi that is
    -1 on K minus the kernel L (``labels.TYPE_III``): H = {chi(k) k}.
    An element chi1(k) k of H1 lies in g H2 g^T exactly when k lies in
    M = K1 ∩ g K2 g^T and chi1(k) = chi2(k), since the determinant
    reads the sign.  So H1 ∩ g H2 g^T is chi1 over E = ker(chi1 chi2)
    inside M, the class of envelope E and kernel ker chi1 ∩ E
    (``_meet``).

    K enters through its signed axes (``_signed_axes``): per orbit of
    rotation axes w, the order p, the sign alpha of the generator
    R(w, 2 pi/p), and the sign beta of a reference perpendicular
    half-turn, the j-th one after it having beta alpha^j.
    For the Z_n and D_n envelopes these come from the signs (a, b) of
    ``TYPE_III`` on the principal generator and on R(e1, pi): the
    principal axis is (n, a, b), and the secondary lines S_j have the
    half-turn sign b a^j, so they fall in two orbits j in {0, 1}, each
    with the principal half-turn a^(n/2) as its perpendicular reference
    when n is even.  O^- has one entry per axis orbit of O
    (``_OMINUS_AXES``).

    Let K2 be a Z_n or D_n envelope with signs (a2, b2) and principal
    axis w.  Every element of K2 keeps the line w, so if M holds a
    rotation about w, then w lies on some axis of K1, of order p, and M
    sits in the stabilizer of that line: with e = gcd(p, n), M is Z_e
    (a generic spin) or, when both sides have perpendicular half-turns
    and one pair of them is aligned, D_e.  The generator of M has the
    signs (alpha^(p/e), a2^(n/e)), and the aligned half-turn
    (beta alpha^j, b2 a2^k) for any j, k in {0, 1}.  Otherwise M holds
    no rotation about w, so it holds at most one secondary half-turn of
    K2, the product of two being such a rotation: M is 1 (a generic g)
    or Z_2, one half-turn of K1 (the half-turn alpha^(p/2) of an axis
    of even order p) on a secondary line of K2 at a generic spin about
    it.  Every configuration named here occurs, and each names M
    exactly, so the cell is the union of their classes.

    O^- x O^- is the one cell with no Z or D side, and the count above
    does not hold there: aligning the two 4-fold frames makes M all of
    O, not the D_4 about one axis.  There chi is +1 on T (the 3-fold
    turns and the half-turns about 4-fold axes) and -1 on the
    quarter-turns and the edge half-turns, and M runs over the classes
    of the O x O cell:

    * M = Z_2: two edges give [Z_2^-]; a 4-fold axis on an edge gives
      [1]; two 4-fold axes share a Z_4, never just Z_2.
    * M = Z_3 gives [Z_3]; M = Z_4 has -1 on both quarter-turns and
      gives [Z_4^-].
    * M = D_2: each frame is an edge frame (one 4-fold axis, two edges)
      with its 4-fold axis on an edge of the other, since two 4-fold
      axes on each other share a Z_4 and a coordinate frame is kept by
      O alone.  Only the third axis, an edge on an edge, lies in E:
      [Z_2^-].
    * M = D_3: a 3-fold axis and its edges aligned at the spin pi/3
      (the spin 0 puts g in O) give [D_3^z].
    * M = D_4: two 4-fold axes at the spin pi/4 put each 4-fold
      half-turn of one side on an edge of the other, so E = Z_4:
      [Z_4^-].
    * M = O, for g in O, gives [O^-]; with M = 1 the cell is
      {1, Z_2^-, Z_3, Z_4^-, D_3^z, O^-}.
    """
    for lab in (a, b):
        if lab.plus or lab.kind not in TYPE_III or lab.kind == "O2-":
            raise ValueError(f"not a finite type III class: "
                             f"{format_label(lab)}")
    if a.kind == b.kind == "O-":
        return ClassSet([trivial(), *_OMINUS_OMINUS])
    # y has a Z or D envelope; its principal axis meets the axes of x
    x, y = (a, b) if a.kind == "O-" else (b, a)
    (n, a2, b2), *_ = _signed_axes(y)
    cell = [trivial()]
    for p, alpha, beta in _signed_axes(x):
        e = gcd(p, n)
        rho1, rho2 = alpha ** (p // e), a2 ** (n // e)
        cell.append(_meet(e, (rho1,), (rho2,)))
        if b2 is None:
            continue
        if beta is not None:
            cell += [_meet(e, (rho1, beta * alpha ** j), (rho2, b2 * a2 ** k))
                     for j in (0, 1) for k in (0, 1)]
        if p % 2 == 0:
            cell += [_meet(2, (alpha ** (p // 2),), (b2 * a2 ** k,))
                     for k in (0, 1)]
    return ClassSet(cell)


def _signed_axes(lab: ClassLabel) -> tuple[tuple[int, int, int | None], ...]:
    # (order, generator sign, reference perpendicular half-turn sign or
    # None) per axis orbit of a finite type III class's envelope
    if lab.kind == "O-":
        return _OMINUS_AXES
    n, (a, *rest) = lab.n, TYPE_III[lab.kind][3]
    if not rest:
        return ((n, a, None),)
    b = rest[0]
    perp = a ** (n // 2) if n % 2 == 0 else None
    return ((n, a, b), (2, b, perp), (2, b * a, perp))


def _meet(e: int, x: tuple[int, ...], y: tuple[int, ...]) -> ClassLabel:
    # The class of chi1 over ker(chi1 chi2) in M = Z_e, or D_e when x and
    # y also hold a half-turn sigma: x and y are chi1 and chi2 on the
    # generator rho and on sigma.  When they differ on rho, the kernel
    # keeps rho^2 and the half-turns rho^j sigma of one parity of j.
    if x[0] == y[0]:
        return _signed_class(e, x if x[1:] == y[1:] else x[:1])
    if len(x) == 1:
        return cyclic(e // 2)
    j = 0 if x[1] == y[1] else 1
    return _signed_class(e // 2, (1, x[1] * x[0] ** j))


def _signed_class(e: int, signs: tuple[int, ...]) -> ClassLabel:
    # the class {chi(k) k} of Z_e or D_e under the signs chi on its
    # cyclic factors; with rho at -1 a D_e^d may take either half-turn
    # orbit as its reference, and the table's is the one at +1
    if signs == (-1, -1):
        signs = (-1, 1)
    return _build(_KIND_OF_SIGNS[signs], e)


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
