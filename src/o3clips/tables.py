"""Closed-form clips cells of finite pairs, and the table of type II row
against type III column.

Every finite cell with a Z or D side comes from one rule,
``_signed_rule``: read each class as its envelope K with a sign chi on
K, put the principal axis of the Z or D side on each signed axis of the
other side, and name what the shared axes keep.  A rotation group takes
every sign +1, a type III class the signs of ``labels.TYPE_III``, and a
type II class X+Z2c is its rotation part X, whose -Id lets the type III
side's sign through.  The rule answers

* type I x type I: Z_m or D_m against Z_n, D_n, T, O or I, the SO(3)
  cells of Olive & Auffray (*Symmetry classes for even-order tensors*,
  2013);
* type II x type III: the rows [Z_m+Z2c], [D_m+Z2c], [T+Z2c], [O+Z2c],
  [I+Z2c] against the columns [Z_2n^-], [D_n^z], [D_2n^d], and the rows
  [Z_m+Z2c], [D_m+Z2c] against [O^-];
* type III x type III: Z_2n^-, D_n^z, D_2n^d and O^- against each
  other, but for O^- x O^-.

The rest is data, each with its reason where it is defined:

* ``_POLY_POLY``: the cells with no Z or D side, that is T, O and I
  against each other, [T+Z2c], [O+Z2c] and [I+Z2c] against [O^-], and
  O^- x O^-;
* ``_printed``: the rows [SO(2)+Z2c] and [O(2)+Z2c], as published
  (the tests pin where the axial membership oracle disagrees), and the
  column [O(2)^-].

Four cell families of the table differ from their usual published form,
and the brute-force oracles (tests) agree with the versions here.  Two
are consequences of the rule:

* D_n^z column, D_m+Z2c row, m even: [Z_{d_2}] added, d_2 = gcd(2, n).
  It is the principal axis of D_n^z on a secondary line of D_m at a
  generic spin: M = Z_{d_2}, whose half-turn R(e_3, pi) has the sign +1.
* D_2n^d column, D_m+Z2c row, m odd: [Z_2] and [Z_2^-] both added.  A
  secondary line of D_m lies on a secondary line of either orbit of
  D_2n^d, whose half-turns carry the signs +1 and -1.

The other two are data: [D_2] dropped from T+Z2c and I+Z2c against O^-
(``_POLY_POLY``), and the bare cyclic classes dropped from the O(2)^-
column (``_printed``).
"""

from __future__ import annotations

from functools import cache
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

# The cells with no Z or D side, by kinds in ``_FAMILY_RANK`` order; a
# type II row enters by its rotation part.  Each lists the common
# subgroup classes that occur exactly.
#
# * T, O, I: [D_2] is missing from T x T, T x I and I x I, since every
#   D_2 frame of T or I lies in the one T its body-diagonal 3-folds
#   span, which both sides then contain.  O also holds frames of one
#   4-fold and two 2-fold axes, which lie in no T of O, so T x O, O x O
#   and O x I keep [D_2].  [T] is missing from O x O because O is the
#   only octahedral group holding its T, and [O], [I] occur only against
#   themselves.
# * T+Z2c, O+Z2c, I+Z2c against O^-: the intersection is chi of O^- over
#   M = X ∩ g O g^T, with chi +1 on T and -1 off it.  [D_2] is dropped
#   from the T and I rows for the reason above: the only D_2 frame of O
#   inside its T is the coordinate frame, and that frame in X forces
#   all of T into M.  An edge frame gives [D_2^z].
# * O^- x O^- (the count of ``_signed_rule`` fails here: aligning the
#   two 4-fold frames makes M all of O, not the D_4 about one axis).  M
#   runs over the classes of the O x O cell, and the intersection is
#   chi over the part E of M where both signs agree:
#   - M = Z_2: two edges give [Z_2^-]; a 4-fold axis on an edge gives
#     [1]; two 4-fold axes share a Z_4, never just Z_2.
#   - M = Z_3 gives [Z_3]; M = Z_4 has -1 on both quarter-turns and
#     gives [Z_4^-].
#   - M = D_2: each frame is an edge frame with its 4-fold axis on an
#     edge of the other, since two 4-fold axes on each other share a Z_4
#     and a coordinate frame is kept by O alone.  Only the third axis,
#     an edge on an edge, lies in E: [Z_2^-].
#   - M = D_3: a 3-fold axis and its edges aligned at the spin pi/3 (the
#     spin 0 puts g in O) give [D_3^z].
#   - M = D_4: two 4-fold axes at the spin pi/4 put each 4-fold
#     half-turn of one side on an edge of the other, so E = Z_4: [Z_4^-].
#   - M = O, for g in O, gives [O^-].
_POLY_POLY = {kinds: ClassSet([trivial(), *cell]) for kinds, cell in {
    ("T", "T"): (cyclic(2), cyclic(3), tetra()),
    ("T", "O"): (cyclic(2), cyclic(3), dihedral(2), tetra()),
    ("T", "I"): (cyclic(2), cyclic(3), tetra()),
    ("O", "O"): (cyclic(2), cyclic(3), cyclic(4), dihedral(2), dihedral(3),
                 dihedral(4), octa()),
    ("O", "I"): (cyclic(2), cyclic(3), dihedral(2), dihedral(3), tetra()),
    ("I", "I"): (cyclic(2), cyclic(3), cyclic(5), dihedral(3), dihedral(5),
                 tetra(), icosa()),
    ("T", "O-"): (cyclic(2), cyclic(3), cyclic_minus(2), dihedral_z(2),
                  tetra()),
    ("O", "O-"): (cyclic(2), cyclic(3), cyclic_minus(2), cyclic_minus(4),
                  dihedral_z(2), dihedral_z(3), dihedral_d(4), octa_minus()),
    ("I", "O-"): (cyclic(2), cyclic_minus(2), dihedral_z(2), cyclic(3),
                  dihedral_z(3), tetra()),
    ("O-", "O-"): (cyclic_minus(2), cyclic(3), cyclic_minus(4),
                   dihedral_z(3), octa_minus()),
}.items()}

# The signed axes (``_signed_rule``) of the classes without a Z or D
# envelope, one entry (p, alpha, beta) per axis orbit.  The rotation
# groups take every sign +1; only the 3-fold axes of T have no
# perpendicular half-turn.  O^- has the orbits of O: the 4-fold axes
# (the quarter-turns lie outside T, the half-turn about a perpendicular
# 4-fold axis inside), the 3-fold axes (their turns lie in T, the
# perpendicular edge half-turns outside) and the edge 2-fold axes
# (outside T, with the perpendicular 4-fold axis inside).
_POLYHEDRAL_AXES = {
    "T": ((2, 1, 1), (3, 1, None)),
    "O": ((4, 1, 1), (3, 1, 1), (2, 1, 1)),
    "I": ((5, 1, 1), (3, 1, 1), (2, 1, 1)),
    "O-": ((4, -1, 1), (3, 1, -1), (2, -1, 1)),
}

# the signs on the cyclic factors of each finite kind with a Z or D
# envelope: +1 for the rotation groups, and the rows of ``TYPE_III``;
# read backwards, the kind of Z_e or D_e under given signs
_SIGNS = {"Z": (1,), "D": (1, 1),
          **{kind: signs for kind, (*_, signs) in TYPE_III.items()}}
_KIND_OF_SIGNS = {signs: kind for kind, signs in _SIGNS.items()}


def _check(lab: ClassLabel, kinds: Sequence[str], what: str,
           plus: bool = False) -> None:
    if (lab.plus != plus or lab.kind not in kinds
            or (lab.kind in ("Z", "D") and lab.n < 2)):
        raise ValueError(f"not a {what}: {format_label(lab)}")


def clips_type2_type3(row: ClassLabel, col: ClassLabel) -> ClassSet:
    """Evaluate one cell of the type II x type III table.

    Parameters
    ----------
    row : ClassLabel
        A type II class: X+Z2c with X in {Z_m, D_m, T, O, I, SO(2), O(2)}.
    col : ClassLabel
        A type III class: Z_2n^-, D_n^z, D_2n^d, O^- or O(2)^-.

    Returns
    -------
    ClassSet
        The cell; it always includes the trivial class.  The finite rows
        and columns come from ``_signed_rule`` but for the polyhedral
        cells of ``_POLY_POLY``, the rest from ``_printed``.
    """
    _check(row, ROW_KINDS, "table row class", plus=True)
    _check(col, COL_KINDS, "table column class")
    if row.kind in ("SO2", "O2") or col.kind == "O2-":
        return ClassSet([trivial(), *_printed(row, col)])
    # the signed axes of X+Z2c are those of X
    return _finite_cell(row, col, 1)


def clips_type1_type1(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """Evaluate one finite rotation x rotation cell.

    Parameters
    ----------
    a, b : ClassLabel
        Finite rotation classes Z_m, D_m (m >= 2), T, O or I, in either
        order.

    Returns
    -------
    ClassSet
        The cell; it always includes the trivial class.  It comes from
        ``_signed_rule``, whose docstring lists the cells, or from
        ``_POLY_POLY`` when neither side is Z or D.
    """
    for lab in (a, b):
        _check(lab, FINITE_KINDS, "finite rotation class")
    return _finite_cell(a, b, None)


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
        The cell; it always includes the trivial class.  It comes from
        ``_signed_rule``, or from ``_POLY_POLY`` for O^- x O^-.
    """
    for lab in (a, b):
        _check(lab, ("Z-", "Dz", "Dd", "O-"), "finite type III class")
    return _finite_cell(a, b, None)


def _finite_cell(a: ClassLabel, b: ClassLabel, only: int | None) -> ClassSet:
    if a.kind in _POLYHEDRAL_AXES and b.kind in _POLYHEDRAL_AXES:
        return _POLY_POLY[tuple(sorted((a.kind, b.kind),
                                       key=_FAMILY_RANK.__getitem__))]
    return _signed_rule(a, b, only)


def _signed_rule(a: ClassLabel, b: ClassLabel, only: int | None) -> ClassSet:
    """The cell of a finite pair with a Z or D side, from signed axes.

    A class H is its envelope K with a character chi on K: H = {chi(k) k}.
    A rotation group is its own envelope with chi = +1, and a type III
    class has the envelope and signs of ``labels.TYPE_III``.  An element
    chi1(k) k of H1 lies in g H2 g^T exactly when k lies in
    M = K1 ∩ g K2 g^T and chi1(k) = chi2(k), since the determinant reads
    the sign.  So H1 ∩ g H2 g^T is chi1 over E = ker(chi1 chi2) inside
    M, the class of envelope E and kernel ker chi1 ∩ E (``_meet``); for
    two rotation groups it is M.  A type II class X+Z2c enters as a = X
    with ``only`` = 1: it holds -Id, so every chi2(k) k with k in M lies
    in it, and the intersection is chi2 over all of M.

    K enters through its signed axes (``_signed_axes``): per orbit of
    rotation axes w, the order p, the sign alpha of the generator
    R(w, 2 pi/p), and the sign beta of a reference perpendicular
    half-turn, the j-th one after it having beta alpha^j, or None when w
    has no perpendicular half-turn.  A Z_n or D_n envelope with signs
    (a, b) on the principal generator and on R(e1, pi) has the principal
    axis (n, a, b); the secondary lines S_j of D_n have the half-turn
    sign b a^j, so they fall in two orbits j in {0, 1}, each with the
    principal half-turn a^(n/2) as its perpendicular reference when n is
    even.  T, O, I and O^- list their axis orbits (``_POLYHEDRAL_AXES``).

    Let K2 be a Z_n or D_n envelope with signs (a2, b2) and principal
    axis w.  Every element of K2 keeps the line w, so if M holds a
    rotation about w, then w lies on some axis of K1, of order p, and M
    sits in the stabilizer of that line: with e = gcd(p, n), M is Z_e
    (a generic spin) or, when both sides have perpendicular half-turns
    and one pair of them is aligned, D_e, e of them then coinciding
    modulo pi.  The generator of M has the signs (alpha^(p/e),
    a2^(n/e)), and the aligned half-turn (beta alpha^j, b2 a2^k) for any
    j, k in {0, 1}.  Otherwise M holds no rotation about w, so it holds
    at most one secondary half-turn of K2, the product of two being such
    a rotation: M is 1 (a generic g) or Z_2, one half-turn of K1 (the
    half-turn alpha^(p/2) of an axis of even order p) on a secondary
    line of K2 at a generic spin about it.  Every configuration named
    here occurs, and each names M exactly, so the cell is the union of
    their classes.

    With every sign +1 these are the SO(3) cells of Olive & Auffray,
    with d = gcd(m, n), d_p = gcd(m, p), Z_1 = 1 and D_1 = Z_2, each also
    holding [1]:

    * Z_m x Z_n = {Z_d};  Z_m x D_n = {Z_d, Z_{d_2}};
      Z_m x T = {Z_{d_2}, Z_{d_3}};  Z_m x O adds Z_{d_4};
      Z_m x I = {Z_{d_2}, Z_{d_3}, Z_{d_5}}
    * D_m x D_n = {Z_2, Z_d, D_d}, plus D_2 when m and n are both even:
      each principal axis on a secondary line of the other side
    * D_m x T = {Z_2, Z_{d_3}}, since no half-turn of T is perpendicular
      to a 3-fold axis;  D_m x O = {Z_2, Z_{d_3}, Z_{d_4}, D_{d_3},
      D_{d_4}};  D_m x I = {Z_2, Z_{d_3}, Z_{d_5}, D_{d_3}, D_{d_5}};
      each plus D_2 when m is even
    """
    swap = b.kind in _POLYHEDRAL_AXES
    x, y = (b, a) if swap else (a, b)
    if only is not None and swap:
        only = 1 - only
    n, a2, half2, _ = _signed_axes(y)[0]
    axes = []
    for p, alpha, half1, h in _signed_axes(x):
        e = gcd(p, n)
        axes.append((e, alpha ** (p // e), a2 ** (n // e), half1, h))
    return _cell(tuple(axes), half2, only)


@cache
def _cell(axes: tuple, half2: tuple[int, ...], only: int | None) -> ClassSet:
    # The union of ``_signed_rule``'s configurations, one entry of axes
    # per axis orbit of x: (e, the generator's signs on each side, the
    # signs of the perpendicular half-turns of x, the sign of x's
    # half-turn or None); half2 holds the signs of y's secondary lines.
    # The key is this signature, not the pair, so the memo stays small.
    def name(e, s1, s2):
        return _meet(e, s1, s2) if only is None else \
            _signed_class(e, (s1, s2)[only])

    cell = [trivial()]
    for e, rho1, rho2, half1, h in axes:
        cell.append(name(e, (rho1,), (rho2,)))
        cell += [name(e, (rho1, s1), (rho2, s2))
                 for s1 in half1 for s2 in half2]
        if h is not None:
            cell += [name(2, (h,), (s2,)) for s2 in half2]
    return ClassSet(cell)


@cache
def _signed_axes(lab: ClassLabel) -> tuple[tuple, ...]:
    # per axis orbit of a finite class's envelope: the order p, the
    # generator sign alpha, the signs (beta, beta alpha) of the
    # perpendicular half-turns or (), and the half-turn sign alpha^(p/2)
    # or None for odd p; orbits with equal entries give equal
    # configurations, so one of them is kept
    if lab.kind in _POLYHEDRAL_AXES:
        axes = _POLYHEDRAL_AXES[lab.kind]
    else:
        n, (a, *rest) = lab.n, _SIGNS[lab.kind]
        axes = ((n, a, rest[0] if rest else None),)
        if rest:
            perp = a ** (n // 2) if n % 2 == 0 else None
            axes += ((2, rest[0], perp), (2, rest[0] * a, perp))
    return tuple(dict.fromkeys(
        (p, alpha, () if beta is None else (beta, beta * alpha),
         alpha ** (p // 2) if p % 2 == 0 else None)
        for p, alpha, beta in axes))


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


# the O(2)^- column's cells of the rows without a parameter (``_printed``)
_O2MINUS_FIXED_ROWS = {
    "T": [cyclic(3), cyclic_minus(2), dihedral_z(2)],
    "O": [cyclic_minus(2), dihedral_z(2), dihedral_z(3), dihedral_z(4)],
    "I": [cyclic_minus(2), dihedral_z(2), dihedral_z(3), dihedral_z(5)],
    "SO2": [cyclic_minus(2), so2()],
    "O2": [dihedral_z(2), o2_minus()],
}


def _printed(row: ClassLabel, col: ClassLabel) -> list[ClassLabel]:
    # The rows SO(2)+Z2c and O(2)+Z2c and the column O(2)^- as published,
    # but for the finite rows of the column, which follow the membership
    # oracle.  A bare cyclic class [Z_k], k >= 2, would need the axis of
    # the axial group aligned with a k-fold axis w of the rotation part
    # H, but then every half-turn axis of H perpendicular to w
    # contributes a reflection to the intersection, upgrading it to
    # [D_k^z]; only axes with no perpendicular half-turn in H keep a bare
    # cyclic class: the axis of Z_m, a secondary line of D_m for m odd,
    # and a 3-fold axis of T.
    kind, m, n = row.kind, row.n, col.n
    if col.kind == "O2-":
        if kind == "Z":
            return [cyclic(m), *([cyclic_minus(2)] if m % 2 == 0 else [])]
        if kind == "D":
            return [cyclic_minus(2), dihedral_z(m),
                    dihedral_z(2) if m % 2 == 0 else cyclic(2)]
        return _O2MINUS_FIXED_ROWS[kind]
    around = kind == "SO2"
    if col.kind == "O-":
        return ([cyclic(3), cyclic_minus(2), cyclic_minus(4)] if around
                else [cyclic_minus(2), dihedral_z(3), dihedral_d(4)])
    if col.kind == "Dz":
        return ([cyclic_minus(2), cyclic(n)] if around
                else [dihedral_z(gcd(2, n)), col])
    # Z_2n^- and D_2n^d; the O(2)+Z2c row's Z_2 is Z_2^- for odd n
    z2 = cyclic(2) if n % 4 == 0 else cyclic_minus(2)
    if col.kind == "Z-":
        return [col] if around else [z2, col]
    return ([cyclic(2), cyclic_minus(2), cyclic_minus(n)] if around
            else [z2, dihedral(gcd(2, n // 2)), dihedral_z(2), col])


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
