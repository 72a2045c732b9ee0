"""Closed-form clips cells of every pair the reductions leave, and the
table of type II row against type III column.

``cell`` answers every pair that ``infinite.normalize`` returns, a type
I x I, II x III or III x III pair in either order: the absorbers 1 and
SO(3), with their lifts, and the published row [O(2)+Z2c], which is the
rule less ``_omitted``, then the data cells, and otherwise the rule.  No
cell is memoized here: ``cell`` runs only on a miss of the two memo
stores, of finished answers, that ``infinite.clips_reduce`` keeps in
front of it, and ``infinite.clips_type2_type3`` answers a checked table
row and column through those stores.

Every cell with a Z, D or axial side comes from one rule,
``_signed_rule``: read each class as its envelope K with a sign chi on
K, put the principal axis of the Z, D or axial side on each signed axis
of the other side, and name what the shared axes keep.  Each label
carries its signed axes (``ClassLabel.axes``), built once in ``labels``:
a rotation group takes every sign +1, a type III class the signs of
``labels.TYPE_III``, and a type II class X+Z2c is its rotation part X,
whose -Id lets the other side's sign through.  SO(2), O(2) and O(2)^-
are the Z or D envelopes of order infinity, written n = 0 so that
gcd(p, 0) = p.  With x the side whose axes are read and y the Z, D or
axial side of order n, the cell reads n only through gcd(2p, n) for each
axis order p of x, which is what lets ``infinite.clips_reduce`` key its
memo by gcd(n, 2L), L the lcm of x's axis orders (``ClassLabel.period``).
The rule answers

* type I x type I: Z_m or D_m against Z_n, D_n, T, O or I, the SO(3)
  cells of Olive & Auffray (*Symmetry classes for even-order tensors*,
  2013), and SO(2) or O(2) against every finite rotation class;
* type II x type III: every row [X+Z2c] against every column but for
  the cells below;
* type III x type III: Z_2n^-, D_n^z, D_2n^d, O^- and O(2)^- against each
  other, but for O^- x O^- and O(2)^- x O(2)^-.

The rest is data, each with its reason where it is defined:

* ``_POLY_POLY``: the cells with no Z, D or axial side, that is T, O and
  I against each other, [T+Z2c], [O+Z2c] and [I+Z2c] against [O^-], and
  O^- x O^-;
* ``_AXIAL_AXIAL``: the six cells with an axial class on both sides;
* ``_omitted``: the classes that the published row [O(2)+Z2c] leaves
  out of the rule's cell against a finite column (the tests pin where
  the rule and the axial membership oracle disagree with it).

Four cell families of the table differ from their usual published form,
and the brute-force oracles (tests) agree with the versions here.  Three
are consequences of the rule:

* D_n^z column, D_m+Z2c row, m even: [Z_{d_2}] added, d_2 = gcd(2, n).
  It is the principal axis of D_n^z on a secondary line of D_m at a
  generic spin: M = Z_{d_2}, whose half-turn R(e_3, pi) has the sign +1.
* D_2n^d column, D_m+Z2c row, m odd: [Z_2] and [Z_2^-] both added.  A
  secondary line of D_m lies on a secondary line of either orbit of
  D_2n^d, whose half-turns carry the signs +1 and -1.
* O(2)^- column: the bare cyclic classes dropped from the rows whose
  axes have perpendicular half-turns, since O(2)^- holds every half-turn
  perpendicular to its axis.

The fourth is data: [D_2] dropped from T+Z2c and I+Z2c against O^-
(``_POLY_POLY``).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .labels import (
    _FAMILY_RANK,
    _PARAMETRIC_FORMS,
    _POLYHEDRAL_AXES,
    _SIGNS,
    INFINITE_KINDS,
    TYPE_III,
    ClassLabel,
    ClassSet,
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
    so2,
    tetra,
    trivial,
    with_z2c,
)

# The table's families by kind tag.  The columns are the type III
# kinds; the rows X+Z2c range over the finite rotation kinds but 1, in
# ``_FAMILY_RANK`` order, then SO(2) and O(2).
COL_KINDS = tuple(TYPE_III)
FINITE_KINDS = tuple(k for k in _FAMILY_RANK if k != "1" and k not in TYPE_III)
ROW_KINDS = (*FINITE_KINDS, "SO2", "O2")

# The cells with no Z, D or axial side, by kinds in ``_FAMILY_RANK``
# order; a type II row enters by its rotation part.  Each lists the
# common subgroup classes that occur exactly.
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

# The cells with an axial class on both sides, by kinds in the order
# SO(2), O(2), O(2)^-; a type II row enters by its rotation part.  Let
# w1 and w2 be the two axes, and u a line perpendicular to both.
#
# * SO(2) x SO(2): SO(2) when w1 = w2, else 1.
# * SO(2) x O(2): SO(2) when w1 = w2; Z_2 when w1 is perpendicular to
#   w2, the half-turn about w1 then being one of O(2); else 1.
# * O(2) x O(2): the half-turn about u lies on both sides, so [1] never
#   occurs: O(2) when w1 = w2, D_2 when they are perpendicular, else Z_2.
# * SO(2)+Z2c x O(2)^-: chi of O(2)^- over the SO(2) x O(2) cell, whose
#   half-turn of Z_2 is perpendicular to w2 and so carries -1: [Z_2^-].
# * O(2)+Z2c x O(2)^-: as published.  chi of O(2)^- over the O(2) x O(2)
#   cell gives {Z_2^-, D_2^z, O(2)^-}; the tests pin the difference.
# * O(2)^- x O(2)^-: chi over the part E of M where both signs agree.
#   The half-turn about u carries -1 on both sides, and one about w1 or
#   w2 carries +1 on its own side only, so M = Z_2 and M = D_2 give
#   [Z_2^-], and w1 = w2 gives [O(2)^-].
_AXIAL_AXIAL = {kinds: ClassSet(cell) for kinds, cell in {
    ("SO2", "SO2"): (trivial(), so2()),
    ("SO2", "O2"): (trivial(), cyclic(2), so2()),
    ("O2", "O2"): (cyclic(2), dihedral(2), o2()),
    ("SO2", "O2-"): (trivial(), cyclic_minus(2), so2()),
    ("O2", "O2-"): (trivial(), dihedral_z(2), o2_minus()),
    ("O2-", "O2-"): (cyclic_minus(2), o2_minus()),
}.items()}

# the data cells under their kinds in either order
_DATA = {key: cell for kinds, cell in (*_POLY_POLY.items(),
                                       *_AXIAL_AXIAL.items())
         for key in (kinds, kinds[::-1])}

# the kind of Z_e or D_e under given signs on its cyclic factors: the
# finite kinds of ``labels._SIGNS`` read backwards
_KIND_OF_SIGNS = {signs: kind for kind, signs in _SIGNS.items()
                  if kind not in INFINITE_KINDS}


def cell(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """Evaluate the closed-form cell of a normalized pair.

    Parameters
    ----------
    a, b : ClassLabel
        A pair that ``infinite.normalize`` returns: type I x type I,
        type II x type III or type III x type III, in either order.

    Returns
    -------
    ClassSet
        The cell.  The absorbers and the printed row are read side by
        side: SO(3) against type I or O(3) against type III keeps the
        other side, 1 or 1+Z2c gives [1], and O(2)+Z2c against a finite
        column is ``_signed_rule`` less ``_omitted``.  Every other pair,
        the type II x type III table among them, takes its data cell of
        ``_POLY_POLY`` or ``_AXIAL_AXIAL`` if it has one, and otherwise
        ``_signed_rule``.
    """
    for x, y in ((a, b), (b, a)):
        if x.kind == "SO3":
            return ClassSet([y])
        if x.kind == "1":
            return ClassSet([trivial()])
        if x.plus and x.kind == "O2" and y.kind != "O2-":
            return ClassSet(set(_signed_rule(a, b)).difference(_omitted(y)))
    data = _DATA.get((a.kind, b.kind))
    return _signed_rule(a, b) if data is None else data


def _signed_rule(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """The cell of a pair with a Z, D or axial side, from signed axes.

    A class H is its envelope K with a character chi on K: H = {chi(k) k}.
    A rotation group is its own envelope with chi = +1, and a type III
    class has the envelope and signs of ``labels.TYPE_III``.  An element
    chi1(k) k of H1 lies in g H2 g^T exactly when k lies in
    M = K1 ∩ g K2 g^T and chi1(k) = chi2(k), since the determinant reads
    the sign.  So H1 ∩ g H2 g^T is chi1 over E = ker(chi1 chi2) inside
    M, the class of envelope E and kernel ker chi1 ∩ E (``_meet``); for
    two rotation groups it is M.  A type II class X+Z2c, the side with
    ``plus`` set, enters with the signed axes of X: it holds -Id, so
    every chi2(k) k with k in M lies in it, and the intersection is chi2
    over all of M, named by the other side's signs alone.

    K enters through its signed axes (``ClassLabel.axes``): per orbit of
    rotation axes w, the order p, the sign alpha of the generator
    R(w, 2 pi/p), and the sign beta of a reference perpendicular
    half-turn, the j-th one after it having beta alpha^j, or None when w
    has no perpendicular half-turn.  A Z_n or D_n envelope with signs
    (a, b) on the principal generator and on R(e1, pi) has the principal
    axis (n, a, b); the secondary lines S_j of D_n have the half-turn
    sign b a^j, so they fall in two orbits j in {0, 1}, each with the
    principal half-turn a^(n/2) as its perpendicular reference when n is
    even.  T, O, I and O^- list their axis orbits
    (``labels._POLYHEDRAL_AXES``).  SO(2), O(2) and O(2)^- are the
    envelopes Z_n and D_n at n = infinity, written n = 0 so that
    gcd(p, 0) = p, with the signs (+1), (+1, +1) and (+1, -1); they
    always play K2 below.

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

    An axial K2 holds every rotation about w, so when w lies on an axis
    of order p of K1, M holds the whole Z_p about it.  O(2) and O(2)^-
    also hold every half-turn perpendicular to w.  So when that axis has
    perpendicular half-turns, M is D_p at every spin, and Z_p does not
    occur alone.  Off the axes of K1, M holds at most one half-turn,
    exactly as in the finite argument.

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
    # x is the side whose axes are read, y the Z, D or axial side.  Per
    # axis orbit of x: e, the generator's signs on each side, the signs
    # of the perpendicular half-turns of x and the sign of x's
    # half-turn or None; half2 holds the signs of y's secondary lines,
    # only is None or the side (0 for x, 1 for y) whose signs alone name
    # the classes, and full says that y holds every half-turn
    # perpendicular to its axis.
    swap = b.kind in _POLYHEDRAL_AXES or a.kind in INFINITE_KINDS
    x, y = (b, a) if swap else (a, b)
    only = 1 if x.plus else 0 if y.plus else None
    full = y.kind in ("O2", "O2-")
    n, a2, half2, _ = y.axes[0]

    def name(e, s1, s2):
        return _meet(e, s1, s2) if only is None else \
            _signed_class(e, (s1, s2)[only])

    out = [trivial()]
    for p, alpha, half1, h in x.axes:
        e = gcd(p, n)
        rho1, rho2 = alpha ** (p // e), a2 ** (n // e)
        if not (full and half1):
            out.append(name(e, (rho1,), (rho2,)))
        out += [name(e, (rho1, s1), (rho2, s2))
                for s1 in half1 for s2 in half2]
        if h is not None:
            out += [name(2, (h,), (s2,)) for s2 in half2]
    return ClassSet(out)


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
    return ClassLabel(_KIND_OF_SIGNS[signs], e)


def _omitted(col: ClassLabel) -> tuple[ClassLabel, ...]:
    # The classes that the published row O(2)+Z2c leaves out of the
    # rule's cell against a finite column: [Z_2] and [D_2^z] against
    # O^-, [Z_2] and [Z_2^-] against D_n^z for even n, and [Z_2^-]
    # against D_4k^d.  The axial membership oracle agrees with the rule;
    # the tests pin each divergence, and ``perfbench/expected_grid.json``
    # records the printed cells.
    if col.kind == "O-":
        return cyclic(2), dihedral_z(2)
    if col.kind == "Dz" and col.n % 2 == 0:
        return cyclic(2), cyclic_minus(2)
    if col.kind == "Dd" and col.n % 4 == 0:
        return (cyclic_minus(2),)
    return ()


def _families(kinds: Sequence[str], params: range) -> list[ClassLabel]:
    out = []
    for kind in kinds:
        if kind not in _PARAMETRIC_FORMS:
            out.append(ClassLabel(kind))
        else:  # subscripts dp >= 2, d = 2 for Z_2p^- and D_2p^d
            d = TYPE_III[kind][2] if kind in TYPE_III else 1
            out += [ClassLabel(kind, d * p) for p in params if d * p >= 2]
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
