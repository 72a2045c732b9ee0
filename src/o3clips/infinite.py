"""Closed-form clips: two memo stores, the exact reductions, the cells.

``clips_reduce`` answers a pair of labels or spellings from ``_PAIRS``,
keyed by the pair as given.  On a miss it parses both sides and reads
``_MEMO``, keyed by the rule's compact key of the two labels; on a miss
there it applies ``normalize``, answers the normalized pair with
``cell`` and, for a type II x type II pair, lifts each class of the
answer back to its +Z2c class.  Every pair that ``normalize`` returns,
type I x I, II x III or III x III with axial sides included, has a
cell, so ``clips_reduce`` answers every pair and never reaches the
matrix layer.  ``cell`` itself memoizes nothing: it runs only on a miss
of both stores.  ``clips_type2_type3`` is ``clips_reduce`` on a checked
row and column of the type II x type III table, whose families by kind
``table_rows`` and ``table_cols`` list.

``normalize`` applies the three exact reductions, the only place they
are written:

* [H1] o [H2 + Z2c] = [H1] o [H2] when H1 is a rotation group, since
  g H1 g^-1 never meets the -g H2 g^-1 coset.
* [G] o [H] = [G_+] o [H] when H is a rotation group and G is type
  III, for the same reason.
* [H1 + Z2c] o [H2 + Z2c] = {[K + Z2c] : [K] in [H1] o [H2]}: both
  sides contain -Id, so every intersection does too, and splitting off
  the center reduces to the rotation parts.

``cell`` answers a normalized pair in either order: the absorbers 1 and
SO(3), with their lifts, and the published row [O(2)+Z2c], which is the
rule less ``_omitted``, then the data cells, and otherwise the rule.

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
axis order p of x, which is what lets ``_MEMO`` key the second side by
gcd(n, 2L), L the lcm of x's axis orders (``ClassLabel.period``); the
comment at ``_MEMO`` gives the whole argument.  The rule answers

* type I x type I: Z_m or D_m against Z_n, D_n, T, O or I, the SO(3)
  cells of Olive & Auffray (*Symmetry classes for even-order tensors*,
  2013), and SO(2) or O(2) against every finite rotation class;
* type II x type III: every row [X+Z2c] against every column but for
  the cells below;
* type III x type III: Z_2n^-, D_n^z, D_2n^d, O^- and O(2)^- against each
  other, but for O^- x O^- and O(2)^- x O(2)^-.

The rest is data, each with its reason where it is defined, and each
class written as its spelling (``"D2^z"``, ``"O(2)^-"``), parsed once at
import:

* ``_POLY_POLY``: the cells with no Z, D or axial side, that is T, O and
  I against each other, [T+Z2c], [O+Z2c] and [I+Z2c] against [O^-], and
  O^- x O^-;
* ``_AXIAL_AXIAL``: the six cells with an axial class on both sides;
* ``_OMITTED``: the classes that the published row [O(2)+Z2c] leaves
  out of the rule's cell against a finite column, which ``_omitted``
  reads (the tests pin where the rule and the axial membership oracle
  disagree with it).

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

The module keeps its name, though it holds the finite cells too: the
benchmark's trace targets (``perfbench/spans.py``) name
``o3clips.infinite``, and a rename waits for those targets to move with
it.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .labels import (
    _PARAMETRIC_FORMS,
    _POLYHEDRAL_AXES,
    _SIGNS,
    INFINITE_KINDS,
    TYPE_III,
    ClassLabel,
    ClassSet,
    class_set,
    cyclic,
    format_label,
    parse_label,
    proper_part,
    strip_z2c,
    trivial,
    typeclass,
    with_z2c,
)
# ``canonicalize`` is imported only for perfbench/spans.py, which traces it
from .labels import canonicalize  # noqa: F401

# The table's families by kind tag.  The columns are the type III
# kinds; the rows X+Z2c range over the finite rotation kinds but 1,
# then SO(2) and O(2).
COL_KINDS = tuple(TYPE_III)
FINITE_KINDS = ("Z", "D", "T", "O", "I")
ROW_KINDS = (*FINITE_KINDS, "SO2", "O2")


def normalize(a: ClassLabel,
              b: ClassLabel) -> tuple[ClassLabel, ClassLabel, bool]:
    """Canonical pair after the exact reductions, and whether to lift.

    A type II x type II pair is stripped to its rotation parts with
    ``lift`` set; against a type I side the other side becomes its
    rotation part.  The result is a type I x I, II x III or III x III
    pair, in the given order, and normalizing it again changes nothing.
    """
    ta, tb = typeclass(a), typeclass(b)
    if ta == tb == "II":
        return strip_z2c(a), strip_z2c(b), True
    if ta == "I":
        return a, proper_part(b), False
    if tb == "I":
        return proper_part(a), b, False
    return a, b, False


def clips_reduce(c1: str | ClassLabel, c2: str | ClassLabel) -> ClassSet:
    """Closed-form clips of any pair of classes, given as labels or
    spellings.

    A pair seen before, in the same form, is two probes of ``_PAIRS``,
    ``_PAIRS[c1][c2]``: no parse, no key and no gcd.  Otherwise both
    sides are parsed (``parse_label``), and the answer comes from
    ``_MEMO`` under the rule's compact key of the two labels or, on a
    miss there, from ``normalize``, then ``cell`` on the normalized
    pair, each of its classes lifted to +Z2c when
    ``normalize`` stripped both sides; it is stored in ``_MEMO`` under
    the compact key and in ``_PAIRS`` under the pair as given.  Every
    pair has a cell, a repeated pair returns the same ``ClassSet``, and
    the answer is symmetric in the two classes.  A spec that is no class
    raises as ``parse_label`` does and stores nothing.
    """
    try:
        return _PAIRS[c1][c2]
    except (KeyError, TypeError):
        # a pair not seen in this form, or an unhashable spec
        a, b = parse_label(c1), parse_label(c2)
    key = (a, b.kind, b.plus, gcd(b.n, a.period))
    out = _MEMO.get(key)
    if out is None:
        x, y, lift = normalize(a, b)
        cs = cell(x, y)
        out = _MEMO.setdefault(
            key, ClassSet(with_z2c(k) for k in cs) if lift else cs)
    return _PAIRS.setdefault(c1, {}).setdefault(c2, out)


def _check(lab: ClassLabel, kinds: Sequence[str], what: str,
           plus: bool = False) -> None:
    if lab.plus != plus or lab.kind not in kinds:
        raise ValueError(f"not a {what}: {format_label(lab)}")


def clips_type2_type3(row: ClassLabel | str,
                      col: ClassLabel | str) -> ClassSet:
    """Evaluate one cell of the type II x type III table.

    Parameters
    ----------
    row : ClassLabel or str
        A type II class: X+Z2c with X in {Z_m, D_m, T, O, I, SO(2), O(2)}.
    col : ClassLabel or str
        A type III class: Z_2n^-, D_n^z, D_2n^d, O^- or O(2)^-.

    Returns
    -------
    ClassSet
        ``clips_reduce(row, col)``, after resolving both sides with
        ``parse_label`` (a spec that is no class raises as it does) and
        checking that row and column are classes of the table; it always
        includes the trivial class.
    """
    row, col = parse_label(row), parse_label(col)
    _check(row, ROW_KINDS, "table row class", plus=True)
    _check(col, COL_KINDS, "table column class")
    return clips_reduce(row, col)


# The two memo stores between ``clips`` and the rule, of the finished
# answers of ``clips_reduce``, after ``normalize``, ``cell`` and the lift.
#
# ``_PAIRS`` maps each first argument as given, a label or a spelling,
# to a dict from the second argument as given to the answer; the hit
# path reads it, and it grows by one entry per distinct pair of
# arguments.  Each answer is the ``ClassSet`` that ``_MEMO`` holds under
# the compact key of the pair's labels, and the entry is exact:
#
# 0. ``parse_label`` is a pure function of its argument (a spelling
#    resolves to its interned label, a label to itself), so a pair as
#    given fixes the pair of labels, and so its compact key.
#
# ``_MEMO`` maps each compact key of a pair of labels, (c1, c2.kind,
# c2.plus, gcd(c2.n, 2L)), to the one ``ClassSet`` that every pair of
# that key shares, with 2L = ``c1.period``, twice the lcm of the orders
# of ``c1.axes``, the axes the rule reads (the label reads one off the
# other), or 0 when c1 has no finite axis orders (1, SO(3) and the
# axial classes), so that such a c1 keys c2 whole.  The compact key
# fixes the answer:
#
# 1. ``_signed_rule`` reads the axes of the second side only when
#    that side is polyhedral, whose kind has no subscript (n = 0), or
#    the first side is infinite (2L = 0); either way the key holds both
#    classes whole.  ``normalize`` keeps the order of the pair, and keeps
#    each side inside the polyhedral kinds and inside the infinite ones
#    (O^- becomes T, O(2)^- becomes SO(2), and a lift is stripped), so on
#    every other pair the rule reads the axes of x = c1, and y = c2.
# 2. x is keyed whole, so whatever ``normalize`` does to x is fixed by
#    the key; it takes x to a class whose 2L divides x's.
# 3. y keeps its subscript, except where ``proper_part`` halves it: a
#    Z_n^- or D_n^d side against a type I x.  With its subscript kept,
#    the rule reads y's order n only through e = gcd(p, n) and the
#    parity of n/e for each axis order p of the normalized x, and
#    gcd(2p, n) fixes both: e = gcd(p, gcd(2p, n)), and n/e is even
#    exactly when gcd(2p, n) = 2e.  Since 2p divides 2L (by 2),
#    gcd(2p, n) = gcd(2p, d), d = gcd(n, 2L).  An axial y (n = 0)
#    gives d = 2L.
# 4. Where y is halved, the cell is a type I x I cell with every sign
#    +1, which reads n' = n/2 only through gcd(p, n'), and gcd(p, n/2)
#    = gcd(2p, n)/2, which d fixes as in 3.
# 5. The data, absorber and printed-row cells of ``cell`` read only the
#    kinds and sides that are keyed whole: the subscript of a kind
#    without one is 0, and ``_omitted`` reads the printed row's column,
#    which is x, or y against x = O(2)+Z2c.
#
# Labels are interned and hash by identity, and each carries its 2L, so
# a compact key costs one gcd and four slot reads, and ``_MEMO`` holds
# per c1 at most one ``ClassSet`` per kind and lift of c2 and divisor of
# 2L, or per c2 when 2L = 0, however many pairs it answers.  Clearing
# ``_PAIRS`` alone drops only pointers: a repeated pair is refilled from
# its compact key and returns the same ``ClassSet``.
_PAIRS: dict[str | ClassLabel, dict[str | ClassLabel, ClassSet]] = {}
_MEMO: dict[tuple[ClassLabel, str, bool, int], ClassSet] = {}

# The cells with no Z, D or axial side, by kinds in the order T, O, I,
# O^-; a type II row enters by its rotation part.  Each lists the
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
_POLY_POLY = {kinds: class_set("1", *cell) for kinds, cell in {
    ("T", "T"): ("Z2", "Z3", "T"),
    ("T", "O"): ("Z2", "Z3", "D2", "T"),
    ("T", "I"): ("Z2", "Z3", "T"),
    ("O", "O"): ("Z2", "Z3", "Z4", "D2", "D3", "D4", "O"),
    ("O", "I"): ("Z2", "Z3", "D2", "D3", "T"),
    ("I", "I"): ("Z2", "Z3", "Z5", "D3", "D5", "T", "I"),
    ("T", "O-"): ("Z2", "Z3", "Z2^-", "D2^z", "T"),
    ("O", "O-"): ("Z2", "Z3", "Z2^-", "Z4^-", "D2^z", "D3^z", "D4^d", "O^-"),
    ("I", "O-"): ("Z2", "Z2^-", "D2^z", "Z3", "D3^z", "T"),
    ("O-", "O-"): ("Z2^-", "Z3", "Z4^-", "D3^z", "O^-"),
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
_AXIAL_AXIAL = {kinds: class_set(*cell) for kinds, cell in {
    ("SO2", "SO2"): ("1", "SO(2)"),
    ("SO2", "O2"): ("1", "Z2", "SO(2)"),
    ("O2", "O2"): ("Z2", "D2", "O(2)"),
    ("SO2", "O2-"): ("1", "Z2^-", "SO(2)"),
    ("O2", "O2-"): ("1", "D2^z", "O(2)^-"),
    ("O2-", "O2-"): ("Z2^-", "O(2)^-"),
}.items()}

# the data cells under their kinds in either order
_DATA = {key: cell for kinds, cell in (*_POLY_POLY.items(),
                                       *_AXIAL_AXIAL.items())
         for key in (kinds, kinds[::-1])}

# The classes that the published row O(2)+Z2c leaves out of the rule's
# cell against a finite column, by column kind with the subscript step
# at which it leaves them out: [Z_2] and [D_2^z] against O^-, [Z_2] and
# [Z_2^-] against D_n^z for even n, and [Z_2^-] against D_4k^d.  The
# axial membership oracle agrees with the rule; the tests pin each
# divergence, and ``perfbench/expected_grid.json`` records the printed
# cells.
_OMITTED = {"O-": (1, class_set("Z2", "D2^z")),
            "Dz": (2, class_set("Z2", "Z2^-")),
            "Dd": (4, class_set("Z2^-"))}
_NONE = ClassSet()

# the kind of Z_e or D_e under given signs on its cyclic factors: the
# finite kinds of ``labels._SIGNS`` read backwards
_KIND_OF_SIGNS = {signs: kind for kind, signs in _SIGNS.items()
                  if kind not in INFINITE_KINDS}


def cell(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """Evaluate the closed-form cell of a normalized pair.

    Parameters
    ----------
    a, b : ClassLabel
        A pair that ``normalize`` returns: type I x type I,
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


def _omitted(col: ClassLabel) -> ClassSet:
    # the classes of ``_OMITTED`` that the printed row leaves out against
    # ``col``, a finite column
    step, classes = _OMITTED.get(col.kind, (1, _NONE))
    return classes if col.n % step == 0 else _NONE


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
