"""Closed-form clips: one memo, then the exact reductions and one cell.

``clips_reduce`` answers a pair from its one memo, ``_MEMO``.  On a
miss it applies ``normalize``, answers the normalized pair with
``tables.cell`` and, for a type II x type II pair, lifts each class of
the answer back to its +Z2c class.  Every pair that ``normalize``
returns, type I x I, II x III or III x III with axial sides included,
has a cell, so ``clips_reduce`` answers every pair and never reaches the
matrix layer.

``normalize`` applies the three exact reductions, the only place they
are written:

* [H1] o [H2 + Z2c] = [H1] o [H2] when H1 is a rotation group, since
  g H1 g^-1 never meets the -g H2 g^-1 coset.
* [G] o [H] = [G_+] o [H] when H is a rotation group and G is type
  III, for the same reason.
* [H1 + Z2c] o [H2 + Z2c] = {[K + Z2c] : [K] in [H1] o [H2]}: both
  sides contain -Id, so every intersection does too, and splitting off
  the center reduces to the rotation parts.
"""

from __future__ import annotations

from math import gcd

from .labels import (
    INFINITE_KINDS,
    ClassLabel,
    ClassSet,
    proper_part,
    strip_z2c,
    typeclass,
    with_z2c,
)
# ``canonicalize`` is imported only for perfbench/spans.py, which traces it
from .labels import canonicalize  # noqa: F401
from .tables import _POLYHEDRAL_AXES, _period, cell
# ``clips_type2_type3`` is imported only for perfbench/spans.py to trace
from .tables import clips_type2_type3  # noqa: F401


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


def clips_reduce(c1: ClassLabel, c2: ClassLabel) -> ClassSet:
    """Closed-form clips of any pair of classes.

    One probe of ``_MEMO``, keyed by the pair as given; on a miss,
    ``normalize``, then ``tables.cell`` on the normalized pair, each of
    its classes lifted to +Z2c when ``normalize`` stripped both sides,
    and the answer is stored.  Every pair has a cell, and a repeated
    pair returns the same ``ClassSet``.  Symmetric in its arguments.
    """
    swap = c2.kind in _POLYHEDRAL_AXES or c1.kind in INFINITE_KINDS
    x, y = (c2, c1) if swap else (c1, c2)
    key = (x, y.kind, y.plus, gcd(y.n, _period(x)))
    out = _MEMO.get(key)
    if out is None:
        a, b, lift = normalize(c1, c2)
        cs = cell(a, b)
        out = _MEMO.setdefault(
            key, ClassSet(with_z2c(k) for k in cs) if lift else cs)
    return out


# The one memo between ``clips`` and the rule: the finished answer of
# ``clips_reduce``, after ``normalize``, ``cell`` and the lift, keyed by
# the pair as given.  x is the side whose axes ``tables._signed_rule``
# reads, picked by its own swap test, and y the other side; the key is
# (x, y.kind, y.plus, gcd(y.n, 2L)), with 2L = ``tables._period(x)``,
# twice the lcm of x's axis orders, or 0 when x has no finite axis
# orders (1, SO(3) and the axial classes), so that such an x keys y
# whole.  The key fixes the answer:
#
# 1. ``normalize`` keeps the order of the pair, and keeps each side
#    inside the polyhedral kinds and inside the infinite ones: O^-
#    becomes T, O(2)^- becomes SO(2), and a lift is stripped.  So the
#    swap on the raw pair picks the same side as the rule's swap on the
#    normalized pair.
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
# 5. The data, absorber and printed-row cells read only the kinds and
#    sides that are keyed whole: the subscript of a kind without one
#    is 0, and the printed row's column is always x.
#
# Labels are interned and hash by identity, so a key costs one gcd and
# one ``_period`` call, and the memo holds per x at most one answer per
# kind and lift of y and divisor of 2L, however many pairs it answers.
_MEMO: dict[tuple, ClassSet] = {}
