"""Closed-form clips: two memo stores, the exact reductions, one cell.

``clips_reduce`` answers a pair of labels or spellings from ``_PAIRS``,
keyed by the pair as given.  On a miss it parses both sides and reads
``_MEMO``, keyed by the rule's compact key of the two labels; on a miss
there it applies ``normalize``, answers the normalized pair with
``tables.cell`` and, for a type II x type II pair, lifts each class of
the answer back to its +Z2c class.  Every pair that ``normalize``
returns, type I x I, II x III or III x III with axial sides included,
has a cell, so ``clips_reduce`` answers every pair and never reaches the
matrix layer.  ``clips_type2_type3`` is ``clips_reduce`` on a checked
row and column of the type II x type III table.

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
from typing import Sequence

from .labels import (
    ClassLabel,
    ClassSet,
    format_label,
    parse_label,
    proper_part,
    strip_z2c,
    typeclass,
    with_z2c,
)
# ``canonicalize`` is imported only for perfbench/spans.py, which traces it
from .labels import canonicalize  # noqa: F401
from .tables import COL_KINDS, ROW_KINDS, cell


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
    miss there, from ``normalize``, then ``tables.cell`` on the
    normalized pair, each of its classes lifted to +Z2c when
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
        ``clips_reduce(row, col)``, after checking that row and column
        are classes of the table; it always includes the trivial class.
    """
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
# 1. ``tables._signed_rule`` reads the axes of the second side only when
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
# 5. The data, absorber and printed-row cells read only the kinds and
#    sides that are keyed whole: the subscript of a kind without one
#    is 0, and the printed row's column is x, or y against x = O(2)+Z2c.
#
# Labels are interned and hash by identity, and each carries its 2L, so
# a compact key costs one gcd and four slot reads, and ``_MEMO`` holds
# per c1 at most one ``ClassSet`` per kind and lift of c2 and divisor of
# 2L, or per c2 when 2L = 0, however many pairs it answers.  Clearing
# ``_PAIRS`` alone drops only pointers: a repeated pair is refilled from
# its compact key and returns the same ``ClassSet``.
_PAIRS: dict[str | ClassLabel, dict[str | ClassLabel, ClassSet]] = {}
_MEMO: dict[tuple[ClassLabel, str, bool, int], ClassSet] = {}
