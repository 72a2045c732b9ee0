"""Closed-form clips: the exact reductions, then one cell.

``clips_reduce`` applies ``normalize``, answers the normalized pair with
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

from .labels import (
    ClassLabel,
    ClassSet,
    proper_part,
    strip_z2c,
    typeclass,
    with_z2c,
)
# ``canonicalize`` is imported only for perfbench/spans.py, which traces it
from .labels import canonicalize  # noqa: F401
# ``clips_type2_type3`` is imported only for perfbench/spans.py to trace
from .tables import cell, clips_type2_type3  # noqa: F401


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

    ``normalize``, then ``tables.cell`` on the normalized pair, each of
    its classes lifted to +Z2c when ``normalize`` stripped both sides;
    every pair has a cell.  Symmetric in its arguments.
    """
    a, b, lift = normalize(c1, c2)
    cs = cell(a, b)
    return ClassSet(with_z2c(k) for k in cs) if lift else cs
