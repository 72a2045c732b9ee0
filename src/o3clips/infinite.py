"""Closed-form clips: the exact reductions, then one cell per pair type.

Everything here is a closed form, applied after ``normalize``: the
absorbers for 1, SO(3) and O(3), then the cells of ``tables`` for a
type II x type III, type I x type I or type III x type III pair, axial
sides included.  Every pair has one, so ``clips_reduce`` answers every
pair and never reaches the matrix layer.

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
    canonicalize,
    proper_part,
    strip_z2c,
    trivial,
    typeclass,
    with_z2c,
)
from .tables import clips_type1_type1, clips_type2_type3, clips_type3_type3


def normalize(c1: ClassLabel,
              c2: ClassLabel) -> tuple[ClassLabel, ClassLabel, bool]:
    """Canonical pair after the exact reductions, and whether to lift.

    A type II x type II pair is stripped to its rotation parts with
    ``lift`` set; against a type I side the other side becomes its
    rotation part.  The result is a type I x I, II x III or III x III
    pair, in the given order, and normalizing it again changes nothing.
    """
    a, b = canonicalize(c1), canonicalize(c2)
    ta, tb = typeclass(a), typeclass(b)
    if ta == tb == "II":
        return strip_z2c(a), strip_z2c(b), True
    if ta == "I":
        return a, proper_part(b), False
    if tb == "I":
        return proper_part(a), b, False
    return a, b, False


def lifted(cs: ClassSet, lift: bool) -> ClassSet:
    """The answer for the pair before ``normalize``; ``cs`` itself when
    nothing is lifted."""
    return ClassSet(with_z2c(k) for k in cs) if lift else cs


def _closed_form(a: ClassLabel, b: ClassLabel) -> ClassSet:
    # a normalized pair: type I x I, II x III or III x III
    for x, y in ((a, b), (b, a)):
        if x.kind == "SO3":  # SO(3) against type I, O(3) against type III
            return ClassSet([y])
        if x.kind == "1":  # 1 against anything, 1+Z2c against type III
            return ClassSet([trivial()])
    ta, tb = typeclass(a), typeclass(b)
    if ta != tb:
        row, col = (a, b) if ta == "II" else (b, a)
        return clips_type2_type3(row, col)
    if ta == "I":
        return clips_type1_type1(a, b)
    return clips_type3_type3(a, b)


def clips_reduce(c1: ClassLabel, c2: ClassLabel) -> ClassSet:
    """Closed-form clips of any pair of classes.

    Covers the absorbing identities, the type II x type III table
    cells, the type I x type I and type III x type III cells, and every
    pair that ``normalize`` turns into one of those, which is every
    pair.  Symmetric in its arguments.
    """
    a, b, lift = normalize(c1, c2)
    return lifted(_closed_form(a, b), lift)
