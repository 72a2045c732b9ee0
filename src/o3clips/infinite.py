"""Closed-form clips: the exact reductions, then one rule per pair type.

Everything here is a closed form: absorbers for the full groups, the
axial rule sets, the type II x type III table cells, the finite
type I x type I cells and the finite type III x type III cells,
applied after ``normalize``.  Every pair has one, so ``clips_reduce``
answers every pair and never reaches the matrix layer.

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
    class_set,
    cyclic,
    dihedral_z,
    format_label,
    is_infinite,
    proper_part,
    strip_z2c,
    trivial,
    typeclass,
    with_z2c,
)
from .tables import clips_type1_type1, clips_type2_type3, clips_type3_type3


def _axial_rule(fin: ClassLabel, inf: ClassLabel) -> ClassSet:
    # fin is type I (possibly SO(2)/O(2) themselves), inf is SO(2) or O(2)
    k, n = fin.kind, fin.n
    around = inf.kind == "SO2"
    if k == "Z":
        if around:
            return class_set("1", fin)
        items = ["1", fin] + (["Z2"] if n % 2 == 0 else [])
        return class_set(*items)
    if k == "D":
        if around:
            return class_set("1", "Z2", cyclic(n))
        items = ["1", "Z2", fin] + (["D2"] if n % 2 == 0 else [])
        return class_set(*items)
    if k == "T":
        return class_set("1", "Z2", "Z3") if around else class_set("1", "Z2", "Z3", "D2")
    if k == "O":
        if around:
            return class_set("1", "Z2", "Z3", "Z4")
        return class_set("1", "Z2", "D2", "D3", "D4")
    if k == "I":
        if around:
            return class_set("1", "Z2", "Z3", "Z5")
        return class_set("1", "Z2", "D2", "D3", "D5")
    if k == "SO2":
        return class_set("1", "SO(2)") if around else class_set("1", "Z2", "SO(2)")
    if k == "O2":
        if around:
            return class_set("1", "Z2", "SO(2)")
        # two half-turn families always share a perpendicular axis
        return class_set("Z2", "D2", "O(2)")
    raise ValueError(f"no axial rule for {format_label(fin)}")


def _o2minus_rule(fin: ClassLabel) -> ClassSet:
    # type III x O(2)^-; mirror alignments decide the small classes
    k = fin.kind
    if k == "Z-":
        n = fin.n // 2
        items = ["1", cyclic(n)] + ([] if n % 2 == 0 else ["Z2^-"])
        return class_set(*items)
    if k == "Dz":
        return class_set("1", "Z2^-", fin)
    if k == "Dd":
        n = fin.n // 2
        if n % 2 == 0:
            return class_set("1", "Z2", "Z2^-", dihedral_z(n))
        return class_set("1", "Z2^-", "D2^z", dihedral_z(n))
    if k == "O-":
        return class_set("1", "Z2^-", "D2^z", "D3^z")
    if k == "O2-":
        # a common mirror plane through both axes always exists
        return class_set("Z2^-", "O(2)^-")
    raise ValueError(f"no O(2)^- rule for {format_label(fin)}")


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
    if not (is_infinite(a) or is_infinite(b)):
        if ta == "I":
            return clips_type1_type1(a, b)
        return clips_type3_type3(a, b)
    if ta == "I":
        # the infinite side is SO(2) or O(2)
        fin, inf = (a, b) if is_infinite(b) else (b, a)
        return _axial_rule(fin, inf)
    # III x III: the infinite side is O(2)^-
    return _o2minus_rule(a if b.kind == "O2-" else b)


def clips_reduce(c1: ClassLabel, c2: ClassLabel) -> ClassSet:
    """Closed-form clips of any pair of classes.

    Covers every pair with an infinite side, the type II x type III
    table cells, the finite type I x type I and type III x type III
    cells, the absorbing identities, and every pair that ``normalize``
    turns into one of those, which is every pair.  Symmetric in its
    arguments.
    """
    a, b, lift = normalize(c1, c2)
    return lifted(_closed_form(a, b), lift)
