"""Clips rules for pairs involving an infinite class.

Everything here is a closed form: absorbers for the full groups,
stripping reductions that are exact by construction, the axial rule
sets, and the type II x type III table cells.  clips_reduce returns
None when the pair has no closed form (finite pairs outside the
tables), in which case the engine falls back to the brute-force
oracle.

Exact reductions used:

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
    o3,
    proper_part,
    so3,
    strip_z2c,
    trivial,
    typeclass,
    with_z2c,
)
from .tables import clips_type2_type3


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


def clips_reduce(c1: ClassLabel, c2: ClassLabel) -> ClassSet | None:
    """Closed-form clips, or None when only the oracle can answer.

    Covers every pair with an infinite side, the type II x type III
    table cells, and the absorbing identities.  Symmetric in its
    arguments.
    """
    a, b = canonicalize(c1), canonicalize(c2)
    for x, y in ((a, b), (b, a)):
        if x == o3():
            return ClassSet([y])
        if x == so3():
            return ClassSet([proper_part(y)])
        if x == trivial():
            return ClassSet([trivial()])
        if x == with_z2c(trivial()):
            keep = typeclass(y) == "II"
            return ClassSet([x if keep else trivial()])
    ta, tb = typeclass(a), typeclass(b)
    if {ta, tb} == {"II", "III"}:
        row, col = (a, b) if ta == "II" else (b, a)
        return clips_type2_type3(row, col)[1]
    if ta == "II" and tb == "II":
        inner = clips_reduce(strip_z2c(a), strip_z2c(b))
        if inner is None:
            return None
        return ClassSet(with_z2c(k) for k in inner)
    if not (is_infinite(a) or is_infinite(b)):
        return None
    # I side present: strip the other side down to rotations
    if "I" in (ta, tb):
        fin, other = (a, b) if ta == "I" else (b, a)
        if typeclass(other) != "I":
            return clips_reduce(fin, proper_part(other))
        inf = other
        if is_infinite(fin) and not is_infinite(inf):
            fin, inf = inf, fin
        if inf.kind in ("SO2", "O2"):
            return _axial_rule(fin, inf)
        return None
    # III x III with an infinite side: the infinite one is O(2)^-
    fin = a if b.kind == "O2-" else b
    return _o2minus_rule(fin)
