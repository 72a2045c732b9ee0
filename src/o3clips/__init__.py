"""Clips products of conjugacy classes of closed O(3) subgroups.

The clips product of two classes collects every conjugacy class of
intersections g1 H1 g1^T  ∩  g2 H2 g2^T as the gi range over O(3).
It computes the symmetry classes of direct sums of tensor spaces from
the classes of the factors, which is how the coupled electroelastic
catalog in :mod:`o3clips.piezo` is produced.

Two independent evaluation paths are exposed: closed-form rules
(``method="symbolic"``, the default), which answer every pair with no
order cap, and a brute-force matrix oracle for finite classes up to
order 256 (``method="oracle"``); ``method="both"`` runs the two and
raises :class:`ClipsMismatch` if they ever disagree.  No symbolic
answer comes from the oracle, so the oracle only checks.

The matrix layer (``clips_oracle``, ``clips_axial`` and the group
constructors) needs numpy and is imported on first access, so the
closed-form route and the catalog fold never load it.
"""

from .engine import (
    CellCheck,
    ClipsMismatch,
    class_leq,
    clips,
    clips_families,
    verify_cells,
)
from .infinite import clips_reduce
from .labels import (
    ClassLabel,
    ClassSet,
    canonicalize,
    class_set,
    compare,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    format_label,
    icosa,
    is_infinite,
    o2,
    o2_minus,
    o3,
    octa,
    octa_minus,
    order_of,
    parse_label,
    proper_part,
    so2,
    so3,
    sort_key,
    strip_z2c,
    tetra,
    tilde_part,
    trivial,
    typeclass,
    with_z2c,
)
from .piezo import (
    ELA_CLASSES,
    PIEZ_CLASSES,
    PIEZ_LAW_CLASSES,
    PIEZ_LAW_PRINTED,
    SYM_CLASSES,
    IsotropyCatalog,
    PiezDiff,
    builtin_isotropy,
    compute_piez,
    diff_piez,
    isotropy_direct_sum,
    printed_collisions,
)
from .tables import clips_type2_type3

__version__ = "0.1.0"

__all__ = [
    "CellCheck",
    "ClassLabel",
    "ClassSet",
    "ClipsMismatch",
    "ELA_CLASSES",
    "GroupError",
    "IsotropyCatalog",
    "PIEZ_CLASSES",
    "PIEZ_LAW_CLASSES",
    "PIEZ_LAW_PRINTED",
    "PiezDiff",
    "RecognitionError",
    "SYM_CLASSES",
    "builtin_isotropy",
    "canonicalize",
    "class_leq",
    "class_set",
    "clips",
    "clips_axial",
    "clips_families",
    "clips_oracle",
    "clips_reduce",
    "clips_type2_type3",
    "compare",
    "compute_piez",
    "cyclic",
    "cyclic_minus",
    "diff_piez",
    "dihedral",
    "dihedral_d",
    "dihedral_z",
    "format_label",
    "generators",
    "icosa",
    "is_infinite",
    "isotropy_direct_sum",
    "materialize",
    "o2",
    "o2_minus",
    "o3",
    "octa",
    "octa_minus",
    "order_of",
    "parse_label",
    "printed_collisions",
    "proper_part",
    "recognize",
    "reference_group",
    "so2",
    "so3",
    "sort_key",
    "strip_z2c",
    "tetra",
    "tilde_part",
    "trivial",
    "typeclass",
    "verify_cells",
    "with_z2c",
]

# name -> submodule of the matrix layer that defines it
_LAZY = {
    "clips_axial": "axial",
    "clips_oracle": "oracle",
    "GroupError": "groups",
    "RecognitionError": "groups",
    "generators": "groups",
    "materialize": "groups",
    "recognize": "groups",
    "reference_group": "groups",
}


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
