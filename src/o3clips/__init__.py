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

import types as _types

from .engine import (
    CellCheck,
    ClipsMismatch,
    class_leq,
    clips,
    clips_families,
    verify_cells,
)
from .infinite import clips_reduce, clips_type2_type3
from .labels import (
    ClassLabel,
    ClassSet,
    canonicalize,
    class_set,
    format_label,
    is_infinite,
    order_of,
    parse_label,
    proper_part,
    sort_key,
    strip_z2c,
    tilde_part,
    typeclass,
    with_z2c,
)
from .piezo import (
    ELA_CLASSES,
    PIEZ_CLASSES,
    PIEZ_LAW_CLASSES,
    PIEZ_LAW_PRINTED,
    SYM_CLASSES,
    PiezDiff,
    compute_piez,
    diff_piez,
    isotropy_direct_sum,
    printed_collisions,
)

__version__ = "0.1.0"

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

# the import blocks and ``_LAZY`` are the one list of public names
__all__ = sorted([name for name, value in globals().items()
                  if not (name.startswith("_")
                          or isinstance(value, _types.ModuleType))]
                 + list(_LAZY))


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
