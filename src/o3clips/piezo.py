"""Symmetry classes of the fully coupled electroelastic law.

A linear electroelastic material is described by a triple of constitutive
tensors: the order-4 elasticity tensor, the order-3 coupling tensor, and
the order-2 permittivity tensor.  The symmetry classes of each factor
space form a known finite catalog; the classes of the coupled law are the
classes of intersections of one subgroup drawn from each catalog, which
is exactly a fold of the family clips product.

This module stores the three published catalogs, the published 25-class
answer for the coupled law, and the fold that recomputes it.  Two printed
spellings in the published answer denote one class (D2^d is conjugate to
D2^z), so the printed list has 26 entries and 25 distinct classes; the
diff report keeps both counts visible instead of silently folding them.

Every catalog is a plain ``ClassSet``: ``compute_piez()`` returns the
``ClassSet`` of the coupled law, and ``isotropy_direct_sum`` folds any
iterables of labels or spellings.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .engine import clips
from .labels import ClassLabel, ClassSet, class_set, format_label, parse_label

# Elasticity tensors: 8 classes.
ELA_CLASSES = class_set(
    "1", "Z2+Z2c", "D2+Z2c", "D3+Z2c", "D4+Z2c", "O+Z2c", "O(2)+Z2c", "O(3)",
)

# Order-3 coupling tensors: 16 classes.
PIEZ_CLASSES = class_set(
    "1", "Z2", "Z3", "Z2^-", "Z4^-", "D2", "D3", "D2^z", "D3^z",
    "D4^d", "D6^d", "SO(2)", "O(2)", "O(2)^-", "O^-", "O(3)",
)

# Symmetric order-2 tensors: 3 classes (distinct, double, triple eigenvalue).
SYM_CLASSES = class_set("D2+Z2c", "O(2)+Z2c", "O(3)")

# The published answer for the coupled law, spelled as printed.  D2^d and
# D2^z are two names for one class, so 26 spellings, 25 classes.
PIEZ_LAW_PRINTED: tuple[str, ...] = (
    "1", "Z2", "Z3", "Z4", "D2", "D3", "D4", "SO(2)", "O(2)", "O(3)",
    "Z2+Z2c", "D2+Z2c", "D3+Z2c", "D4+Z2c", "O+Z2c", "O(2)+Z2c",
    "Z2^-", "Z4^-", "D2^z", "D3^z", "D4^z", "D2^d", "D4^d", "D6^d",
    "O^-", "O(2)^-",
)

PIEZ_LAW_CLASSES = class_set(*PIEZ_LAW_PRINTED)


def _fold(sets: Sequence[ClassSet],
          method: str) -> dict[ClassLabel, tuple[ClassLabel, ClassLabel] | None]:
    """The left fold of the family clips product over ``sets``: each
    class of the last stage, mapped to the first pair (a, b), in
    canonical order, whose clips holds it (None for a single set)."""
    first = dict.fromkeys(sets[0])
    for nxt in sets[1:]:
        stage, first = ClassSet(first), {}
        for a in stage:
            for b in nxt:
                for c in clips(a, b, method=method):
                    first.setdefault(c, (a, b))
    return first


def isotropy_direct_sum(catalogs: Iterable[Iterable],
                        method: str = "symbolic") -> ClassSet:
    """Symmetry classes of a direct sum of tensor spaces: the left fold
    of the family clips product over the factor catalogs, each any
    iterable of labels or spellings.  The result is independent of the
    fold order."""
    sets = [class_set(*c) for c in catalogs]
    if not sets:
        raise ValueError("need at least one catalog")
    return ClassSet(_fold(sets, method))


def compute_piez(method: str = "symbolic") -> ClassSet:
    """Symmetry classes of the coupled (elasticity, coupling,
    permittivity) triple, recomputed from the three factor catalogs."""
    return isotropy_direct_sum([ELA_CLASSES, PIEZ_CLASSES, SYM_CLASSES],
                               method=method)


def printed_collisions() -> list[tuple[str, str]]:
    """Pairs of printed spellings in the published coupled-law list that
    name the same class (canonical spelling second)."""
    out = []
    for spelling in PIEZ_LAW_PRINTED:
        canon = format_label(parse_label(spelling))
        if canon != spelling:
            out.append((spelling, canon))
    return out


class PiezDiff(NamedTuple):
    """Computed coupled-law classes diffed against the published list."""

    computed: ClassSet
    expected: ClassSet
    missing: tuple[str, ...]
    extra: tuple[str, ...]
    witnesses: dict
    printed_count: int
    canonical_count: int
    collisions: tuple[tuple[str, str], ...]

    @property
    def match(self) -> bool:
        return not self.missing and not self.extra


def diff_piez(method: str = "symbolic") -> PiezDiff:
    """Recompute the coupled-law catalog and diff it against the
    published list; extras are traced back to the first clips pair that
    produced them in the outer fold stage."""
    first = _fold([ELA_CLASSES, PIEZ_CLASSES, SYM_CLASSES], method)
    computed = ClassSet(first)
    expected = PIEZ_LAW_CLASSES
    missing = tuple(format_label(c) for c in expected if c not in computed)
    extra = [c for c in computed if c not in expected]
    return PiezDiff(
        computed=computed,
        expected=expected,
        missing=missing,
        extra=tuple(map(format_label, extra)),
        witnesses={format_label(c): tuple(map(format_label, first[c]))
                   for c in extra},
        printed_count=len(PIEZ_LAW_PRINTED),
        canonical_count=len(expected),
        collisions=tuple(printed_collisions()),
    )
