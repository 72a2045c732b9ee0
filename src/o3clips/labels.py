"""Conjugacy class labels for closed subgroups of O(3).

A closed subgroup of O(3) falls into one of three types:

* type I: subgroups of SO(3), up to conjugacy one of
  1, Z_n (n >= 2), D_n (n >= 2), T, O, I, SO(2), O(2), SO(3);
* type II: groups containing -Id, all of the form H (+) Z2c with H of
  type I and Z2c = {+Id, -Id};
* type III: groups containing improper elements but not -Id, up to
  conjugacy one of Z_{2n}^-, D_n^z, D_{2n}^d, O^-, O(2)^-.

This module defines the label algebra only: parsing, formatting,
canonicalization, group orders and a deterministic total order used to
present sets of classes.  Matrix realizations live in ``groups``.

A type III class H is read as a rotation group K, its envelope
{det(x) x : x in H} (``tilde_part``), with an index-2 subgroup L, its
kernel H ∩ SO(3) (``proper_part``): H = L ∪ −(K∖L).  One table,
``TYPE_III``, holds this decision.  Per kind it names the envelope, the
kernel, and the sign H puts on each cyclic factor of K:

    Z_n^-   (Z_n, Z_{n/2}, −)
    D_n^z   (D_n, Z_n, +, −)
    D_n^d   (D_n, D_{n/2}, −, +)
    O^-     (O, T, −, +, +)
    O(2)^-  (O(2), SO(2), +, −)

``proper_part`` and ``tilde_part`` look it up, ``type3_class`` inverts
it, ``order_of`` gives H the envelope's order (x -> det(x) x is one to
one from H onto K), and ``groups.cyclic_factors`` multiplies the
envelope's factors by the signs.  The envelope O(2) of O(2)^- has no
finite factors: its two signs are those of the rotations about its axis
and of its perpendicular half-turns, the two factors of D_n read at
n = ∞.  ``tables`` reads them, and ``groups.cyclic_factors`` refuses
the infinite classes before it reads any sign.

Every spelling comes from one table: the fixed spellings (``1``, ``T``,
``O(2)^-``, ...) and the parametric heads ``Z`` and ``D`` with their
suffixes.  ``parse_label`` reads it, ``format_label`` writes it, and a
text that is no spelling of it raises a ``ValueError`` that names the
position where the text stops beginning one.

Labels are canonical when built: ``ClassLabel(kind, n, plus)`` checks
the fields, collapses a degenerate subscript (``ClassLabel("Z", 1)`` is
``trivial()``, ``ClassLabel("Dd", 2)`` is ``dihedral_z(2)``) and returns
the one shared instance of the class, so ``==`` and ``is`` agree and a
label hashes by identity.  Each instance also carries the signed axes of
its envelope, ``axes``, which ``tables._signed_rule`` reads, and its
``period``, twice the lcm of their orders, by which ``infinite`` keys its
memo.  Both are set before the instance is pooled, and ``axes`` is the
one statement of the axis orbits: ``_POLYHEDRAL_AXES`` for T, O, I and
O^-, the signs of ``TYPE_III`` for the other type III kinds.  The pool
of instances is the factories' only memo: each factory (``cyclic``,
``dihedral_d``, ``o3``, ...) is one constructor call, and an invalid
subscript raises its ``ValueError`` on every call and pools nothing.
``sort_key`` and ``order_of`` are memoized on their one argument, and
``parse_label`` is the ``__getitem__`` of one dict, ``_Labels``, that
maps each spelling seen (and each label, to itself) to its label, so a
spelling or a class repeated within a workload is parsed, ranked or
counted once, and a repeated spelling costs one dict probe and no
Python call.
"""

from __future__ import annotations

import math
from functools import cache
from operator import index
from os.path import commonprefix
from typing import Iterable, Iterator

# Subscripts.  'Z-' stores the printed subscript (an even number, the
# group order), as do 'Dz' and 'Dd'.  'Dd' subscripts are even and the
# group order is twice the subscript.
#
# The type III table of the module docstring.  Per kind: the envelope's
# kind, which takes the class's own printed subscript n; the kernel's
# kind, which takes n // divisor; and the signs on the envelope's cyclic
# factors.  The fixed kinds have subscript 0.
TYPE_III = {
    "Z-": ("Z", "Z", 2, (-1,)),
    "Dz": ("D", "Z", 1, (1, -1)),
    "Dd": ("D", "D", 2, (-1, 1)),
    "O-": ("O", "T", 1, (-1, 1, 1)),
    "O2-": ("O2", "SO2", 1, (1, -1)),
}

# The signed axes (``ClassLabel.axes``) of the classes without a Z or D
# envelope, one entry (p, alpha, beta) per axis orbit.  The rotation
# groups take every sign +1; only the 3-fold axes of T have no
# perpendicular half-turn.  O^- has the orbits of O: the 4-fold axes
# (the quarter-turns lie outside T, the half-turn about a perpendicular
# 4-fold axis inside), the 3-fold axes (their turns lie in T, the
# perpendicular edge half-turns outside) and the edge 2-fold axes
# (outside T, with the perpendicular 4-fold axis inside).
_POLYHEDRAL_AXES = {
    "T": ((2, 1, 1), (3, 1, None)),
    "O": ((4, 1, 1), (3, 1, 1), (2, 1, 1)),
    "I": ((5, 1, 1), (3, 1, 1), (2, 1, 1)),
    "O-": ((4, -1, 1), (3, 1, -1), (2, -1, 1)),
}

# the signs on the cyclic factors of each kind with a Z or D envelope,
# SO(2) and O(2) being Z and D of order infinity: +1 for the rotation
# groups, and the rows of ``TYPE_III``
_SIGNS = {"Z": (1,), "D": (1, 1), "SO2": (1,), "O2": (1, 1),
          **{kind: signs for kind, (*_, signs) in TYPE_III.items()}}

_FAMILY_RANK = {
    "1": 0, "Z": 1, "D": 2, "T": 3, "O": 4, "I": 5,
    "Z-": 6, "Dz": 7, "Dd": 8, "O-": 9,
}

# Fixed presentation order for infinite classes.
_INFINITE_SEQ = (
    ("SO2", False), ("O2", False), ("SO2", True), ("O2", True),
    ("O2-", False), ("SO3", False), ("SO3", True),
)
INFINITE_KINDS = frozenset(kind for kind, _ in _INFINITE_SEQ)


class ClassLabel:
    """Conjugacy class label, one shared instance per class.

    Attributes
    ----------
    kind : str
        Family tag, such as ``"Z"``, ``"Dz"`` or ``"SO3"``; ``typeclass``
        gives the type (I, II or III) of the label.
    n : int
        Printed subscript for parametric families, 0 otherwise.
    plus : bool
        True for type II labels H (+) Z2c.  Only valid on type I kinds;
        ``SO3`` with ``plus`` displays as ``O(3)``.
    axes : tuple
        The signed axes of the class's envelope, or of its rotation
        part's for a lift, that ``tables._signed_rule`` reads: per axis
        orbit, the order p (0 for the axis of an axial class), the sign
        of the generator, the signs of the perpendicular half-turns or
        (), and the sign of the axis's own half-turn or None for odd p;
        () for 1 and SO(3).
    period : int
        2L, L the lcm of the orders in ``axes``: 2n for Z_n, 2 lcm(n, 2)
        for D_n, 12, 24 and 60 for T, O and I, and 0 for 1, SO(3) and
        the axial kinds.  ``infinite.clips_reduce`` keys its memo by it.

    ``axes`` and ``period`` are set with the other fields when the
    instance is built, before it is pooled.

    Instances are immutable and canonical: the constructor maps its
    fields to those of their class (``_canonical_key``) and returns the
    pooled instance, so equality and hashing are those of ``object``:
    identity.  Fields that name no class raise ``ValueError``.
    """

    __slots__ = ("kind", "n", "plus", "axes", "period")

    kind: str
    n: int
    plus: bool
    axes: tuple[tuple, ...]
    period: int

    def __new__(cls, kind: str, n: int = 0, plus: bool = False) -> ClassLabel:
        try:  # an int or a numpy integer, never a bool, float or string
            if type(n) is bool:
                raise TypeError
            key = (kind, index(n), bool(plus))
        except TypeError:
            raise ValueError(f"subscript {n!r} is not an integer") from None
        self = _POOL.get(key)
        if self is None:
            canonical = _canonical_key(*key)
            self = object.__new__(cls)
            axes = _signed_axes(*canonical[:2])
            period = 2 * math.lcm(*(p for p, *_ in axes)) if axes else 0
            fields = (*canonical, axes, period)
            for name, value in zip(cls.__slots__, fields, strict=True):
                object.__setattr__(self, name, value)
            # a concurrent builder of either key may have won; the pool
            # holds one instance per canonical key, found under both
            self = _POOL.setdefault(canonical, self)
            _POOL[key] = self
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ClassLabel is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ClassLabel is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copies and unpickled labels go back through the pool
        return ClassLabel, (self.kind, self.n, self.plus)

    def __str__(self) -> str:
        return format_label(self)

    def __repr__(self) -> str:
        return f"ClassLabel({format_label(self)!r})"


_POOL: dict[tuple[str, int, bool], ClassLabel] = {}

# The degenerate subscripts and the class each one names: Z_1 is 1, D_1
# is Z_2, D_1^z is Z_2^-, and D_2^d is conjugate to D_2^z, whose
# spelling is canonical.
_DEGENERATE = {
    ("Z", 1): ("1", 0), ("D", 1): ("Z", 2),
    ("Dz", 1): ("Z-", 2), ("Dd", 2): ("Dz", 2),
}


def _canonical_key(kind: str, n: int, plus: bool) -> tuple[str, int, bool]:
    """The fields of the class that ``(kind, n, plus)`` names.  A
    parametric subscript must be a positive multiple of the kernel's
    divisor in ``TYPE_III`` (1 outside it); a fixed kind ignores it."""
    if kind in _PARAMETRIC_FORMS:
        divisor = TYPE_III[kind][2] if kind in TYPE_III else 1
        if n < divisor or n % divisor:
            head, suffix = _PARAMETRIC_FORMS[kind]
            even = " (even subscript >= 2 required)" if divisor == 2 else ""
            raise ValueError(f"{head}_{n}{suffix} is not a group{even}")
        kind, n = _DEGENERATE.get((kind, n), (kind, n))
    elif (kind, False) in _FIXED_FORMS:
        n = 0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if plus and kind in TYPE_III:
        raise ValueError(
            f"{ClassLabel(kind, n)} already contains improper elements")
    return kind, n, plus


def _signed_axes(kind: str, n: int) -> tuple[tuple, ...]:
    """The ``axes`` of a canonical kind and subscript, from the orbits
    (p, alpha, beta) of ``_POLYHEDRAL_AXES`` or of a Z or D envelope
    under ``_SIGNS`` (``tables._signed_rule`` derives them).  Orbits
    with equal entries give equal configurations, so one is kept."""
    if kind in _POLYHEDRAL_AXES:
        axes = _POLYHEDRAL_AXES[kind]
    elif kind in _SIGNS:
        a, *rest = _SIGNS[kind]
        axes = ((n, a, rest[0] if rest else None),)
        if rest:
            perp = a ** (n // 2) if n % 2 == 0 else None
            axes += ((2, rest[0], perp), (2, rest[0] * a, perp))
    else:  # 1 and SO(3)
        axes = ()
    return tuple(dict.fromkeys(
        (p, alpha, () if beta is None else (beta, beta * alpha),
         alpha ** (p // 2) if p % 2 == 0 else None)
        for p, alpha, beta in axes))


def trivial() -> ClassLabel:
    return ClassLabel("1")


def cyclic(n: int) -> ClassLabel:
    return ClassLabel("Z", n)


def dihedral(n: int) -> ClassLabel:
    return ClassLabel("D", n)


def tetra() -> ClassLabel:
    return ClassLabel("T")


def octa() -> ClassLabel:
    return ClassLabel("O")


def icosa() -> ClassLabel:
    return ClassLabel("I")


def so2() -> ClassLabel:
    return ClassLabel("SO2")


def o2() -> ClassLabel:
    return ClassLabel("O2")


def so3() -> ClassLabel:
    return ClassLabel("SO3")


def o3() -> ClassLabel:
    return ClassLabel("SO3", 0, True)


def cyclic_minus(k: int) -> ClassLabel:
    return ClassLabel("Z-", k)


def dihedral_z(n: int) -> ClassLabel:
    return ClassLabel("Dz", n)


def dihedral_d(k: int) -> ClassLabel:
    return ClassLabel("Dd", k)


def octa_minus() -> ClassLabel:
    return ClassLabel("O-")


def o2_minus() -> ClassLabel:
    return ClassLabel("O2-")


def with_z2c(label: ClassLabel) -> ClassLabel:
    """The type II class H (+) Z2c for a type I class H."""
    return ClassLabel(label.kind, label.n, True)


def strip_z2c(label: ClassLabel) -> ClassLabel:
    """The type I part H of a type II class H (+) Z2c."""
    return ClassLabel(label.kind, label.n)


def proper_part(label: ClassLabel) -> ClassLabel:
    """Class of the intersection with SO(3) (the determinant +1 part):
    the kernel of a type III class."""
    if label.plus:
        return strip_z2c(label)
    row = TYPE_III.get(label.kind)
    return label if row is None else ClassLabel(row[1], label.n // row[2])


def tilde_part(label: ClassLabel) -> ClassLabel:
    """For a type III class, the rotation group obtained by negating the
    improper half (its envelope); identity on type I / II labels."""
    row = TYPE_III.get(label.kind)
    return label if row is None else ClassLabel(row[0], label.n)


def type3_class(envelope: ClassLabel, kernel: ClassLabel) -> ClassLabel | None:
    """The type III class with this envelope and kernel, the inverse of
    (``tilde_part``, ``proper_part``); None when no class has them.

    A type III class has its envelope's subscript, so the candidates are
    the at most two kinds of ``TYPE_III`` with the envelope's kind."""
    n = envelope.n
    for kind, (env, ker, divisor, _) in TYPE_III.items():
        if (env == envelope.kind and not envelope.plus and n % divisor == 0
                and ClassLabel(ker, n // divisor) is kernel):
            return ClassLabel(kind, n)
    return None


# group orders of the fixed finite rotation kinds
_ORDERS = {"1": 1, "T": 12, "O": 24, "I": 60}


@cache
def order_of(label: ClassLabel) -> float:
    """Group order; ``math.inf`` for the continuous classes.  A type III
    class has its envelope's order: x -> det(x) x maps it onto the
    envelope one to one.  Memoized, which is exact: labels are interned
    and the order depends on the label alone."""
    kind = label.kind
    if kind in INFINITE_KINDS:
        return math.inf
    if kind in TYPE_III:
        return order_of(tilde_part(label))
    base = _ORDERS.get(kind) or (label.n if kind == "Z" else 2 * label.n)
    return base * 2 if label.plus else base


def typeclass(label: ClassLabel) -> str:
    """'I' for rotation groups, 'II' for X+Z2c, 'III' for the rest."""
    if label.plus:
        return "II"
    return "III" if label.kind in TYPE_III else "I"


def is_infinite(label: ClassLabel) -> bool:
    return label.kind in INFINITE_KINDS


def _check_label(x) -> None:
    if not isinstance(x, ClassLabel):
        raise TypeError(f"a ClassSet holds ClassLabel, not {type(x).__name__}")


@cache
def sort_key(label: ClassLabel) -> tuple:
    """Deterministic total order: finite classes by (order, family, n),
    then the infinite ones in a fixed sequence.  Raises ``TypeError``
    for anything but a label, so a ``ClassSet`` holds labels only."""
    _check_label(label)
    if label.kind in INFINITE_KINDS:
        return (1, _INFINITE_SEQ.index((label.kind, label.plus)), 0, 0)
    rank = _FAMILY_RANK[label.kind] + (20 if label.plus else 0)
    return (0, order_of(label), rank, label.n)


def compare(a: ClassLabel, b: ClassLabel) -> int:
    ka, kb = sort_key(a), sort_key(b)
    return (ka > kb) - (ka < kb)


# The one spelling table.  A class is spelled either as one of the fixed
# spellings, or as a parametric head, its decimal subscript and one of
# the head's suffixes; a type II class appends ``+Z2c`` to the spelling
# of its rotation part, except that SO(3)+Z2c has the fixed spelling
# ``O(3)``.  ``parse_label``, ``format_label``, the position a parse
# error reports and the kinds and messages of ``ClassLabel`` all read
# these two dicts.
_FIXED_SPELLINGS = {
    "1": ("1", False), "T": ("T", False), "O": ("O", False),
    "I": ("I", False), "SO(2)": ("SO2", False), "O(2)": ("O2", False),
    "SO(3)": ("SO3", False), "O(3)": ("SO3", True),
    "O^-": ("O-", False), "O(2)^-": ("O2-", False),
}
_PARAMETRIC_SPELLINGS = {
    "Z": {"": "Z", "^-": "Z-"},
    "D": {"": "D", "^z": "Dz", "^d": "Dd"},
}
_Z2C = "+Z2c"

_FIXED_FORMS = {key: spelling for spelling, key in _FIXED_SPELLINGS.items()}
_PARAMETRIC_FORMS = {
    kind: (head, suffix)
    for head, suffixes in _PARAMETRIC_SPELLINGS.items()
    for suffix, kind in suffixes.items()
}


def family_spelling(kind: str) -> str:
    """A family's spelling without a subscript: ``Z^-``, ``D``, ``O(2)``."""
    if kind in _PARAMETRIC_FORMS:
        return "".join(_PARAMETRIC_FORMS[kind])
    return _FIXED_FORMS[kind, False]


def format_label(label: ClassLabel) -> str:
    """Canonical ASCII spelling of a class label."""
    kind, plus = label.kind, label.plus
    if (kind, plus) in _FIXED_FORMS:
        return _FIXED_FORMS[kind, plus]
    if kind in _PARAMETRIC_FORMS:
        head, suffix = _PARAMETRIC_FORMS[kind]
        base = f"{head}{label.n}{suffix}"
    else:
        base = _FIXED_FORMS[kind, False]
    return base + _Z2C if plus else base


def _subscript_end(core: str) -> int:
    """Index just past the ASCII digits that follow a one-letter head."""
    end = 1
    while end < len(core) and core[end] in "0123456789":
        end += 1
    return end


def _spelled_prefix(core: str) -> int:
    """Length of the longest prefix of ``core`` that begins a spelling:
    the start of a fixed spelling, or a parametric head with its digits
    and the start of one of its suffixes."""
    longest = max(len(commonprefix((core, s))) for s in _FIXED_SPELLINGS)
    suffixes = _PARAMETRIC_SPELLINGS.get(core[:1])
    if suffixes is not None:
        end = _subscript_end(core)
        longest = max(longest, end + max(len(commonprefix((core[end:], s)))
                                         for s in suffixes))
    return longest


def _parse_core(core: str) -> ClassLabel | None:
    """The class that ``core`` (a spelling without ``+Z2c``) names, or
    None when the table has no such spelling.  A subscript outside its
    family raises the constructor's ValueError."""
    if core in _FIXED_SPELLINGS:
        kind, plus = _FIXED_SPELLINGS[core]
        return ClassLabel(kind, 0, plus)
    suffixes = _PARAMETRIC_SPELLINGS.get(core[:1])
    if suffixes is None:
        return None
    end = _subscript_end(core)
    kind = suffixes.get(core[end:])
    if end == 1 or kind is None:
        return None
    return ClassLabel(kind, int(core[1:end]))


def _parse(text: str) -> ClassLabel:
    """The class that ``text`` spells; ``_Labels`` states the contract."""
    s = text.strip().replace(" ", "")
    plus = s.endswith(_Z2C)
    core = s[: -len(_Z2C)] if plus else s
    label = _parse_core(core)
    if label is None:
        pos = min(_spelled_prefix(core) + 1, max(len(core), 1))
        raise ValueError(
            f"cannot parse class label {text!r} (near position {pos})")
    if plus:
        if label.plus:
            raise ValueError(f"{text!r}: +Z2c applied twice")
        label = with_z2c(label)
    return label


class _Labels(dict):
    """The table of resolved spellings; ``parse_label`` is its
    ``__getitem__``, so a spelling seen before costs one dict probe.

    ``parse_label(spec)`` parses an ASCII class label and returns its
    canonical form.

    Parameters
    ----------
    spec : str or ClassLabel
        A spelling such as ``"D4"``, ``"Z6^-"``, ``"O(2)^-"`` or
        ``"D3+Z2c"``.  ``"+Z2c"`` marks the type II classes; ``"O(3)"``
        abbreviates ``SO(3)+Z2c``.  Spaces are ignored.  A label
        resolves to itself.

    Returns
    -------
    ClassLabel
        Canonical label; degenerate spellings collapse (``Z1`` to ``1``,
        ``D1`` to ``Z2``, ``D1^z`` to ``Z2^-``, ``D2^d`` to ``D2^z``).

    Raises
    ------
    ValueError
        ``cannot parse class label '...' (near position N)`` when the
        text is no spelling of the table.  N counts the characters
        before a trailing ``+Z2c``, from 1, and points one past the
        longest prefix that begins a spelling, or at the last character
        when the whole text is such a prefix.  A well-spelled label
        that names no group (``Z3^-``, ``D0``, ``Z4^-+Z2c``) raises the
        message of the constructor that rejects it.  A spec that raises
        is not stored, so it raises again on every call.
    TypeError
        When the spec is neither a ``ClassLabel`` nor a ``str`` (a
        ``str`` subclass such as ``numpy.str_`` parses); the message
        names its type.
    """

    def __missing__(self, spec: str | ClassLabel) -> ClassLabel:
        if not isinstance(spec, (ClassLabel, str)):
            raise TypeError(f"{type(spec).__name__} is not a class label or a str")
        label = spec if isinstance(spec, ClassLabel) else _parse(spec)
        # labels are interned, so a concurrent resolver stores the same one
        return self.setdefault(spec, label)


parse_label = _Labels().__getitem__


def canonicalize(label: ClassLabel) -> ClassLabel:
    """The canonical label of a label's fields; every label already is
    one, so this returns ``label``."""
    return ClassLabel(label.kind, label.n, label.plus)


class ClassSet:
    """Immutable, canonically sorted set of class labels."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[ClassLabel] = ()):
        self._items = tuple(sorted(dict.fromkeys(items), key=sort_key))

    def __iter__(self) -> Iterator[ClassLabel]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, label: ClassLabel) -> bool:
        _check_label(label)
        return label in self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassSet) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __or__(self, other: "ClassSet") -> "ClassSet":
        if not isinstance(other, ClassSet):
            return NotImplemented
        return ClassSet((*self._items, *other._items))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(i) for i in self._items) + "}"

    def labels(self) -> list[str]:
        return [format_label(i) for i in self._items]


def class_set(*specs: str | ClassLabel) -> ClassSet:
    """Build a ClassSet from labels or their spellings."""
    return ClassSet(map(parse_label, specs))
