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

Labels are interned: ``ClassLabel(kind, n, plus)`` returns the one
shared instance for those fields, so ``==`` and ``is`` agree and a
label hashes by identity.  A label built by hand with a degenerate
parameter, such as ``ClassLabel("Z", 1)``, is its own instance and
stays distinct from ``trivial()`` until ``canonicalize`` maps it there;
every factory and ``parse_label`` return canonical labels.
``parse_label``, ``canonicalize``, ``sort_key``, ``order_of`` and every
factory (``cyclic``, ``dihedral_d``, ``o3``, ...) are memoized on their
one argument, so a spelling, a class or a subscript repeated within a
workload is parsed, checked, ranked, counted or built once.  A
factory's memo is exact: a factory is a pure function of its subscript
and labels are interned, so the memo holds the pooled instance an
uncached call would return; and a memo stores no exception, so an
invalid subscript raises the factory's ``ValueError`` on every call.
"""

from __future__ import annotations

import math
from functools import cache
from os.path import commonprefix
from typing import Iterable, Iterator

# Label kinds.  'Z-' stores the printed subscript (an even number, the
# group order), as do 'Dz' and 'Dd'.  'Dd' subscripts are even and the
# group order is twice the subscript.
INFINITE_KINDS = frozenset({"SO2", "O2", "SO3", "O2-"})

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

_FAMILY_RANK = {
    "1": 0, "Z": 1, "D": 2, "T": 3, "O": 4, "I": 5,
    "Z-": 6, "Dz": 7, "Dd": 8, "O-": 9,
}

# Fixed presentation order for infinite classes.
_INFINITE_SEQ = (
    ("SO2", False), ("O2", False), ("SO2", True), ("O2", True),
    ("O2-", False), ("SO3", False), ("SO3", True),
)


class ClassLabel:
    """Conjugacy class label, one shared instance per field triple.

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

    Instances are immutable and interned on ``(kind, int(n),
    bool(plus))``, so equality and hashing are those of ``object``:
    identity.  The factories and ``parse_label`` build only canonical
    labels; ``canonicalize`` maps a hand-built one to its class.
    """

    __slots__ = ("kind", "n", "plus")

    kind: str
    n: int
    plus: bool

    def __new__(cls, kind: str, n: int = 0, plus: bool = False) -> ClassLabel:
        key = (kind, int(n), bool(plus))
        self = _POOL.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls.__slots__, key):
                object.__setattr__(self, name, value)
            # a concurrent builder of the same key may have won
            self = _POOL.setdefault(key, self)
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


def _base(kind: str, n: int = 0) -> ClassLabel:
    return ClassLabel(kind, n, False)


@cache
def trivial() -> ClassLabel:
    return _base("1")


@cache
def cyclic(n: int) -> ClassLabel:
    if n < 1:
        raise ValueError(f"Z_{n} is not a group")
    return trivial() if n == 1 else _base("Z", n)


@cache
def dihedral(n: int) -> ClassLabel:
    if n < 1:
        raise ValueError(f"D_{n} is not a group")
    return cyclic(2) if n == 1 else _base("D", n)


@cache
def tetra() -> ClassLabel:
    return _base("T")


@cache
def octa() -> ClassLabel:
    return _base("O")


@cache
def icosa() -> ClassLabel:
    return _base("I")


@cache
def so2() -> ClassLabel:
    return _base("SO2")


@cache
def o2() -> ClassLabel:
    return _base("O2")


@cache
def so3() -> ClassLabel:
    return _base("SO3")


@cache
def o3() -> ClassLabel:
    return ClassLabel("SO3", 0, True)


@cache
def cyclic_minus(k: int) -> ClassLabel:
    # the kernel Z_{k/2} (``TYPE_III``) needs an even subscript
    if k < 2 or k % 2:
        raise ValueError(f"Z_{k}^- is not a group (even subscript >= 2 required)")
    return _base("Z-", k)


@cache
def dihedral_z(n: int) -> ClassLabel:
    # D_1^z degenerates to Z_2^-
    if n < 1:
        raise ValueError(f"D_{n}^z is not a group")
    return cyclic_minus(2) if n == 1 else _base("Dz", n)


@cache
def dihedral_d(k: int) -> ClassLabel:
    # the kernel D_{k/2} needs an even subscript; D_2^d is conjugate to
    # D_2^z, and the z spelling is canonical
    if k < 2 or k % 2:
        raise ValueError(f"D_{k}^d is not a group (even subscript >= 2 required)")
    return dihedral_z(2) if k == 2 else _base("Dd", k)


@cache
def octa_minus() -> ClassLabel:
    return _base("O-")


@cache
def o2_minus() -> ClassLabel:
    return _base("O2-")


def with_z2c(label: ClassLabel) -> ClassLabel:
    """The type II class H (+) Z2c for a type I class H."""
    if label.plus:
        return label
    if label.kind in TYPE_III:
        raise ValueError(f"{label} already contains improper elements")
    return ClassLabel(label.kind, label.n, True)


def strip_z2c(label: ClassLabel) -> ClassLabel:
    """The type I part H of a type II class H (+) Z2c."""
    return ClassLabel(label.kind, label.n, False) if label.plus else label


def proper_part(label: ClassLabel) -> ClassLabel:
    """Class of the intersection with SO(3) (the determinant +1 part):
    the kernel of a type III class."""
    if label.plus:
        return strip_z2c(label)
    row = TYPE_III.get(label.kind)
    return label if row is None else _build(row[1], label.n // row[2])


def tilde_part(label: ClassLabel) -> ClassLabel:
    """For a type III class, the rotation group obtained by negating the
    improper half (its envelope); identity on type I / II labels."""
    row = TYPE_III.get(label.kind)
    return label if row is None else _build(row[0], label.n)


def type3_class(envelope: ClassLabel, kernel: ClassLabel) -> ClassLabel | None:
    """The type III class with this envelope and kernel, the inverse of
    (``tilde_part``, ``proper_part``); None when no class has them.

    A type III class has its envelope's subscript, so the candidates are
    the at most two kinds of ``TYPE_III`` with the envelope's kind."""
    n = envelope.n
    for kind, (env, ker, divisor, _) in TYPE_III.items():
        if (env == envelope.kind and not envelope.plus and n % divisor == 0
                and _build(ker, n // divisor) is kernel):
            return _build(kind, n)
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


@cache
def sort_key(label: ClassLabel) -> tuple:
    """Deterministic total order: finite classes by (order, family, n),
    then the infinite ones in a fixed sequence."""
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
# ``O(3)``.  ``parse_label``, ``format_label`` and the position a parse
# error reports all read these two dicts.
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

# The factory of each parametric kind, called on the printed subscript.
_BUILDERS = {
    "Z": cyclic, "D": dihedral,
    "Z-": cyclic_minus, "Dz": dihedral_z, "Dd": dihedral_d,
}
_FIXED_FORMS = {key: spelling for spelling, key in _FIXED_SPELLINGS.items()}
_PARAMETRIC_FORMS = {
    kind: (head, suffix)
    for head, suffixes in _PARAMETRIC_SPELLINGS.items()
    for suffix, kind in suffixes.items()
}


def _build(kind: str, n: int) -> ClassLabel:
    """The canonical class of a kind and a printed subscript, which the
    fixed kinds ignore."""
    if (kind, False) in _FIXED_FORMS:
        return _base(kind)
    return _BUILDERS[kind](n)


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
    if (kind, False) in _FIXED_FORMS:
        base = _FIXED_FORMS[kind, False]
    elif kind in _PARAMETRIC_FORMS:
        head, suffix = _PARAMETRIC_FORMS[kind]
        base = f"{head}{label.n}{suffix}"
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return base + _Z2C if plus else base


def _subscript_end(core: str) -> int:
    """Index just past the decimal digits that follow a one-letter head."""
    end = 1
    while end < len(core) and core[end].isdecimal():
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
    family raises the factory's ValueError."""
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
    return _BUILDERS[kind](int(core[1:end]))


@cache
def parse_label(text: str) -> ClassLabel:
    """Parse an ASCII class label and return its canonical form.

    Parameters
    ----------
    text : str
        A spelling such as ``"D4"``, ``"Z6^-"``, ``"O(2)^-"`` or
        ``"D3+Z2c"``.  ``"+Z2c"`` marks the type II classes; ``"O(3)"``
        abbreviates ``SO(3)+Z2c``.  Spaces are ignored.

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
        message of the factory that rejects it.
    """
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


@cache
def canonicalize(label: ClassLabel) -> ClassLabel:
    """Re-canonicalize a label built by hand (collapses degenerate n)."""
    out = _build(label.kind, label.n)
    return with_z2c(out) if label.plus else out


class ClassSet:
    """Immutable, canonically sorted set of class labels."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[ClassLabel] = ()):
        seen = dict.fromkeys(map(canonicalize, items))
        self._items = tuple(sorted(seen, key=sort_key))

    def __iter__(self) -> Iterator[ClassLabel]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, label: ClassLabel) -> bool:
        return canonicalize(label) in self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassSet) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __or__(self, other: "ClassSet") -> "ClassSet":
        return ClassSet((*self._items, *other._items))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(i) for i in self._items) + "}"

    def labels(self) -> list[str]:
        return [format_label(i) for i in self._items]


def class_set(*specs: str | ClassLabel) -> ClassSet:
    """Build a ClassSet from labels or their spellings."""
    return ClassSet(
        parse_label(s) if isinstance(s, str) else s for s in specs
    )
