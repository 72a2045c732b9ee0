"""One product, three routes: closed form, brute force, or both.

``clips`` is the public entry point for the conjugacy-class intersection
product on closed subgroups of O(3).  It takes labels or their
spellings; ``parse_label`` resolves a spelling to its interned label by
one dict probe once seen, and a label resolves to itself.  The symbolic
route passes the pair as given to ``infinite.clips_reduce``, which
answers every pair in closed form and a pair seen before, labels or
spellings, by two dict probes without parsing it.  ``infinite`` holds
the whole closed form: the memo, the reductions, the rule, the data
cells and the table's families, which ``verify_cells`` sweeps.  The
oracle route forces the brute-force computation and is therefore
restricted to pairs of finite classes.  The "both" route returns the
symbolic answer after cross-checking it against the oracle whenever
the pair is finite, raising ``ClipsMismatch`` on disagreement, so it
always compares a rule with brute force.  The oracle refuses an infinite
class, or one above its order cap, at the one gate of the matrix
layer, ``groups.reference_group``, with a ``GroupError`` (a
``ValueError``); "both" passes it on.  The symbolic route has no cap.

The matrix layer (numpy, ``oracle``, ``axial``) is imported on the
first brute-force call, so the symbolic route never loads it.

``class_leq`` decides the containment-up-to-conjugacy partial order
from the product alone: [a] <= [b] exactly when [a] is in [a] o [b], so
the order has no rules of its own.  ``clips_families`` extends the
product to unions of classes memberwise.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .infinite import (
    COL_KINDS,
    FINITE_KINDS,
    clips_reduce,
    table_cols,
    table_rows,
)
from .labels import (
    ClassLabel,
    ClassSet,
    class_set,
    format_label,
    is_infinite,
    parse_label,
)
# ``canonicalize`` is imported only for perfbench/spans.py, which traces it
from .labels import canonicalize  # noqa: F401

_METHODS = ("symbolic", "oracle", "both")


class ClipsMismatch(Exception):
    """Closed form and brute force disagree on a pair of classes."""

    def __init__(self, lhs: ClassLabel, rhs: ClassLabel,
                 symbolic: ClassSet, oracle: ClassSet):
        self.lhs = lhs
        self.rhs = rhs
        self.symbolic = symbolic
        self.oracle = oracle
        super().__init__(
            f"clips({format_label(lhs)}, {format_label(rhs)}): symbolic "
            f"{symbolic.labels()} != oracle {oracle.labels()}"
        )


def clips_oracle(rows: Sequence[ClassLabel],
                 cols: Sequence[ClassLabel]) -> list[list[ClassSet]]:
    """``oracle.clips_oracles``, imported on first use."""
    from .oracle import clips_oracles

    return clips_oracles(rows, cols)


def clips_axial(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """``axial.clips_axial``, imported on first use."""
    from .axial import clips_axial

    return clips_axial(a, b)


@lru_cache(maxsize=None)
def _oracle_after_strips(a: ClassLabel, b: ClassLabel) -> ClassSet:
    """The cached oracle answer for a pair.  No library path calls it:
    the benchmark's tracer wraps it and reads its ``cache_info``, and
    ROADMAP item 1 deletes it with that tracer target."""
    return clips_oracle((a,), (b,))[0][0]


def _oracle_check(a: ClassLabel, b: ClassLabel) -> ClassSet | None:
    """The oracle answer that ``method="both"`` checks a pair against,
    or None where no oracle checks the pair (an infinite class)."""
    if is_infinite(a) or is_infinite(b):
        return None
    return clips_oracle((a,), (b,))[0][0]


def clips(c1: str | ClassLabel, c2: str | ClassLabel,
          method: str = "symbolic", seed: int = 0) -> ClassSet:
    """Set of classes of intersections of c1 with all conjugates of c2.

    ``method="symbolic"`` answers every pair in closed form.
    ``method="oracle"`` sweeps a finite pair by brute force.
    ``method="both"`` checks the symbolic answer against the oracle on a
    finite pair.  The oracle raises ``groups.GroupError`` (a
    ``ValueError``) for an infinite class, or one above its order cap.
    ``seed`` has no effect: no route draws random numbers.
    """
    if method == "symbolic":
        return clips_reduce(c1, c2)
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    a, b = parse_label(c1), parse_label(c2)

    if method == "oracle":
        return clips_oracle((a,), (b,))[0][0]

    sym = clips(a, b)
    orc = _oracle_check(a, b)
    if orc is not None and sym != orc:
        raise ClipsMismatch(a, b, sym, orc)
    return sym


def clips_families(fam1: Iterable[str | ClassLabel],
                   fam2: Iterable[str | ClassLabel],
                   method: str = "symbolic") -> ClassSet:
    """Union of pairwise clips; the symmetry classes of a pair of tensors
    run over exactly this set when each factor runs over its own family."""
    left, right = class_set(*fam1), class_set(*fam2)
    # a list, not a generator, so that the clips calls run before
    # ClassSet() and not inside it, where perfbench/spans.py would count
    # them as children of ClassSet.__init__
    return ClassSet([c for a in left for b in right
                     for c in clips(a, b, method=method)])


def class_leq(c1: str | ClassLabel, c2: str | ClassLabel) -> bool:
    """Partial order: some representative of c1 sits inside one of c2.

    This is the clips product read at one member: [a] <= [b] exactly
    when [a] is in [a] o [b].  If the intersection K of a with some
    g b g^-1 is conjugate to a, then K is a closed subgroup of a with
    the dimension and the number of components of a, so K = a and a
    sits inside g b g^-1; conversely, a inside g b g^-1 makes K = a.
    """
    a, b = parse_label(c1), parse_label(c2)
    return a in clips(a, b)


class CellCheck(NamedTuple):
    """One cross-checked cell of the closed-form grid."""

    row: ClassLabel
    col: ClassLabel
    symbolic: ClassSet
    brute: ClassSet

    @property
    def match(self) -> bool:
        return self.symbolic == self.brute


def verify_cells(n_max: int = 8, m_max: int = 8,
                 seed: int = 0) -> Iterator[CellCheck]:
    """Sweep the closed-form grid against brute force, cell by cell.

    Rows are the finite type II classes Z_m+Z2c, D_m+Z2c for
    m = 2..m_max plus T+Z2c, O+Z2c, I+Z2c.  Columns are the type III
    classes Z_{2n}^-, D_{2n}^d for n = 1..n_max, D_n^z for
    n = 2..n_max, O^-, and O(2)^-.  Finite columns are checked with
    the matrix oracle, the O(2)^- column with the axial membership
    oracle.  ``seed`` has no effect: neither oracle draws random
    numbers.

    Every row against the distinct finite columns is swept by one
    oracle call, made when the first cell is drawn, so each distinct
    cell is swept once per call: the D_{2n}^d column at n = 1 is D2^z,
    which the D_n^z column also holds, and both cells read the one
    sweep.  The oracle sweeps the rows in blocks (``oracle._blocks``).
    """
    rows = table_rows(FINITE_KINDS, range(2, m_max + 1))
    cols = table_cols(COL_KINDS, range(1, n_max + 1))
    finite = tuple(dict.fromkeys(c for c in cols if not is_infinite(c)))
    for row, answers in zip(rows, clips_oracle(rows, finite)):
        swept = dict(zip(finite, answers))
        for col in cols:
            brute = clips_axial(row, col) if is_infinite(col) else swept[col]
            yield CellCheck(row, col, clips(row, col), brute)
