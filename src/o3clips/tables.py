"""Closed-form clips cells: type II row against type III column.

Every cell of the two-column-family tables is a small set of classes
given by gcd/parity branches in the row parameter m and the column
parameter n.  clips_type2_type3 evaluates one cell and reports which
branch fired.  Cells and helpers:

* rows:    [Z_m+Z2c], [D_m+Z2c], [T+Z2c], [O+Z2c], [I+Z2c],
           [SO(2)+Z2c], [O(2)+Z2c]
* columns: [Z_2n^-], [D_n^z], [D_2n^d], [O^-], [O(2)^-]

Four cell families differ from the usual published form; the
brute-force oracles (tests) agree with the versions here.

* O^- column, T+Z2c and I+Z2c rows: [D_2] dropped.  A D_2 inside the
  intersection forces the whole 2-fold frame to be shared, and the
  only tetrahedral group containing a given D_2 frame is the one
  spanned by its body-diagonal 3-folds, so the intersection always
  contains a full T and the class [D_2] is never exact.
* D_n^z column, D_m+Z2c row, m even: [Z_{d_2}] added.  Aligning a
  secondary 2-fold of D_m to e_3 at generic azimuth leaves exactly
  {1, R(e_3, pi)}, a bare [Z_2], whenever n is even.
* D_2n^d column, D_m+Z2c row, m odd: [Z_2] and [Z_2^-] both added
  (the parity-selected gamma(m, n) supplies only one of them).  A
  secondary-to-secondary alignment at generic azimuth isolates
  {1, R(v, pi)}, and a mirror-to-mirror alignment isolates {1, sigma},
  for every parameter pair.
* O(2)^- column, finite rows other than Z_m+Z2c: the bare cyclic
  classes are dropped ([Z_m] for D_m+Z2c; [Z_2] for T+Z2c; [Z_2],
  [Z_3], [Z_4] for O+Z2c; [Z_2], [Z_3], [Z_5] for I+Z2c).  See the
  comment on the cell function: aligning the axial group with a k-fold
  axis that has a perpendicular half-turn always drags reflections in,
  so those intersections are [D_k^z], never bare [Z_k].  The only bare
  cyclic survivors are [Z_m] against Z_m+Z2c (no half-turns off-axis
  at all) and [Z_2] against D_m+Z2c with m odd (half-turn axes spaced
  pi/m have no perpendicular partner, and R(e_3, pi) is missing).

The two infinite rows ([SO(2)+Z2c], [O(2)+Z2c]) are kept exactly as
published for every column, including cells where the membership
oracle disagrees; the disagreements are pinned in the test suite.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .labels import (
    ClassLabel,
    ClassSet,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    format_label,
    icosa,
    o2,
    o2_minus,
    octa,
    octa_minus,
    so2,
    tetra,
    trivial,
    with_z2c,
)

_ROW_KINDS = ("Z", "D", "T", "O", "I", "SO2", "O2")
_COL_KINDS = ("Z-", "Dz", "Dd", "O-", "O2-")


def zee(n: int) -> ClassLabel:
    """Z_2 for even n, Z_2^- for odd n."""
    return cyclic(2) if n % 2 == 0 else cyclic_minus(2)


def gamma(m: int, n: int) -> tuple[ClassLabel, ...]:
    """Parity-selected order-4 (or order-2) classes.

    {D_2, D_2^z} for m, n both even; {D_2^z} for m even, n odd;
    {Z_2} for m odd, n even; {Z_2^-} for both odd.
    """
    if m % 2 == 0 and n % 2 == 0:
        return (dihedral(2), dihedral_z(2))
    if m % 2 == 0:
        return (dihedral_z(2),)
    if n % 2 == 0:
        return (cyclic(2),)
    return (cyclic_minus(2),)


def ell_octa(n: int) -> tuple[ClassLabel, ...]:
    """Common core of the D_2n^d x O+Z2c cell."""
    d3 = gcd(3, n)
    return (
        trivial(),
        cyclic(2),
        cyclic_minus(2),
        *gamma(n, 3),
        cyclic(d3),
        dihedral(d3),
        dihedral_z(d3),
    )


def _zminus(k: int) -> ClassLabel:
    # degenerate subscript: Z_1^- is just the trivial class
    return trivial() if k == 1 else cyclic_minus(k)


def _cell_zminus(row: ClassLabel, n: int) -> tuple[str, list[ClassLabel]]:
    if row.kind == "Z":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [cyclic_minus(2 * d)]
        return "m/d odd", [cyclic(d)]
    if row.kind == "D":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [cyclic_minus(2 * d), zee(n)]
        return "m/d odd", [cyclic(d), zee(n)]
    if row.kind == "T":
        return "", [cyclic(gcd(3, n)), zee(n)]
    if row.kind == "O":
        if n % 4 == 0:
            return "4|n", [cyclic(2), cyclic(gcd(3, n)), cyclic(4)]
        if n % 2 == 0:
            return "n even, 4 does not divide n", [
                cyclic(2), cyclic(gcd(3, n)), cyclic_minus(4),
            ]
        return "n odd", [cyclic_minus(2), cyclic(gcd(3, n))]
    if row.kind == "I":
        return "", [zee(n), cyclic(gcd(3, n)), cyclic(gcd(5, n))]
    if row.kind == "SO2":
        return "", [cyclic_minus(2 * n)]
    return "", [zee(n), cyclic_minus(2 * n)]


def _cell_dz(row: ClassLabel, n: int) -> tuple[str, list[ClassLabel]]:
    d2 = gcd(2, n)
    if row.kind == "Z":
        m = row.n
        d = gcd(m, n)
        if m % 2 == 0:
            return "m even", [cyclic(d), cyclic_minus(2)]
        return "m odd", [cyclic(d)]
    if row.kind == "D":
        m = row.n
        d = gcd(m, n)
        if m % 2 == 0:
            return "m even", [
                cyclic(d), cyclic(d2), cyclic_minus(2),
                dihedral_z(d2), dihedral_z(d),
            ]
        return "m odd", [
            cyclic(d), cyclic_minus(2), cyclic(d2), dihedral_z(d),
        ]
    if row.kind == "T":
        return "", [
            cyclic_minus(2), cyclic(d2), cyclic(gcd(3, n)), dihedral_z(d2),
        ]
    if row.kind == "O":
        d3, d4 = gcd(3, n), gcd(4, n)
        return "", [
            cyclic(d2), cyclic(d3), cyclic(d4), cyclic_minus(2),
            dihedral_z(d2), dihedral_z(d3), dihedral_z(d4),
        ]
    if row.kind == "I":
        d3, d5 = gcd(3, n), gcd(5, n)
        return "", [
            cyclic(d2), cyclic(d3), cyclic(d5), cyclic_minus(2),
            dihedral_z(d2), dihedral_z(d3), dihedral_z(d5),
        ]
    if row.kind == "SO2":
        return "", [cyclic_minus(2), cyclic(n)]
    return "", [dihedral_z(d2), dihedral_z(n)]


def _cell_dd(row: ClassLabel, n: int) -> tuple[str, list[ClassLabel]]:
    if row.kind == "Z":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [cyclic(2), cyclic_minus(2), cyclic_minus(2 * d)]
        if m % 2 == 0:
            return "m even, m/d odd", [cyclic(2), cyclic_minus(2), cyclic(d)]
        return "m odd", [cyclic(d)]
    if row.kind == "D":
        m = row.n
        d = gcd(m, n)
        if (m // d) % 2 == 0:
            return "m/d even", [
                *gamma(m, n), cyclic(2), cyclic_minus(2),
                cyclic_minus(2 * d), dihedral_d(2 * d),
            ]
        if m % 2 == 0:
            return "m even, m/d odd", [
                *gamma(m, n), cyclic(2), cyclic_minus(2),
                cyclic(d), dihedral(d), dihedral_z(d),
            ]
        return "m odd", [
            cyclic(2), cyclic_minus(2), cyclic(d), dihedral(d), dihedral_z(d),
        ]
    if row.kind == "T":
        return "", [
            cyclic(2), cyclic_minus(2), *gamma(2, n), cyclic(gcd(3, n)),
        ]
    if row.kind == "O":
        core = list(ell_octa(n))
        if n % 4 == 0:
            return "4|n", core + [
                dihedral(2), dihedral_z(2), cyclic(4), dihedral(4),
                dihedral_z(4),
            ]
        if n % 2 == 0:
            return "n even, 4 does not divide n", core + [
                dihedral(2), dihedral_z(2), cyclic_minus(4), dihedral_d(4),
            ]
        return "n odd", core + [dihedral_z(2)]
    if row.kind == "I":
        d3, d5 = gcd(3, n), gcd(5, n)
        return "", [
            cyclic(2), cyclic_minus(2),
            *gamma(2, n), *gamma(3, n), *gamma(5, n),
            cyclic(d3), dihedral(d3), dihedral_z(d3),
            cyclic(d5), dihedral(d5), dihedral_z(d5),
        ]
    if row.kind == "SO2":
        return "", [cyclic(2), cyclic_minus(2), cyclic_minus(2 * n)]
    return "", [zee(n), dihedral(gcd(2, n)), dihedral_z(2), dihedral_d(2 * n)]


def _cell_ominus(row: ClassLabel) -> tuple[str, list[ClassLabel]]:
    if row.kind == "Z":
        m = row.n
        if m % 4 == 0:
            return "4|m", [cyclic(gcd(3, m)), cyclic_minus(2), cyclic_minus(4)]
        return "4 does not divide m", [
            cyclic(gcd(2, m)), cyclic(gcd(3, m)), _zminus(gcd(2, m)),
        ]
    if row.kind == "D":
        m = row.n
        d3 = gcd(3, m)
        if m % 4 == 0:
            return "4|m", [
                cyclic(2), cyclic(d3), cyclic_minus(2), cyclic_minus(4),
                dihedral_z(d3), dihedral_z(2), dihedral_d(4),
            ]
        if m % 2 == 0:
            return "m even, 4 does not divide m", [
                cyclic(2), cyclic(d3), cyclic_minus(2),
                dihedral(2), dihedral_z(d3), dihedral_z(2),
            ]
        return "m odd", [
            cyclic(2), cyclic(d3), cyclic_minus(2), dihedral_z(d3),
        ]
    if row.kind == "T":
        return "", [
            cyclic(2), cyclic(3), cyclic_minus(2), dihedral_z(2), tetra(),
        ]
    if row.kind == "O":
        return "", [
            cyclic(2), cyclic(3), cyclic_minus(2), cyclic_minus(4),
            dihedral_z(2), dihedral_z(3), dihedral_d(4), octa_minus(),
        ]
    if row.kind == "I":
        return "", [
            cyclic(2), cyclic_minus(2), dihedral_z(2), cyclic(3),
            dihedral_z(3), tetra(),
        ]
    if row.kind == "SO2":
        return "", [cyclic(3), cyclic_minus(2), cyclic_minus(4)]
    return "", [cyclic_minus(2), dihedral_z(3), dihedral_d(4)]


def _cell_o2minus(row: ClassLabel) -> tuple[str, list[ClassLabel]]:
    # Finite rows follow the membership oracle.  A bare cyclic class
    # [Z_k], k >= 2, would need the axis of the axial group aligned with
    # a k-fold axis w of the rotation part H, but then every half-turn
    # axis of H perpendicular to w contributes a reflection to the
    # intersection, upgrading it to [D_k^z]; only axes with no
    # perpendicular half-turn in H keep a bare cyclic class.
    if row.kind == "Z":
        m = row.n
        return "", [cyclic(m), _zminus(gcd(2, m))]
    if row.kind == "D":
        m = row.n
        if m % 2 == 0:
            return "m even", [cyclic_minus(2), dihedral_z(2), dihedral_z(m)]
        return "m odd", [cyclic(2), cyclic_minus(2), dihedral_z(m)]
    if row.kind == "T":
        return "", [cyclic(3), cyclic_minus(2), dihedral_z(2)]
    if row.kind == "O":
        return "", [
            cyclic_minus(2), dihedral_z(2), dihedral_z(3), dihedral_z(4),
        ]
    if row.kind == "I":
        return "", [
            cyclic_minus(2), dihedral_z(2), dihedral_z(3), dihedral_z(5),
        ]
    if row.kind == "SO2":
        return "", [cyclic_minus(2), so2()]
    return "", [dihedral_z(2), o2_minus()]


def clips_type2_type3(row: ClassLabel, col: ClassLabel) -> tuple[str, ClassSet]:
    """Evaluate one closed-form cell.

    Parameters
    ----------
    row : ClassLabel
        A type II class: X+Z2c with X in {Z_m, D_m, T, O, I, SO(2), O(2)}.
    col : ClassLabel
        A type III class: Z_2n^-, D_n^z, D_2n^d, O^- or O(2)^-.

    Returns
    -------
    (branch, cell) : tuple[str, ClassSet]
        branch names the parameter condition that fired ("" when the
        cell is unconditional); cell always includes the trivial class.
    """
    if not (row.plus and row.kind in _ROW_KINDS):
        raise ValueError(f"not a table row class: {format_label(row)}")
    if row.kind in ("Z", "D") and row.n < 2:
        raise ValueError(f"row parameter out of range: {format_label(row)}")
    if col.plus or col.kind not in _COL_KINDS:
        raise ValueError(f"not a table column class: {format_label(col)}")
    if col.kind == "Z-":
        branch, cell = _cell_zminus(row, col.n // 2)
    elif col.kind == "Dz":
        branch, cell = _cell_dz(row, col.n)
    elif col.kind == "Dd":
        branch, cell = _cell_dd(row, col.n // 2)
    elif col.kind == "O-":
        branch, cell = _cell_ominus(row)
    else:
        branch, cell = _cell_o2minus(row)
    return branch, ClassSet([trivial(), *cell])


# family tag -> (class of parameter p, least p); _FIXED families take none
_PARAMETRIC = {
    "Z": (cyclic, 2), "D": (dihedral, 2),
    "Z-": (lambda n: cyclic_minus(2 * n), 1), "Dz": (dihedral_z, 2),
    "Dd": (lambda n: dihedral_d(2 * n), 1),
}
_FIXED = {"T": tetra, "O": octa, "I": icosa, "SO2": so2, "O2": o2,
          "O-": octa_minus, "O2-": o2_minus}


def _families(kinds: Sequence[str], params: range) -> list[ClassLabel]:
    out = []
    for kind in kinds:
        if kind in _FIXED:
            out.append(_FIXED[kind]())
        else:
            build, least = _PARAMETRIC[kind]
            out += [build(p) for p in params if p >= least]
    return out


def table_rows(kinds: Sequence[str], m_range: range) -> list[ClassLabel]:
    """The table's rows X+Z2c of the families ``kinds`` (tags of
    ``_ROW_KINDS``) in that order, Z_m and D_m over the m >= 2 of
    ``m_range``."""
    return [with_z2c(x) for x in _families(kinds, m_range)]


def table_cols(kinds: Sequence[str], n_range: range) -> list[ClassLabel]:
    """The table's columns of the families ``kinds`` (tags of
    ``_COL_KINDS``) in that order, Z_2n^- and D_2n^d over the n >= 1 of
    ``n_range``, D_n^z over its n >= 2."""
    return _families(kinds, n_range)
