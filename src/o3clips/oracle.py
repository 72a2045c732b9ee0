"""Brute-force clips oracle for pairs of finite classes.

clips([H1], [H2]) is the set of conjugacy classes of H1 ∩ g H2 g^-1
over all rotations g.  Every element of a finite subgroup but ±Id is
s R(u, t) with s = ±1 and u on a structural axis line, so an
intersection that holds a non-central element puts an axis line of
g H2 g^T on one of H1's.  Such g align an axis of H2 to one of H1 and
then spin about it, and the sweep of aligners and spins below covers
them.  Every other intersection is central, and its class is stated
rather than swept: the g that put some axis line u of H2 on some axis
line w of H1 lie on finitely many circles in SO(3) (those with
g u = ±w are R(w, t) g0 over t, for two aligners g0), so some g avoids
them all, and for that g the intersection is H1 ∩ H2 ∩ {±Id}: ``1+Z2c``
when both classes hold -Id, ``1`` otherwise.  The axes, their cyclic
orders and their orbits come from ``groups.label_census``, the census
``recognize`` also reads.

The sweep is pruned exactly in three ways.  Replacing g by h1 g h2
(h_i in the reference groups) conjugates the intersection inside H1,
so axes only need to range over orbit representatives.  An axis a of
H2 only needs to go onto +b, not -b: a half turn that reverses a
normalizes H2, so it turns any g with g a = -b into one with g a = +b
and the same intersection.  And once an aligner g0 takes axis a of H2
onto axis b of H1, only finitely many spins R(b, t) about b matter:
the elements of R(b, t) g0 H2 g0^T R(b, t)^T on the line b (and ±Id)
do not move with t, and every other element can only meet H1 at the
solved angles where its axis line lands on an axis line of H1.  All
other angles give one and the same intersection, and its mask is
stated rather than swept: the mask of the bare aligner g0 restricted
to the elements of H2 on the line a and ±Id (see ``conjugators``).

Everything that depends on one class is computed once per class
(``_Prepped``): the flattened elements, a right-handed frame F_b per
orbit representative b, the azimuth and height about b of every
structural axis in that frame, and which elements lie on the line b.
What is left per pair is a few array passes.  Row i of a table
holds the solved angles of aligner i, one per pair of an axis of H1
and an image of an axis of H2, read off the two classes' azimuths,
with a mask that keeps only the pairs off the line b whose heights let
the spin land one on the other; each row is reduced to its distinct
angles, and one ``einsum`` spins every aligner by every angle of its
row.  Every conjugator is then conjugated, by one Kronecker product
per batch, and masked (``_distinct_masks``), and each distinct mask is
recognized from the census of H2 (``recognize(c2, mask)``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .labels import ClassLabel, ClassSet, is_infinite, order_of
from .groups import (
    ORDER_CAP,
    axis_orbit_reps,
    label_census,
    recognize,
    reference_group,
    structural_axes,
)
# ``rotation`` is imported only for perfbench/spans.py, which traces it
# by this name
from .rotations import EPS_MAT, orthogonal, rotation  # noqa: F401

# R(e3, t) = cos t P + sin t J + E: the plane projector, the quarter
# turn of the plane and the projector onto e3
_SPIN = np.array([np.diag([1.0, 1.0, 0.0]),
                  [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                  np.diag([0.0, 0.0, 1.0])])


class _Prepped:
    """Per-label oracle data: the flattened reference elements and the
    axis frames.

    A candidate h is a member when some element e lies within EPS_MAT
    of it entrywise, and only the Frobenius-nearest element can.  For
    orthogonal h and e, <h, e>_F = 3 - |h - e|_F^2 / 2, so the nearest
    element of every candidate is the argmax of one matrix product.
    Distinct elements are at least sqrt(2) sin(pi / 256) > 0.017 apart
    entrywise within the order cap (the bound is argued per family in
    ``groups.reference_group``), so at least as far in Frobenius norm,
    and an element within 1e-9 entrywise is within 3e-9 in Frobenius
    norm.  Its dot product therefore beats every other element's by
    about 1.5e-4, far above the ~1e-15 rounding of the product, and the
    entrywise test against the nearest element alone is exactly the
    membership predicate.

    For each axis orbit representative b (``axis_orbit_reps``, cyclic
    order ``orders``), ``frames`` holds the rotation F_b with rows
    (p, b x p, b), p orthogonal to b, so that F_b b = e3.  ``alpha``,
    ``z`` and ``off`` hold, per representative and per structural axis
    w, the azimuth of F_b w about e3, its height b.w along e3, and
    whether w lies off the line b.  ``online`` holds, per representative
    b and per element, whether the element is ±Id or rotates (up to
    sign) about the line b, read from the census ids of
    ``groups.label_census`` (id -1 is ±Id).

    Heights are compared to within 1e-9, and that is exact within the
    order cap.  A height is the cosine of the angle between two axes of
    one class.  Every finite class has one axis (Z_n, Z_n^-), axes
    among those of D_n with n <= 128 (D_n, D_n^z, D_n^d and their
    lifts), or axes among those of O or I.  Two axes of D_n make an angle j pi / n,
    so distinct dihedral heights |z| = cos x != cos y, x and y in
    [0, pi/2], are at least 2 sin((x + y) / 2) sin(|x - y| / 2) >=
    2 (x + y)|x - y| / pi^2 >= 2 / (128 * 16256) > 9e-7 apart, since
    x + y >= pi / 128 and |x - y| >= pi / (128 * 127).  The heights of
    O and I are finitely many, and the tests measure the smallest gap
    among all heights, these included: cos(pi/128) - cos(pi/127), about
    4.8e-6.  Computed heights carry the ~1e-15 rounding of the census
    axes, so equal heights differ by far less than 1e-9, and unequal
    ones by far more.
    """

    def __init__(self, label: ClassLabel):
        self.flat = reference_group(label).reshape(-1, 9)
        reps, self.orders = axis_orbit_reps(label)
        p = orthogonal(reps)
        self.frames = np.stack([p, np.cross(reps, p), reps], axis=1)
        x, y, self.z = np.moveaxis(self.frames @ structural_axes(label)[0].T, 1, 0)
        self.alpha = np.arctan2(y, x)
        self.off = np.hypot(x, y) > 1e-9
        ids = label_census(label)[2]
        self.online = np.hstack([~self.off, np.ones((len(reps), 1), bool)])[:, ids]

    def member_mask(self, cands: np.ndarray) -> np.ndarray:
        """Boolean mask over candidate matrices that lie in the group."""
        flat = cands.reshape(-1, 9)
        near = self.flat[(flat @ self.flat.T).argmax(axis=1)]
        hit = np.abs(near - flat).max(axis=1) < EPS_MAT
        return hit.reshape(cands.shape[:-2])


@lru_cache(maxsize=None)
def _prepped(label: ClassLabel) -> _Prepped:
    return _Prepped(label)


def _spin_table(solved: np.ndarray, valid: np.ndarray,
                period: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solved spin angles of every aligner, from its row of solved angles.

    Each row keeps its distinct valid angles modulo its period.  Returns
    them flattened and sorted row by row, with the row of each angle.
    """
    row, col = np.nonzero(valid)
    per = period[row]
    t = solved[row, col] % per
    # an angle a rounding error below the period is the angle 0
    t = np.where(per - t < 1e-9, 0.0, t)
    order = np.lexsort((t, row))
    t, row = t[order], row[order]
    new = (np.diff(t, prepend=-1.0) > 1e-9) | (np.diff(row, prepend=-1) != 0)
    return t[new], row[new]


def conjugators(c1: ClassLabel, c2: ClassLabel, seed: int = 0) -> np.ndarray:
    """Deterministic conjugator sweep for clips_oracle, shape (m, 3, 3).

    For each aligner g0 taking an axis orbit representative a (of H2,
    proper cyclic order m_a) to +b (b an orbit representative of H1,
    order m_b), the sweep takes spins R(b, t) g0 at the solved angles t,
    and g0 itself stands for every other angle.  This realizes every
    intersection that shares an axis line with H1 (see the module
    docstring):

    - composing with R(b, 2*pi/m_b) on the left or R(a, 2*pi/m_a) on
      the right leaves the intersection class unchanged (the right spin
      folds into a left one since g0 a = b), so t only matters modulo
      2*pi / lcm(m_a, m_b);
    - R(b, t) commutes with every element of g H2 g^T whose axis line
      is b, and with ±Id, so those elements do not depend on t;
    - any other element can equal an element of H1 only when its axis
      line lands on an axis line of H1.  A g0-image v of an axis of H2
      off the line b has azimuth alpha_v and height z_v = v.b about b,
      and an axis w of H1 off that line has alpha_w and z_w.  R(b, t)
      keeps heights, so it puts v on w only when z_v = z_w, exactly at
      t = alpha_w - alpha_v, and on -w only when z_v = -z_w, exactly at
      that plus pi.  Such a t need not be a rational multiple of pi, so
      it is solved for rather than swept: row g0 of the solved table
      lists both angles for every pair (v, w), with a mask that keeps
      an angle only where its heights match;
    - so at every t outside a row's solved set, R(b, t) g0 meets H1 in
      exactly the elements on the line b and ±Id that g0 itself puts in
      H1.  That generic intersection is stated, not swept: it is the
      mask of g0 restricted to ``_Prepped.online`` of a, which
      ``_distinct_masks`` applies to the aligner rows.

    Aligners onto -b are not needed.  For every finite class and each
    axis a of it, some half turn n with n a = -a normalizes the class:
    R(e1, pi) or R(e3, pi) for the cyclic and dihedral families and
    their lifts, a half turn of O for T, O and O^- (O normalizes all
    three), and one of I for I (the tests check every family).  So a g
    with g a = -b meets H1 in H1 ∩ g n H2 n^T g^T, the intersection of
    g n, which takes a to +b.

    Any aligner will do: the rotations taking a to b are R(b, phi) g0
    over phi, so another choice of g0 shifts every solved angle by phi
    and sweeps the same rotations.  The sweep takes g0 = F_b^T F_a from
    the frames of ``_Prepped``: F_a a = e3 and F_b^T e3 = b.  In b's
    frame an axis v of H2 then has its azimuth and height in a's frame,
    and R(b, t) = F_b^T R(e3, t) F_b.  So the solved table is the outer
    difference alpha_b(w) - alpha_a(v) of per-label azimuths, its mask
    compares per-label heights, and each conjugator is
    F_b^T R(e3, t) F_a = cos t A + sin t B + C, where A, B and C are
    F_b^T P F_a, F_b^T J F_a and F_b^T E F_a for the parts P, J and E
    of R(e3, t) = cos t P + sin t J + E.

    Rows: the k1 k2 aligners g0 (t = 0) in (b, a) order first, then the
    distinct solved spins of each aligner in the same order, each row's
    sorted.  When either class has no axis (``1``, ``1+Z2c``) the sweep
    is empty.  ``seed`` has no effect: the sweep draws no random
    numbers.
    """
    h1, h2 = _prepped(c1), _prepped(c2)
    k1, k2 = len(h1.orders), len(h2.orders)
    if k1 == 0 or k2 == 0:
        return np.empty((0, 3, 3))
    # aligners F_b^T F_a in (b, a) order; R(e3, t) puts F_a v on F_b w
    # at t = diff when their heights are equal, and on -F_b w at
    # t = diff + pi when they are opposite
    rows = k1 * k2
    diff = (h1.alpha[:, None, :, None] - h2.alpha[None, :, None, :]).reshape(rows, -1)
    z1, z2 = h1.z[:, None, :, None], h2.z[None, :, None, :]
    off = h1.off[:, None, :, None] & h2.off[None, :, None, :]
    same = (off & (np.abs(z1 - z2) < 1e-9)).reshape(rows, -1)
    opposite = (off & (np.abs(z1 + z2) < 1e-9)).reshape(rows, -1)
    period = 2.0 * np.pi / np.lcm.outer(h1.orders, h2.orders).ravel()
    t, row = _spin_table(np.hstack([diff, diff + np.pi]),
                         np.hstack([same, opposite]), period)
    # the aligners themselves (t = 0) first, then the solved spins
    t = np.concatenate([np.zeros(rows), t])
    row = np.concatenate([np.arange(rows), row])
    abc = np.einsum("bji,sjk,akl->basil", h1.frames, _SPIN, h2.frames)
    coef = np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=1)
    return np.einsum("ns,nsil->nil", coef, abc.reshape(rows, 3, 3, 3)[row])


def _distinct_masks(c1: ClassLabel, c2: ClassLabel) -> list[np.ndarray]:
    """The distinct membership masks of the sweep over the elements of
    the reference group of c2.

    Every conjugator g of ``conjugators`` conjugates H2, and the
    conjugates g x g^T are masked against H1, in batches that keep them
    and the (rows, |H1|) dot matrix of ``member_mask`` near 2.5e5
    floats.  In row-major flattening g x g^T is (g ⊗ g) x, so one batch
    of conjugates is one product of the flattened H2 with the batch's
    (rows, 9, 9) Kronecker squares.  The aligner rows, first in the
    sweep, stand for their generic spins, so their masks keep only the
    elements of H2 on the line a and ±Id (``_Prepped.online``).
    """
    prep, h2 = _prepped(c1), _prepped(c2)
    flat2 = h2.flat
    all_g = conjugators(c1, c2)
    line = np.tile(h2.online, (len(prep.orders), 1))
    step = max(1, int(2.5e5 // (order_of(c2) * max(9, order_of(c1)))))
    found: dict[bytes, np.ndarray] = {}
    for i in range(0, len(all_g), step):
        g = all_g[i : i + step]
        kron = (g[:, :, None, :, None] * g[:, None, :, None, :]).reshape(-1, 9, 9)
        conj = flat2 @ kron.transpose(0, 2, 1)
        masks = prep.member_mask(conj.reshape(len(g), len(flat2), 3, 3))
        head = line[i : i + step]
        masks[: len(head)] &= head
        for mask, key in zip(masks, np.packbits(masks, axis=1)):
            found.setdefault(key.tobytes(), mask)
    return list(found.values())


def clips_oracle(c1: ClassLabel, c2: ClassLabel) -> ClassSet:
    """Clips of two finite classes by exhaustive conjugation sweep.

    The sweep is ``conjugators``, and every conjugator in it is
    conjugated and masked (``_distinct_masks``); each distinct mask is
    recognized once, from the census of c2.  The central class, met at
    every g that puts no axis line of H2 on one of H1, is added without
    a sweep: ``1+Z2c`` when both classes hold -Id, ``1`` otherwise.

    Parameters
    ----------
    c1, c2 : ClassLabel
        Finite classes with order <= 256.

    Returns
    -------
    ClassSet
        All intersection classes found.
    """
    for c in (c1, c2):
        if is_infinite(c):
            raise ValueError(f"clips_oracle needs finite classes, got {c}")
        if order_of(c) > ORDER_CAP:
            raise ValueError(f"{c} exceeds the order cap {ORDER_CAP}")
    # H1 ∩ H2 ∩ {±Id}: 1+Z2c when both classes hold -Id, 1 otherwise
    center = ClassLabel("1", 0, c1.plus and c2.plus)
    masks = _distinct_masks(c1, c2)
    return ClassSet([center, *(recognize(c2, m) for m in masks)])
