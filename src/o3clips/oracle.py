"""Brute-force clips oracle for pairs of finite classes.

clips([H1], [H2]) is the set of conjugacy classes of H1 ∩ g H2 g^-1
over all rotations g.  Every element of a finite subgroup but ±Id is
s R(u, t) with s = ±1 and u on a structural axis line, so an
intersection that holds a non-central element puts an axis line of
g H2 g^T on one of H1's.  Such g align an axis of H2 to one of H1 and
then spin about it, and the finite sweep of aligners and spins that
``_sweeps`` builds realizes every such intersection.  Every other
intersection is central, and its class is stated rather than swept:
the g that put some axis line u of H2 on some axis line w of H1 lie on
finitely many circles in SO(3) (those with g u = ±w are R(w, t) g0
over t, for two aligners g0), so some g avoids them all, and for that
g the intersection is H1 ∩ H2 ∩ {±Id}: ``1+Z2c`` when both classes
hold -Id, ``1`` otherwise.  The axes, their cyclic orders and their
orbits come from ``groups.label_census``, the census ``recognize``
also reads.

The sweep is pruned exactly, as argued at ``_sweeps``: axes range over
orbit representatives, each axis of H2 goes onto +b only, and about
each aligner only the solved spin angles are swept, one stated mask
standing for every other angle.  Everything that depends on one class
is computed once per class (``_Prepped``), so a few array passes sweep
one class H1 against several H2 at once (``clips_oracles``;
``verify_cells`` makes one such call per row): ``_sweeps`` builds every
conjugator, ``_column_masks`` conjugates each H2 by them and masks the
conjugates against H1 in runs of whole columns, each against the one
element of H1 whose key (the key that orders every reference group,
``groups.reference_group``) is nearest its own (``_Prepped``), and each
distinct mask is recognized from the census of H2
(``recognize(c2, mask)``), which memoizes its answer per class and
mask.  The oracle refuses no class itself: the gate
``groups.reference_group`` does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .labels import ClassLabel, ClassSet, trivial, with_z2c
from .groups import (
    _KEY,
    axis_orbit_reps,
    recognize,
    reference_group,
    rep_line_mask,
    same_line,
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
    """Per-label oracle data: the flattened reference elements (``flat``)
    and the midpoints of their membership keys, the axis frames and the
    flat height tables.

    A candidate h is a member when some element e lies within EPS_MAT
    of it entrywise, and only the element of nearest key can.  The key
    is that of ``groups.reference_group``, k(x) = w . x with |w|_1 = 1,
    so |k(h) - k(e)| <= sum_i w_i |h_i - e_i| < EPS_MAT for a member, up
    to the ~1e-15 rounding of the two 9-term products.  The reference
    group comes sorted by key, its keys more than 3 EPS_MAT apart (the
    gate refuses any other class).  So every midpoint between
    neighbouring keys (``mids``) lies more than 1.5 EPS_MAT from k(e),
    and one ``searchsorted`` of k(h) among them lands on e.  A
    non-member fails the entrywise test against every element, so the
    test against the one element found is exactly the membership
    predicate.  ``near`` holds the elements as contiguous columns, so
    ``member_mask`` gathers each candidate's element as a column and
    reduces the 9 entries of all candidates as 9 long rows rather than
    one short row per candidate.

    For each axis orbit representative b (``axis_orbit_reps``, cyclic
    order ``orders``), ``frames`` holds the rotation F_b with rows
    (p, b x p, b), p orthogonal to b, so that F_b b = e3.  ``alpha`` and
    ``z`` hold, flat over (b, w) for each structural axis w, the azimuth
    of F_b w about e3 and its height b.w (NaN when w lies on the line b
    by ``groups.same_line``, as no comparison holds for NaN), and
    ``rep`` each entry's b.
    ``signed_alpha``, ``signed_z`` and ``signed_rep`` hold the same over
    (b, s, w) for the ends (-1)^s w, s = 0, 1: height (-1)^s b.w and
    azimuth alpha - pi s.  ``row_bytes`` is the void dtype of one mask
    over the elements.  ``parts`` holds F_b^T P, F_b^T J and F_b^T E per
    representative, for the parts P, J and E of
    R(e3, t) = cos t P + sin t J + E (``_SPIN``), so that a pair's spin
    coefficients are one batched product of them with the other class's
    frames (see ``_sweeps``).  ``online`` holds, per representative
    b and per element, whether the element is ±Id or rotates (up to
    sign) about the line b (``groups.rep_line_mask``).

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
        key = self.flat @ _KEY
        self.mids = (key[1:] + key[:-1]) / 2
        self.near = np.ascontiguousarray(self.flat.T)
        reps, self.orders = axis_orbit_reps(label)
        p = orthogonal(reps)
        self.frames = np.stack([p, np.cross(reps, p), reps], axis=1)
        self.parts = self.frames.transpose(0, 2, 1)[:, None] @ _SPIN
        axes = structural_axes(label)[0]
        x, y, z = np.moveaxis(self.frames @ axes.T, 1, 0)
        alpha, z = np.arctan2(y, x), np.where(same_line(reps, axes), np.nan, z)
        self.alpha, self.z = alpha.ravel(), z.ravel()
        self.rep = np.repeat(np.arange(len(reps)), z.shape[1])
        self.signed_alpha = np.stack([alpha, alpha - np.pi], axis=1).ravel()
        self.signed_z = np.stack([z, -z], axis=1).ravel()
        self.signed_rep = np.repeat(self.rep, 2)
        self.online = rep_line_mask(label)
        self.row_bytes = np.dtype((np.void, len(self.flat)))

    def member_mask(self, cands: np.ndarray) -> np.ndarray:
        """Boolean mask over candidate matrices that lie in the group:
        each candidate against the element of nearest key, entry by
        entry."""
        flat = cands.reshape(-1, 9)
        near = self.near.take(self.mids.searchsorted(flat @ _KEY), axis=1)
        near -= flat.T
        hit = (np.abs(near, out=near) < EPS_MAT).all(axis=0)
        return hit.reshape(cands.shape[:-2])


@lru_cache(maxsize=None)
def _prepped(label: ClassLabel) -> _Prepped:
    return _Prepped(label)


def _spin_table(t: np.ndarray, row: np.ndarray,
                period: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct solved spin angles of every aligner.

    ``t`` holds solved angles, ``row`` the aligner of each, and
    ``period`` the period of each aligner.  Each row keeps its distinct
    angles modulo its period.  Returns them flattened and sorted row by
    row, with the row of each angle.  After one ``argsort`` of the key
    row * 8 + t, an entry is new when it starts a row or lies more than
    1e-9 above its predecessor, read off two shifted slices of t and row
    in that order (not rebuilt from the key), and it stands for the
    smallest angle of its run.  Every t lies in [0, period), and a
    period is at most 2 pi < 8, so rows never interleave, and the
    rounded key is monotone in t.  So only angles closer than its
    rounding (about 8 rows 2^-52, far below 1e-9) can tie and swap;
    neither is new against the other, and the runs and their smallest
    angles are those of a sort by row and angle, however rows are
    numbered.
    """
    per = period[row]
    t = t % per
    # an angle a rounding error below the period is the angle 0
    t[per - t < 1e-9] = 0.0
    order = np.argsort(row * 8.0 + t)
    t, row = t[order], row[order]
    new = np.ones(len(t), dtype=bool)
    new[1:] = (t[1:] - t[:-1] > 1e-9) | (row[1:] != row[:-1])
    start = np.flatnonzero(new)
    return np.minimum.reduceat(t, start), row[start]


def _sweeps(c1: ClassLabel, cols: Sequence[ClassLabel]) -> list[np.ndarray]:
    """The conjugator sweep of c1 against each class of ``cols``, shape
    (m, 3, 3) per class, from one pass over their concatenated frames
    and signed heights.

    For each aligner g0 taking an axis orbit representative a (of H2,
    proper cyclic order m_a) to +b (b an orbit representative of H1,
    order m_b), the sweep takes spins R(b, t) g0 at the solved angles t,
    and g0 itself stands for every other angle.  This realizes every
    intersection that shares an axis line with H1 (see the module
    docstring), because the sweep is pruned exactly:

    - replacing g by h1 g h2 (h_i in the reference groups) conjugates
      the intersection inside H1, so a and b range over axis orbit
      representatives only;
    - aligners onto -b are not needed.  For every finite class and each
      axis a of it, some half turn n with n a = -a normalizes the
      class: R(e1, pi) or R(e3, pi) for the cyclic and dihedral
      families and their lifts, a half turn of O for T, O and O^- (O
      normalizes all three), and one of I for I (the tests check every
      family).  So a g with g a = -b meets H1 in H1 ∩ g n H2 n^T g^T,
      the intersection of g n, which takes a to +b;
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
      it is solved for rather than swept;
    - so at every t outside an aligner's solved set, R(b, t) g0 meets
      H1 in exactly the elements on the line b and ±Id that g0 itself
      puts in H1.  That generic intersection is stated, not swept: it
      is the mask of g0 restricted to ``_Prepped.online`` of a, which
      ``_column_masks`` applies to the aligner rows.

    Any aligner will do: the rotations taking a to b are R(b, phi) g0
    over phi, so another choice of g0 shifts every solved angle by phi
    and sweeps the same rotations.  The sweep takes g0 = F_b^T F_a from
    the frames of ``_Prepped``: F_a a = e3 and F_b^T e3 = b.  In b's
    frame an axis v of H2 then has its azimuth and height in a's frame,
    and R(b, t) = F_b^T R(e3, t) F_b.  So the solved angles are the
    differences alpha_b(w) - alpha_a(v) of per-label azimuths, taken
    where per-label heights match (a NaN height, on the line, matches
    none), and each conjugator is F_b^T R(e3, t) F_a =
    cos t A + sin t B + C, where A, B and C are F_b^T P F_a,
    F_b^T J F_a and F_b^T E F_a for the parts of R(e3, t) (``_SPIN``).
    H1's factors F_b^T {P, J, E} are per-label (``_Prepped.parts``), so
    A, B and C of every aligner come from one batched product with the
    frames of every H2, and the aligner is its spin by 0, A + C.
    Heights are compared as one 2-D table, H1's flat (b, w) against the
    signed (a, s, v) of every H2, whose entries carry their
    representatives and, for s = 1, the pi.

    Rows, per class of ``cols``: its k1 k2 aligners g0 in (b, a) order
    first, then the distinct solved spins of each aligner in the same
    order, each aligner's sorted (``_spin_table``).  When no heights
    match, the aligners are the whole sweep.  When either class has no
    axis (``1``, ``1+Z2c``) the sweep is empty.  An aligner's row, b
    times the representatives of all columns plus a's place among them,
    carries its column, and a stable regroup by column keeps each
    column's rows in the order a sweep of that column alone gives them.
    """
    h1, h2s = _prepped(c1), [_prepped(c) for c in cols]
    sizes = [len(h.orders) for h in h2s]
    k1, k2 = len(h1.orders), sum(sizes)
    frames = np.concatenate([h.frames for h in h2s])
    # A, B and C of every aligner in (b, a) order, a over all columns
    abc = (h1.parts[:, None] @ frames[None, :, None]).reshape(k1 * k2, 3, 9)
    g = (abc[:, 0] + abc[:, 2]).reshape(-1, 3, 3)
    row = np.arange(k1 * k2)
    # R(e3, t) puts F_a v on s F_b w at t = alpha(w) - alpha(v), plus pi
    # for s = -1, when z(w) = s z(v)
    signed_z = np.concatenate([h.signed_z for h in h2s])
    i, j = np.nonzero(np.abs(h1.z[:, None] - signed_z) < 1e-9)
    first = np.cumsum([0, *sizes[:-1]])
    alpha = np.concatenate([h.signed_alpha for h in h2s])
    rep = np.concatenate([h.signed_rep + f for h, f in zip(h2s, first)])
    orders = np.concatenate([h.orders for h in h2s])
    period = 2.0 * np.pi / np.lcm.outer(h1.orders, orders).ravel()
    t, spun = _spin_table(h1.alpha[i] - alpha[j], h1.rep[i] * k2 + rep[j],
                          period)
    # F_b^T R(e3, t) F_a = (cos t, sin t, 1) . (A, B, C)
    coef = np.ones((len(t), 1, 3))
    coef[:, 0, 0] = np.cos(t)
    coef[:, 0, 1] = np.sin(t)
    g = np.concatenate([g, (coef @ abc[spun]).reshape(-1, 3, 3)])
    row = np.concatenate([row, spun])
    col = np.repeat(np.arange(len(cols)), sizes)[row % k2]
    cuts = np.cumsum(np.bincount(col, minlength=len(cols)))[:-1]
    return np.split(g[np.argsort(col, kind="stable")], cuts)


def conjugators(c1: ClassLabel, c2: ClassLabel, seed: int = 0) -> np.ndarray:
    """The conjugator sweep of c1 against c2 alone, shape (m, 3, 3): the
    one-column case of ``_sweeps``, where the sweep is argued.  No
    library path calls it; perfbench's conjugator probe and the tests'
    reference checks read it.  ``seed`` has no effect: the sweep draws
    no random numbers.
    """
    return _sweeps(c1, (c2,))[0]


# candidates that one ``member_mask`` call takes, 9 floats each, unless
# one column brings more: 2^16 floats
_MASK_BATCH = 2 ** 16 // 9


def _column_masks(c1: ClassLabel,
                  cols: Sequence[ClassLabel]) -> list[list[np.ndarray]]:
    """Per class H2 of ``cols``, the distinct membership masks of the
    sweep over the elements of its reference group.

    Every conjugator g in H2's share of ``_sweeps`` conjugates H2, and
    the conjugates g x g^T are masked against H1 in runs of whole
    columns, one ``member_mask`` call per run, however many columns
    there are.  A run closes before a column that would push it past
    ``_MASK_BATCH`` candidates, and a larger column is a run of its own
    (within the order cap the largest is I+Z2c against D128^d, 17,664
    candidates).  In row-major flattening g x g^T is (g ⊗ g) x, so a
    column's conjugates are one 2-D product of the flattened H2 with the
    Kronecker squares of its whole sweep, (9, 9 rows) with the
    conjugator axis innermost, written into the run's candidates.  Each
    column's share of the run's mask is then read in one place.  Its
    aligner rows, first in its sweep, stand for their generic spins, so
    their masks keep only the elements of H2 on the line a and ±Id
    (``_Prepped.online``, one row per a, repeated for every b).  Its
    masks are told apart by their raw bytes, each row read as one void
    scalar.
    """
    prep, h2s = _prepped(c1), [_prepped(c) for c in cols]
    # no columns, no sweep: ``_sweeps`` has no column table to concatenate
    k1, sweeps = len(prep.orders), _sweeps(c1, cols) if cols else []
    # each run: (column, start, stop) of its candidates in the run
    runs, used = [], 0
    for j, (g, h2) in enumerate(zip(sweeps, h2s)):
        n = len(g) * len(h2.flat)
        if not runs or used + n > _MASK_BATCH:
            runs.append([])
            used = 0
        runs[-1].append((j, used, used + n))
        used += n
    masks = []
    for run in runs:
        cands = np.empty((run[-1][2], 9))
        for j, start, stop in run:
            x = h2s[j].flat
            # kron[(k, l), (p, q, r)] = g_r[p, k] g_r[q, l]
            gt = sweeps[j].transpose(2, 1, 0).copy()
            kron = (gt[:, None, :, None] * gt[None, :, None, :]).reshape(9, -1)
            cands[start:stop].reshape(-1, len(x), 9)[...] = (
                (x @ kron).reshape(len(x), 9, -1).transpose(2, 0, 1))
        hits = prep.member_mask(cands.reshape(-1, 3, 3))
        for j, start, stop in run:
            h2 = h2s[j]
            m = hits[start:stop].reshape(-1, len(h2.flat))
            head = m[: k1 * len(h2.orders)]
            head.reshape(k1, *h2.online.shape)[...] &= h2.online
            keys = m.view(h2.row_bytes).ravel().tolist()
            masks.append(list(dict(zip(keys, m)).values()))
    return masks


def clips_oracles(c1: ClassLabel,
                  cols: Sequence[ClassLabel]) -> list[ClassSet]:
    """Clips of a finite class with each of several, by one exhaustive
    conjugation sweep.

    The sweep is ``_sweeps`` of c1 against every class of ``cols`` at
    once, and every conjugator in it is conjugated and masked
    (``_column_masks``); each distinct mask is recognized once, from the
    census of its column's class.  The central class, met at every g
    that puts no axis line of H2 on one of H1, is added without a sweep:
    ``1+Z2c`` when both classes hold -Id, ``1`` otherwise.

    Parameters
    ----------
    c1 : ClassLabel
        A finite class of order at most ``ORDER_CAP``.
    cols : sequence of ClassLabel
        Finite classes of order at most ``ORDER_CAP``.

    Returns
    -------
    list of ClassSet
        All intersection classes found, one set per class of ``cols``,
        in its order.

    Raises
    ------
    GroupError
        For an infinite class, or one above the order cap: the gate
        ``groups.reference_group`` refuses it before the sweep starts.
    """
    return [
        # H1 ∩ H2 ∩ {±Id}: 1+Z2c when both classes hold -Id, 1 otherwise
        ClassSet([with_z2c(trivial()) if c1.plus and c2.plus else trivial(),
                  *(recognize(c2, m) for m in masks)])
        for c2, masks in zip(cols, _column_masks(c1, cols))
    ]


def clips_oracle(c1: ClassLabel, c2: ClassLabel) -> ClassSet:
    """Clips of two finite classes: ``clips_oracles`` of one column."""
    return clips_oracles(c1, (c2,))[0]
