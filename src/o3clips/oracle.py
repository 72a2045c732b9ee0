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
a block of classes H1 against several H2 at once (``clips_oracles``;
``verify_cells`` makes one such call per pass, and the rows are cut
into blocks whose height comparisons stay within a fixed budget,
``_blocks``): ``_sweeps`` builds every conjugator of a block, its
heights matched by sort and search,
``_column_masks`` conjugates each H2 by them and masks the conjugates
against each H1 in runs of whole columns, each against the one element
of H1 whose key (the key that orders every reference group,
``groups.reference_group``) is nearest its own, found by a bucket table
of the keys and searched only where a bucket holds a midpoint, and
entrywise only when the two keys are close enough for a member
(``_Prepped``), and each
distinct mask, told apart and handed on by its raw bytes, is
recognized from the census of H2 (``recognize(c2, mask)``), which
memoizes its answer per class and mask by those same bytes.  The
oracle refuses no class itself: the gate ``groups.reference_group``
does, for every class of a call before any block is swept.
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
    """Per-label oracle data: the flattened reference elements (``flat``),
    their sorted membership keys (``keys``) and the midpoints between
    them, the axis frames and the flat height tables.

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
    predicate.  The same bound prunes that test: a candidate whose key
    lies 1.5 EPS_MAT or more from the key of the element found is no
    member, so ``member_mask`` tests entrywise only the others.
    ``near`` holds the elements as contiguous columns, so
    ``member_mask`` gathers each tested candidate's element as a column
    and reduces the 9 entries of all of them as 9 long rows rather than
    one short row per candidate.

    ``nearest`` gives that ``searchsorted`` index by table lookup for
    most keys.  The bucket of a key x is f(x) = intp(clip((x - lo)
    scale, 0, nb)), with ``lo`` = keys[0], nb = 32 |H1| buckets over the
    key span, ``scale`` = nb / span, and bucket nb (``top``) for the
    top of the span and above (a one-element class has no span: nb = 0,
    and every key is in bucket 0).  ``first[b]`` is the number of
    midpoints whose bucket is below b, for b = 0, ..., nb + 1, in the
    smallest unsigned dtype that holds len(mids): one byte per bucket
    within the order cap.  f is monotone in floating point, as the
    subtraction, the product with a positive constant, the clip and the
    truncation of a non-negative value each are, rounding included.  So
    f(m) < f(x) implies m < x, and f(m) > f(x) implies m > x.  A key
    whose bucket b holds no midpoint (first[b + 1] == first[b]) thus
    lies above exactly the midpoints of the lower buckets, and first[b]
    is the ``searchsorted`` answer, with no rounding bound needed.  Only
    keys whose bucket holds a midpoint are searched: 2,050 of the 11,044
    candidates of ``verify_cells(3, 3)``.

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
    R(e3, t) = cos t P + sin t J + E (``_SPIN``), so that a block's spin
    coefficients are one 2-D product of them with the columns' frames
    (see ``_sweeps``).  ``online`` holds, per representative
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
        self.keys = self.flat @ _KEY
        self.mids = (self.keys[1:] + self.keys[:-1]) / 2
        # the bucket table of ``nearest``
        span = self.keys[-1] - self.keys[0]
        nb = 32 * len(self.keys) if span > 0 else 0
        self.lo, self.scale, self.top = self.keys[0], nb / (span or 1.0), nb
        self.first = self._bucket(self.mids).searchsorted(
            np.arange(nb + 2)).astype(np.min_scalar_type(len(self.mids)))
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
        each candidate against the element of nearest key (``nearest``),
        entry by entry, where the keys are close.

        The key test drops no member: a member h of element e has
        max_i |h_i - e_i| < EPS_MAT, so |k(h) - k(e)| <=
        sum_i w_i |h_i - e_i| < EPS_MAT (|w|_1 = 1), up to about 1e-15
        of rounding, well inside the 1.5 EPS_MAT kept.  The entrywise
        test stays the predicate; the key test only skips candidates it
        would refuse, and the gathered copy holds the tested ones
        alone."""
        flat = cands.reshape(-1, 9)
        key = flat @ _KEY
        idx = self.nearest(key)
        test = np.flatnonzero(np.abs(key - self.keys[idx]) < 1.5 * EPS_MAT)
        near = self.near.take(idx[test], axis=1)
        near -= flat[test].T
        hit = np.zeros(len(flat), dtype=bool)
        hit[test] = (np.abs(near, out=near) < EPS_MAT).all(axis=0)
        return hit.reshape(cands.shape[:-2])

    def _bucket(self, key: np.ndarray) -> np.ndarray:
        """f(key), clipped by two in-place ufuncs, which beat
        ``np.clip`` at these sizes."""
        b = key - self.lo
        b *= self.scale
        return np.maximum(np.minimum(b, self.top, out=b), 0, out=b).astype(np.intp)

    def nearest(self, key: np.ndarray) -> np.ndarray:
        """``mids.searchsorted(key)``: read off the bucket table where a
        key's bucket holds no midpoint, searched where it does (see
        ``_Prepped``)."""
        b = self._bucket(key)
        idx = self.first.take(b)
        hard = np.flatnonzero(self.first[1:].take(b) != idx)
        idx[hard] = self.mids.searchsorted(key[hard])
        return idx


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
    rounding can tie and swap; neither is new against the other, and
    the runs and their smallest angles are those of a sort by row and
    angle, however rows are numbered.

    For R aligners the key is below 8 R, and its rounding below
    8 R 2^-53.  In a block of several rows of ``_sweeps`` the rows' flat
    heights times the columns' signed ones (``_blocks``) are at most
    ``_BATCH`` = 2^16, and at least 2 R: each representative brings at
    least one flat height to the rows' side and two signed ones to the
    columns'.  So R <= 2^15 and the rounding
    is below 2^-35, about 3e-11.
    A block of one row has at most 3 representatives (no finite class
    has more axis orbits), as has each column, so R <= 9 per column and
    the rounding is below 1e-14 per column: 2e-12 for the 191 distinct
    finite columns of ``verify_cells(64, 64)``.  Both are far below
    1e-9.
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


def _height_matches(z: np.ndarray,
                    signed_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of heights with z[i] within 1e-9 of signed_z[j],
    i ascending: signed_z sorted once, each z[i]'s window found by two
    ``searchsorted`` calls, and the windows expanded.  NaN sorts last,
    so a NaN signed height lies in no window, and a NaN z[i] searches to
    the end for "right" but to the first NaN for "left": its count comes
    out negative or 0, and is clamped to 0."""
    order = np.argsort(signed_z, kind="stable")
    s = signed_z[order]
    lo = s.searchsorted(z - 1e-9, "right")
    count = np.maximum(s.searchsorted(z + 1e-9) - lo, 0)
    i = np.repeat(np.arange(len(z)), count)
    skip = np.repeat(lo - np.cumsum(count) + count, count)
    return i, order[skip + np.arange(len(i))]


def _sweeps(rows: Sequence[ClassLabel],
            cols: Sequence[ClassLabel]) -> list[list[np.ndarray]]:
    """The conjugator sweep of each class H1 of ``rows`` against each
    class H2 of ``cols``, shape (m, 3, 3) per pair, listed row by row,
    from one pass over the rows' concatenated tables and the columns'
    concatenated frames and signed heights.

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
    A, B and C of every aligner come from one 2-D product of every
    row's factors with the frames of every column, and the aligner is
    its spin by 0, A + C.  Heights are matched by sort and search
    (``_height_matches``): the signed (a, s, v) heights of every column,
    which carry their representatives and, for s = 1, the pi, are
    sorted once, and the flat (b, w) height of every row finds its
    matches among them by two ``searchsorted`` calls, in memory linear
    in the heights and the matches, not in their product.  The matched
    pairs are those of comparing every row height with every column
    height: heights are equal to about 1e-15 or more than 9e-7 apart
    (``_Prepped``), so the window 1e-9 wide holds the same heights
    whichever side is shifted, and ``_spin_table``'s output does not
    depend on the order of its input.  Every match belongs to one row
    and one column, so no angle is solved for a pair that is not swept.

    Rows, per pair: its k1 k2 aligners g0 in (b, a) order first, then
    the distinct solved spins of each aligner in the same order, each
    aligner's sorted (``_spin_table``).  When no heights match, the
    aligners are the whole sweep.  When either class has no axis
    (``1``, ``1+Z2c``) the sweep is empty.  An aligner is numbered b
    times the representatives of all columns plus a, b counted over all
    rows and a over all columns, which names its pair, and a stable
    regroup by pair keeps each pair's rows in the order a sweep of that
    pair alone gives them.
    """
    if not (rows and cols):
        # nothing to sweep, and no table to concatenate
        return [[] for _ in rows]
    h1s, h2s = [_prepped(c) for c in rows], [_prepped(c) for c in cols]
    size1, size2 = [len(h.orders) for h in h1s], [len(h.orders) for h in h2s]
    k1, k2 = sum(size1), sum(size2)
    parts = np.concatenate([h.parts for h in h1s])
    frames = np.concatenate([h.frames for h in h2s])
    # A, B and C of every aligner in (b, a) order, b over all rows and a
    # over all columns: one 2-D product of the rows' parts, rows
    # (b, part, i), with the columns' frames, columns (a, l)
    abc = (parts.reshape(-1, 3) @ frames.transpose(1, 0, 2).reshape(3, -1)
           ).reshape(k1, 3, 3, k2, 3).transpose(0, 3, 1, 2, 4).reshape(-1, 3, 9)
    g = (abc[:, 0] + abc[:, 2]).reshape(-1, 3, 3)
    # R(e3, t) puts F_a v on s F_b w at t = alpha(w) - alpha(v), plus pi
    # for s = -1, when z(w) = s z(v)
    i, j = _height_matches(np.concatenate([h.z for h in h1s]),
                           np.concatenate([h.signed_z for h in h2s]))
    alpha = np.concatenate([h.alpha for h in h1s])
    signed_alpha = np.concatenate([h.signed_alpha for h in h2s])
    rep = np.concatenate([
        h.rep + f for h, f in zip(h1s, np.cumsum([0, *size1[:-1]]))])
    signed_rep = np.concatenate([
        h.signed_rep + f for h, f in zip(h2s, np.cumsum([0, *size2[:-1]]))])
    orders = np.concatenate([h.orders for h in h1s])
    period = 2.0 * np.pi / np.lcm.outer(
        orders, np.concatenate([h.orders for h in h2s])).ravel()
    t, spun = _spin_table(alpha[i] - signed_alpha[j],
                          rep[i] * k2 + signed_rep[j], period)
    # F_b^T R(e3, t) F_a = (cos t, sin t, 1) . (A, B, C)
    coef = np.ones((len(t), 3))
    coef[:, 0], coef[:, 1] = np.cos(t), np.sin(t)
    g = np.concatenate(
        [g, np.einsum("tp,tpk->tk", coef, abc[spun]).reshape(-1, 3, 3)])
    aligner = np.concatenate([np.arange(k1 * k2), spun])
    # the pair of each conjugator, row-major over rows and columns
    pair = (np.repeat(np.arange(len(rows)), size1)[aligner // k2] * len(cols)
            + np.repeat(np.arange(len(cols)), size2)[aligner % k2])
    # one array per row, so that each row's sweep can be freed once it
    # is masked, cut into its pairs by plain slices
    w, order = len(cols), np.argsort(pair, kind="stable")
    cuts = [0, *np.cumsum(np.bincount(pair, minlength=len(rows) * w)).tolist()]
    swept = []
    for i in range(0, len(rows) * w, w):
        lo, row = cuts[i], g[order[cuts[i]:cuts[i + w]]]
        swept.append([row[a - lo:b - lo]
                      for a, b in zip(cuts[i:i + w], cuts[i + 1:i + w + 1])])
    return swept


def conjugators(c1: ClassLabel, c2: ClassLabel, seed: int = 0) -> np.ndarray:
    """The conjugator sweep of c1 against c2 alone, shape (m, 3, 3): the
    one-row, one-column case of ``_sweeps``, where the sweep is argued.
    No library path calls it; perfbench's conjugator probe and the
    tests' reference checks read it.  ``seed`` has no effect: the sweep
    draws no random numbers.
    """
    return _sweeps((c1,), (c2,))[0][0]


# what one batch holds: a block's height comparisons in ``_sweeps``
# (its rows' flat heights times the columns' signed heights, which also
# bound ``_spin_table``'s key rounding), or the floats of one
# ``member_mask`` call's candidates, 9 each, unless one item (a row's
# comparisons, a column's candidates) brings more
_BATCH = 2 ** 16


def _runs(sizes: Sequence[int]) -> list[list[int]]:
    """The indices of ``sizes`` cut into consecutive runs: a run closes
    before an item that would push its total past ``_BATCH``, and a
    larger item is a run of its own."""
    runs, used = [], 0
    for i, n in enumerate(sizes):
        if not runs or used + n > _BATCH:
            runs.append([])
            used = 0
        runs[-1].append(i)
        used += n
    return runs


def _blocks(rows: Sequence[ClassLabel],
            cols: Sequence[ClassLabel]) -> list[list[ClassLabel]]:
    """``rows`` cut into the blocks that ``clips_oracles`` sweeps one at
    a time against all of ``cols``: a block's height comparisons in
    ``_sweeps``, its rows' flat heights times every column's signed
    ones, stay within ``_BATCH`` unless the block is one row.
    Every row and column is prepared here, so the gate refuses a class
    before any block is swept."""
    width = sum(len(_prepped(c).signed_z) for c in cols)
    sizes = [len(_prepped(c).z) * width for c in rows]
    return [[rows[i] for i in run] for run in _runs(sizes)]


def _conjugates(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g x g^T for every flattened x (n, 9) and every g (m, 3, 3), shape
    (m, n, 9): one 2-D product of x with the Kronecker squares g ⊗ g,
    (9, 9 m) with the conjugator axis innermost.  The squares are freed
    on return, before the caller masks what it wrote."""
    # kron[(k, l), (p, q, r)] = g_r[p, k] g_r[q, l]
    gt = g.transpose(2, 1, 0).copy()
    kron = (gt[:, None, :, None] * gt[None, :, None, :]).reshape(9, -1)
    return (x @ kron).reshape(len(x), 9, -1).transpose(2, 0, 1)


def _column_masks(rows: Sequence[ClassLabel], cols: Sequence[ClassLabel]
                  ) -> list[list[dict[bytes, None]]]:
    """Per class H1 of ``rows`` and per class H2 of ``cols``, the
    distinct membership masks of the pair's sweep over the elements of
    H2's reference group, from one ``_sweeps`` of the rows as one block,
    each as its raw bytes (one byte per element), the keys of a dict in
    the order the sweep first meets them.

    Every conjugator g in a pair's share of the sweep conjugates H2, and
    the conjugates g x g^T are masked against H1 in runs of whole
    columns of H1's row, one ``member_mask`` call per run, however many
    columns there are.  A run closes before a column that would push it
    past ``_BATCH`` floats of candidates, and a larger column is a run
    of its own (within the order cap the largest is I+Z2c against
    D128^d, 17,664 candidates).  In row-major flattening g x g^T is
    (g ⊗ g) x, so a pair's conjugates are one 2-D product of the
    flattened H2 with the Kronecker squares of its whole sweep
    (``_conjugates``), written into the run's candidates.  A row's sweep
    is dropped once its columns are masked.  Each column's share of the
    run's mask is then read in one place.  Its aligner rows, first in
    its sweep, stand for their generic spins, so their masks keep only
    the elements of H2 on the line a and ±Id (``_Prepped.online``, one
    row per a, repeated for every b).  Its masks are told apart by their
    raw bytes, each row read as one void scalar, and those bytes are
    handed on as they are: they are the key that ``recognize`` memoizes
    a mask by.  A dict, not a set, keeps their order free of the hash
    seed.
    """
    h2s, masks = [_prepped(c) for c in cols], []
    # popped row by row, so that each row's sweep is freed once masked
    swept = _sweeps(rows, cols)[::-1]
    for c1 in rows:
        prep, row, sweeps = _prepped(c1), [], swept.pop()
        k1 = len(prep.orders)
        counts = [len(g) * len(h2.flat) for g, h2 in zip(sweeps, h2s)]
        for run in _runs([9 * n for n in counts]):
            # (column, start, stop) of each column's candidates in the run
            stops = np.cumsum([counts[j] for j in run]).tolist()
            run = list(zip(run, [0, *stops[:-1]], stops))
            cands = np.empty((stops[-1], 9))
            for j, start, stop in run:
                x = h2s[j].flat
                cands[start:stop].reshape(-1, len(x), 9)[...] = (
                    _conjugates(x, sweeps[j]))
            hits = prep.member_mask(cands.reshape(-1, 3, 3))
            for j, start, stop in run:
                h2 = h2s[j]
                m = hits[start:stop].reshape(-1, len(h2.flat))
                head = m[: k1 * len(h2.orders)]
                head.reshape(k1, *h2.online.shape)[...] &= h2.online
                row.append(dict.fromkeys(m.view(h2.row_bytes).ravel().tolist()))
        masks.append(row)
    return masks


def clips_oracles(rows: Sequence[ClassLabel],
                  cols: Sequence[ClassLabel]) -> list[list[ClassSet]]:
    """Clips of each of several finite classes with each of several, by
    exhaustive conjugation sweeps, one per block of rows.

    The rows are cut into blocks (``_blocks``), each block is swept
    against every class of ``cols`` at once (``_sweeps``), and every
    conjugator in the sweep is conjugated and masked
    (``_column_masks``); each distinct mask is recognized once, from the
    census of its column's class.  A block's arrays are dropped before
    the next block is swept.  The central class, met at every g that
    puts no axis line of H2 on one of H1, is added without a sweep:
    ``1+Z2c`` when both classes hold -Id, ``1`` otherwise.

    Parameters
    ----------
    rows : sequence of ClassLabel
        Finite classes of order at most ``ORDER_CAP``.
    cols : sequence of ClassLabel
        Finite classes of order at most ``ORDER_CAP``.

    Returns
    -------
    list of list of ClassSet
        All intersection classes found, one list per class of ``rows``
        and in it one set per class of ``cols``, in their orders.

    Raises
    ------
    GroupError
        For an infinite class, or one above the order cap: the gate
        ``groups.reference_group`` refuses it before any block is swept.
    """
    return [
        [
            # H1 ∩ H2 ∩ {±Id}: 1+Z2c when both classes hold -Id, 1
            # otherwise
            ClassSet([with_z2c(trivial()) if c1.plus and c2.plus
                      else trivial(), *(recognize(c2, m) for m in masks)])
            for c2, masks in zip(cols, row)
        ]
        for block in _blocks(rows, cols)
        for c1, row in zip(block, _column_masks(block, cols))
    ]


def clips_oracle(c1: ClassLabel, c2: ClassLabel) -> ClassSet:
    """Clips of two finite classes: ``clips_oracles`` of one row and one
    column."""
    return clips_oracles((c1,), (c2,))[0][0]
