"""Brute-force clips oracle for pairs of finite classes.

clips([H1], [H2]) is the set of conjugacy classes of H1 ∩ g H2 g^-1
over all rotations g.  For the closed subgroups handled here every
intersection class is realized with g aligning a structural axis of H2
to one of H1 (plus a rotation about that axis), so a finite sweep of
aligners and axis rotations is exhaustive.  An intersection with no
aligned axes holds only ±Id; aligning one seeded generic axis per class
realizes it, as at the generic spin about it no axis lines of H1 and
g H2 g^T meet.  The axes, their cyclic orders and their orbits
come from ``groups.axis_census``, the census ``recognize`` also uses.

The sweep is pruned exactly in two ways.  Replacing g by h1 g h2 (h_i
in the reference groups) conjugates the intersection inside H1, so
axes only need to range over orbit representatives.  And once an
aligner g0 takes axis a of H2 to the line of axis b of H1, only
finitely many spins R(b, t) about b matter: the elements of
R(b, t) g0 H2 g0^T R(b, t)^T on the line b (and ±Id) do not move with
t, and every other element can only meet H1 at the solved angles
where its axis line lands on an axis line of H1.  All other angles
give one and the same intersection, so one generic angle stands for
them (see ``conjugators``).
"""

from __future__ import annotations

import math
import zlib
from functools import lru_cache

import numpy as np

from .labels import ClassLabel, ClassSet, format_label, is_infinite, order_of
from .groups import (
    ORDER_CAP,
    axis_orbit_reps,
    recognize,
    reference_group,
    structural_axes,
)
from .rotations import (
    EPS_MAT,
    IDENTITY,
    align,
    rotation,
    unit,
)


class _Prepped:
    """Per-label matching structure: the flattened reference elements.

    A candidate h is a member when some element e lies within EPS_MAT
    of it entrywise, and only the Frobenius-nearest element can.  For
    orthogonal h and e, <h, e>_F = 3 - |h - e|_F^2 / 2, so the nearest
    element of every candidate is the argmax of one matrix product.
    Distinct elements are at least MIN_SEPARATION = 1e-2 apart
    (``close_group`` checks it), and an element within 1e-9 entrywise
    is within 3e-9 in Frobenius norm.  Its dot product therefore beats
    every other element's by about 5e-5, far above the ~1e-15 rounding
    of the product, and the entrywise test against the nearest element
    alone is exactly the membership predicate.
    """

    def __init__(self, label: ClassLabel):
        self.flat = reference_group(label).reshape(-1, 9)

    def member_mask(self, cands: np.ndarray) -> np.ndarray:
        """Boolean mask over candidate matrices that lie in the group."""
        flat = cands.reshape(-1, 9)
        near = self.flat[(flat @ self.flat.T).argmax(axis=1)]
        hit = np.abs(near - flat).max(axis=1) < EPS_MAT
        return hit.reshape(cands.shape[:-2])


@lru_cache(maxsize=None)
def _prepped(label: ClassLabel) -> _Prepped:
    return _Prepped(label)


def pair_rng(c1: ClassLabel, c2: ClassLabel, seed: int) -> np.random.Generator:
    """Seeded generator of both oracles' generic draws for one pair."""
    tag = f"{format_label(c1)}|{format_label(c2)}|{seed}".encode()
    return np.random.default_rng(zlib.crc32(tag))


def _candidate_axes(
    label: ClassLabel, rng: np.random.Generator
) -> list[tuple[np.ndarray, int]]:
    """Axis orbit representatives with the proper cyclic order about
    each, plus one seeded generic axis (order 1)."""
    generic = rng.normal(size=3)
    reps, orders = axis_orbit_reps(label)
    return [*zip(reps, orders.tolist()), (generic / np.linalg.norm(generic), 1)]


def _perp_frame(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probe = np.array([1.0, 0.0, 0.0]) if abs(b[0]) < 0.9 else np.array(
        [0.0, 1.0, 0.0]
    )
    p = unit(np.cross(b, probe))
    return p, np.cross(b, p)


def _solved_angles(
    g0: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    all1: np.ndarray,
    all2: np.ndarray,
) -> np.ndarray:
    """Spin angles about b = p x q that carry some g0-image of an axis of H2
    onto an axis line of H1.  An intersection class with two or more
    distinct axis lines is only realized when a second pair of axes
    lines up, and the required azimuth need not be a rational multiple
    of pi, so these angles have to be solved for rather than swept."""
    imgs = all2 @ g0.T
    alphas = []
    for v in (imgs, all1):
        perp = np.stack([v @ p, v @ q], axis=1)
        norms = np.linalg.norm(perp, axis=1)
        keep = perp[norms > 1e-9]
        alphas.append(np.arctan2(keep[:, 1], keep[:, 0]))
    if alphas[0].size == 0 or alphas[1].size == 0:
        return np.empty(0)
    diff = alphas[1][:, None] - alphas[0][None, :]
    return np.concatenate([diff.ravel(), diff.ravel() + np.pi])


def _spin_angles(solved: np.ndarray, period: float) -> np.ndarray:
    """The distinct solved angles modulo ``period`` plus one generic
    angle: the midpoint of the largest gap between them, cyclically,
    or 0 when there are none."""
    solved = solved % period
    # an angle a rounding error below the period is the angle 0
    solved = np.sort(np.where(period - solved < 1e-9, 0.0, solved))
    solved = solved[np.diff(solved, prepend=-1.0) > 1e-9]
    if solved.size == 0:
        return np.zeros(1)
    gaps = np.diff(solved, append=solved[0] + period)
    k = int(np.argmax(gaps))
    generic = (solved[k] + gaps[k] / 2.0) % period
    return np.append(solved, generic)


def conjugators(c1: ClassLabel, c2: ClassLabel, seed: int = 0) -> np.ndarray:
    """Deterministic conjugator sweep for clips_oracle, shape (m, 3, 3).

    For each aligner g0 taking axis a (of H2, proper cyclic order m_a)
    to +b or -b (b an axis of H1, order m_b), the sweep takes spins
    R(b, t) g0 at the solved angles t plus one generic angle, and this
    is exhaustive:

    - composing with R(b, 2*pi/m_b) on the left or R(a, 2*pi/m_a) on
      the right leaves the intersection class unchanged (the right spin
      folds into a left one since g0 a = ±b), so t only matters modulo
      2*pi / lcm(m_a, m_b);
    - R(b, t) commutes with every element of g H2 g^T whose axis line
      is b, and with ±Id, so those elements do not depend on t;
    - any other element can equal an element of H1 only when its axis
      line lands on an axis line of H1.  That needs its azimuth about
      b to match, and ``_solved_angles`` lists exactly those t;
    - so every t outside the solved set gives the same intersection,
      and one representative, the midpoint of the largest gap between
      solved angles, suffices.
    """
    rng = pair_rng(c1, c2, seed)
    axes1 = _candidate_axes(c1, rng)
    axes2 = _candidate_axes(c2, rng)
    all1, _ = structural_axes(c1)
    all2, _ = structural_axes(c2)
    out = [IDENTITY[None]]
    for b, m_b in axes1:
        p, q = _perp_frame(b)
        for a, m_a in axes2:
            period = 2.0 * np.pi / math.lcm(m_a, m_b)
            for target in (b, -b):
                g0 = align(a, target)
                solved = _solved_angles(g0, p, q, all1, all2)
                out.append(rotation(b, _spin_angles(solved, period)) @ g0)
    return np.concatenate(out)


def clips_oracle(c1: ClassLabel, c2: ClassLabel, seed: int = 0) -> ClassSet:
    """Clips of two finite classes by exhaustive conjugation sweep.

    Parameters
    ----------
    c1, c2 : ClassLabel
        Finite classes with order <= 256.
    seed : int
        Seed for the generic axis of each class; the rest of the sweep
        is deterministic, and the answer does not depend on the seed.

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
    prep = _prepped(c1)
    g2 = reference_group(c2)
    found: dict[bytes, np.ndarray] = {}
    for chunk in _conjugator_chunks(c1, c2, seed):
        # h = g x g^T for every conjugator g and element x of G2
        conj = (chunk[:, None] @ g2[None]) @ chunk.transpose(0, 2, 1)[:, None]
        masks = prep.member_mask(conj)
        # one packed-bit key per mask, deduplicated as 1-D bytes
        packed = np.packbits(masks, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first = np.unique(keys, return_index=True)
        for i in first:
            found.setdefault(keys[i].tobytes(), masks[i])
    classes = [recognize(g2[m]) for m in found.values()]
    return ClassSet(classes)


def _conjugator_chunks(c1: ClassLabel, c2: ClassLabel, seed: int):
    """Conjugator sweep in batches that keep the conjugates and the
    (rows, |H1|) dot matrix of ``member_mask`` near 2e6 floats each."""
    all_g = conjugators(c1, c2, seed)
    step = max(1, int(2e6 // (order_of(c2) * max(9, order_of(c1)))))
    for i in range(0, len(all_g), step):
        yield all_g[i : i + step]
