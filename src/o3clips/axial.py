"""Clips of a finite class against an infinite axial class.

An axial group (rotations about an axis u, possibly extended by
perpendicular half-turns, reflections or the central inversion) is
determined by u, and membership of an orthogonal matrix is a pointwise
predicate in u.  The intersection with a finite group G therefore only
depends on how u sits relative to the structural axes of G: the
critical positions are u parallel to an axis, u perpendicular to two
axes (their cross product), u perpendicular to exactly one axis
(generic point of that circle), and u fully generic.  Sweeping those
candidates is exhaustive, so this module provides an oracle for the
finite x infinite cells that is independent of the closed-form tables.
"""

from __future__ import annotations

import zlib

import numpy as np

from .labels import ClassLabel, ClassSet, format_label, is_infinite, order_of
from .groups import (
    _SAME_AXIS,
    ORDER_CAP,
    label_census,
    recognize,
    reference_group,
    structural_axes,
)
from .rotations import EPS_MAT, IDENTITY, canonical_axis


def pair_rng(c1: ClassLabel, c2: ClassLabel, seed: int) -> np.random.Generator:
    """Seeded generator of the generic directions for one pair."""
    tag = f"{format_label(c1)}|{format_label(c2)}|{seed}".encode()
    return np.random.default_rng(zlib.crc32(tag))


def _axial_masks(label: ClassLabel, elems: np.ndarray, proper: np.ndarray,
                 dirs: np.ndarray):
    """Membership mask of ``elems`` in the axial class ``label`` about
    each direction of ``dirs`` in turn.  Properness (``proper``, one flag
    per element) and involution do not depend on the direction, so they
    are computed once."""
    if label.kind == "SO3":
        yield np.ones(len(elems), dtype=bool) if label.plus else proper
        return
    invol = (
        np.abs(np.einsum("kij,kjl->kil", elems, elems) - IDENTITY).max(axis=(1, 2))
        < EPS_MAT
    )
    for u in dirs:
        img = elems @ u
        fix = np.abs(img - u).max(axis=1) < 1e-9
        anti = np.abs(img + u).max(axis=1) < 1e-9
        if label.kind == "SO2" and not label.plus:
            yield proper & fix
        elif label.kind == "O2" and not label.plus:
            yield proper & (fix | (anti & invol))
        elif label.kind == "SO2":
            yield (proper & fix) | (~proper & anti)
        elif label.kind == "O2":
            yield np.where(proper, fix | (anti & invol), anti | (fix & invol))
        elif label.kind == "O2-":
            yield (proper & fix) | (~proper & fix & invol)
        else:
            raise ValueError(f"not an axial class: {format_label(label)}")


def _candidate_directions(axes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every axis, the normal of every pair of axes, one generic point of
    each axis's perpendicular circle, and one generic direction: off all
    axis lines and circles only Id fixes u and only -Id reverses it, so
    every such u gives one mask, which no other candidate need give.

    u and -u give the same masks, so each unsigned line is kept once, the
    first of its candidates.  Rounding only merges copies of one line; a
    tolerance test of the survivors, as in the axis census, merges the
    copies that rounding split."""
    i, j = np.triu_indices(len(axes), 1)
    normals = np.cross(axes[i], axes[j])
    normals = normals[np.linalg.norm(normals, axis=1) > 1e-9]
    circle = np.cross(axes, rng.normal(size=3))
    cands = canonical_axis(
        np.concatenate([axes, normals, circle, rng.normal(size=(1, 3))]))
    _, first = np.unique(np.round(cands, 6), axis=0, return_index=True)
    cands = cands[np.sort(first)]
    same = np.abs(cands @ cands.T) > 1.0 - _SAME_AXIS
    return cands[same.argmax(axis=1) == np.arange(len(cands))]


def clips_axial(c_fin: ClassLabel, c_inf: ClassLabel, seed: int = 0) -> ClassSet:
    """Clips of a finite class with an axial or full infinite class.

    Parameters
    ----------
    c_fin : ClassLabel
        Finite class with order <= 256.
    c_inf : ClassLabel
        One of SO(2), O(2), SO(2)+Z2c, O(2)+Z2c, O(2)^-, SO(3), O(3).

    Returns
    -------
    ClassSet
        All conjugacy classes of intersections of a representative of
        c_fin with representatives of c_inf.
    """
    if is_infinite(c_fin) or order_of(c_fin) > ORDER_CAP:
        raise ValueError(f"finite class required, got {format_label(c_fin)}")
    if not is_infinite(c_inf):
        raise ValueError(f"axial class required, got {format_label(c_inf)}")
    elems = reference_group(c_fin)
    rng = pair_rng(c_fin, c_inf, seed)
    if c_inf.kind == "SO3":
        cands = np.array([[0.0, 0.0, 1.0]])
    else:
        cands = _candidate_directions(structural_axes(c_fin)[0], rng)
    seen: set[bytes] = set()
    out: set[ClassLabel] = set()
    for mask in _axial_masks(c_inf, elems, label_census(c_fin)[0], cands):
        key = mask.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.add(recognize(c_fin, mask))
    return ClassSet(out)
