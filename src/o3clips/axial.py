"""Clips of a finite class against an infinite axial class.

An axial group (rotations about an axis u, possibly extended by
perpendicular half-turns, reflections or the central inversion) is
determined by u, and membership of an orthogonal matrix is a pointwise
predicate in u.  The intersection with a finite group G therefore only
depends on how u sits relative to the structural axes of G: the
critical positions are u parallel to an axis, u perpendicular to two
axes (their cross product), u perpendicular to exactly one axis
(generic point of that circle), and u fully generic.  Conjugating by
an element of G moves u within its orbit and keeps the class of the
intersection, so one candidate per orbit of each kind is exhaustive
(``_candidate_directions``).  All candidates are masked in one array
pass and each distinct mask is recognized once, so this module
provides an oracle for the finite x infinite cells that is
independent of the closed-form tables.
"""

from __future__ import annotations

import zlib

import numpy as np

from .labels import ClassLabel, ClassSet, format_label, is_infinite, order_of
from .groups import (
    _SAME_AXIS,
    ORDER_CAP,
    axis_orbit_reps,
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
                 dirs: np.ndarray) -> np.ndarray:
    """Membership masks of ``elems`` in the axial class ``label`` about
    each direction of ``dirs``, shape (len(dirs), len(elems)); one row
    for SO(3) and O(3), which have no axis.

    One broadcast product takes every element to every direction, so
    it holds |G| x len(dirs) x 3 floats: at most about 1.02e5 on the
    orbit-representative candidates of ``_candidate_directions`` within
    the order cap (D128, D128^z and D128^d), and the tests bound it by
    2.5e5.  Properness (``proper``, one flag per element) and
    involution do not depend on the direction, so they are computed
    once."""
    if label.kind == "SO3":
        return (np.ones(len(elems), dtype=bool) if label.plus else proper)[None]
    invol = (
        np.abs(np.einsum("kij,kjl->kil", elems, elems) - IDENTITY).max(axis=(1, 2))
        < EPS_MAT
    )
    img = dirs @ elems.transpose(0, 2, 1)  # img[g, k] = elems[g] @ dirs[k]
    fix = (np.abs(img - dirs).max(axis=2) < 1e-9).T
    anti = (np.abs(img + dirs).max(axis=2) < 1e-9).T
    if label.kind == "SO2" and not label.plus:
        return proper & fix
    if label.kind == "O2" and not label.plus:
        return proper & (fix | (anti & invol))
    if label.kind == "SO2":
        return (proper & fix) | (~proper & anti)
    if label.kind == "O2":
        return np.where(proper, fix | (anti & invol), anti | (fix & invol))
    if label.kind == "O2-":
        return (proper & fix) | (~proper & fix & invol)
    raise ValueError(f"not an axial class: {format_label(label)}")


def _candidate_directions(label: ClassLabel, rng: np.random.Generator) -> np.ndarray:
    """The candidate directions u of a finite class: one per orbit of
    the group on each kind of critical position.

    The critical positions are every axis, the normal of every pair of
    axes, a generic point of each axis's perpendicular circle, and one
    generic direction: off all axis lines and circles only Id fixes u
    and only -Id reverses it, so every such u gives one mask, which no
    other candidate need give.  Conjugating by h in G maps G ∩ A(u)
    onto G ∩ A(hu), A(u) the axial group about u, so u and hu give one
    class, and each kind only needs one direction per orbit: the axis
    orbit representatives (``axis_orbit_reps``), the normals of the
    pairs whose first axis is a representative (h takes the pair
    (w, w') with w = ±h r to (r, ±h^-1 w')), and the circle points of
    the representatives.  The circle points take one draw of ``rng``
    and the generic direction a second.

    u and -u give the same masks, so each unsigned line is kept once, the
    first of its candidates.  Rounding only merges copies of one line; a
    tolerance test of the survivors, as in the axis census, merges the
    copies that rounding split."""
    axes, reps = structural_axes(label)[0], axis_orbit_reps(label)[0]
    normals = np.cross(reps[:, None], axes[None]).reshape(-1, 3)
    normals = normals[np.linalg.norm(normals, axis=1) > 1e-9]
    circle = np.cross(reps, rng.normal(size=3))
    cands = canonical_axis(
        np.concatenate([reps, normals, circle, rng.normal(size=(1, 3))]))
    _, first = np.unique(np.round(cands, 6), axis=0, return_index=True)
    cands = cands[np.sort(first)]
    same = np.abs(cands @ cands.T) > 1.0 - _SAME_AXIS
    return cands[same.argmax(axis=1) == np.arange(len(cands))]


def clips_axial(c_fin: ClassLabel, c_inf: ClassLabel, seed: int = 0) -> ClassSet:
    """Clips of a finite class with an axial or full infinite class.

    Every candidate direction of ``_candidate_directions`` is masked in
    one pass (``_axial_masks``), and each distinct mask is recognized
    once, from the census of the finite class.

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
    dirs = (np.zeros((0, 3)) if c_inf.kind == "SO3"
            else _candidate_directions(c_fin, pair_rng(c_fin, c_inf, seed)))
    masks = _axial_masks(c_inf, reference_group(c_fin), label_census(c_fin)[0], dirs)
    _, first = np.unique(np.packbits(masks, axis=1), axis=0, return_index=True)
    return ClassSet({recognize(c_fin, mask) for mask in masks[first]})
