"""Clips of a finite class against an infinite axial class.

An axial group (rotations about an axis u, possibly extended by
perpendicular half-turns, reflections or the central inversion) is
determined by u, and membership of an orthogonal matrix is a pointwise
predicate in u: whether the matrix is proper, and whether it fixes or
reverses u.  The intersection with a finite group G therefore only
depends on how u sits relative to the structural axes of G: the
critical positions are u parallel to an axis, u perpendicular to two
axes (their cross product), u perpendicular to exactly one axis
(generic point of that circle), and u fully generic.  Conjugating by
an element of G moves u within its orbit and keeps the class of the
intersection, so one position per orbit of each kind is exhaustive
(``_candidate_directions``).  The two generic kinds are stated from the
census rather than sampled, so every answer is deterministic.

Everything but the predicate depends on G alone and is computed once
per finite class (``_direction_rows``).  A call evaluates the
predicate on the cached rows and recognizes each distinct mask once,
so this module provides an oracle for the finite x infinite cells that
is independent of the closed-form tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .labels import ClassLabel, ClassSet, format_label, is_infinite
from .groups import (
    _read_only,
    axis_orbit_reps,
    label_census,
    recognize,
    reference_group,
    rep_line_mask,
    same_line,
    structural_axes,
)
from .rotations import canonical_axis, orthogonal


def _axial_masks(label: ClassLabel, proper: np.ndarray, fix: np.ndarray,
                 anti: np.ndarray) -> np.ndarray:
    """Membership masks in the axial class ``label`` about each axis of
    a stack, one row per row of ``fix`` and ``anti`` (which elements fix
    and which reverse that axis); one row for SO(3) and O(3), which have
    no axis.  ``proper`` flags each element.  ``label`` is an infinite
    class (``clips_axial`` refuses any other).

    A proper x with x a = -a is a half turn, and an improper x with
    x a = a is a reflection, so each class is a predicate on det x,
    x a = a and x a = -a alone.  Every mask is (A & fix) | (B & anti)
    for flags A and B of the element, so restricting ``fix`` and
    ``anti`` to some elements restricts the mask to them."""
    if label.kind == "SO3":
        return (np.ones(len(proper), dtype=bool) if label.plus else proper)[None]
    if label.kind == "SO2" and not label.plus:
        return proper & fix
    if label.kind == "O2" and not label.plus:
        return proper & (fix | anti)
    if label.kind == "SO2":
        return (proper & fix) | (~proper & anti)
    if label.kind == "O2":
        return fix | anti
    return fix  # O(2)^-


def _candidate_directions(label: ClassLabel) -> np.ndarray:
    """The directions of a finite class at which ``_direction_rows``
    computes the masks: one per orbit of the group on each critical
    line, then one probe on the circle of each axis representative.

    The critical lines are every axis and the normal of every pair of
    axes.  Conjugating by h in G maps G ∩ A(u) onto G ∩ A(hu), A(u) the
    axial group about u, so u and hu give one class, and each kind only
    needs one direction per orbit: the axis orbit representatives
    (``axis_orbit_reps``) and the normals of the pairs whose first axis
    is a representative (h takes the pair (w, w') with w = ±h r to
    (r, ±h^-1 w')).  u and -u give the same masks, so each unsigned line
    is kept once, the first of its candidates, by the tolerance test of
    the axis census.  There are at most |reps| x |axes| candidates, 387
    for D128, so the pairwise test is small.

    The last rows are ``orthogonal(a)`` for each representative a, in
    the order of ``axis_orbit_reps``.  A probe may lie on another axis
    line or circle: ``_direction_rows`` keeps only the elements that act
    alike on all of a's circle, so any point of it serves."""
    axes, reps = structural_axes(label)[0], axis_orbit_reps(label)[0]
    normals = np.cross(reps[:, None], axes[None])[~same_line(reps, axes)]
    lines = canonical_axis(np.concatenate([reps, normals]))
    later = np.triu(same_line(lines, lines), 1).any(axis=0)
    return np.concatenate([lines[~later], orthogonal(reps)])


@lru_cache(maxsize=None)
def _direction_rows(label: ClassLabel) -> tuple[np.ndarray, np.ndarray]:
    """Which elements of a finite class fix (``fix``) and reverse
    (``anti``) the axis at each candidate position, one row per position
    (cached, read-only).

    Rows: the critical lines of ``_candidate_directions``, a generic
    point of each representative's circle, then a generic direction.

    - At a generic u normal to a representative a, only ±Id and the
      elements about the line a fix or reverse u: an element about
      another line n fixes or reverses only n and, for a half turn or a
      reflection, the circle of n, and a's circle meets those in
      finitely many points.  Each of them acts alike on every u normal
      to a: R(a, t) fixes u at t = 0 and reverses it at t = pi, and
      -R(a, t) the other way round.  So the row is the one at the probe
      ``orthogonal(a)`` restricted to those elements
      (``groups.rep_line_mask``).
    - Off every axis line and circle only Id fixes u and only -Id
      reverses it, so that row is read from the census.

    One broadcast product takes every element to every direction, so it
    holds |G| x directions x 3 floats: at most about 1.01e5 within the
    order cap (D128, D128^z and D128^d), and the tests bound it by
    2.5e5."""
    elems, dirs = reference_group(label), _candidate_directions(label)
    proper, _, ids = label_census(label)
    on = rep_line_mask(label)
    keep = np.vstack([np.ones((len(dirs) - len(on), len(ids)), dtype=bool), on])
    img = dirs @ elems.transpose(0, 2, 1)  # img[g, k] = elems[g] @ dirs[k]
    fix, anti = [(np.abs(img - s * dirs).max(axis=2) < 1e-9).T & keep for s in (1, -1)]
    return _read_only(np.vstack([fix, (ids < 0) & proper]),
                      np.vstack([anti, (ids < 0) & ~proper]))


def clips_axial(c_fin: ClassLabel, c_inf: ClassLabel) -> ClassSet:
    """Clips of a finite class with an axial or full infinite class.

    The predicate of c_inf is evaluated on the cached rows of c_fin
    (``_direction_rows``), one mask per candidate position.  Each mask
    is recognized from the census of c_fin by ``recognize``, which
    memoizes per class on the mask's raw bytes, so a repeated mask is
    classified once.

    Parameters
    ----------
    c_fin : ClassLabel
        Finite class of order at most ``ORDER_CAP``.
    c_inf : ClassLabel
        One of SO(2), O(2), SO(2)+Z2c, O(2)+Z2c, O(2)^-, SO(3), O(3).

    Returns
    -------
    ClassSet
        All conjugacy classes of intersections of a representative of
        c_fin with representatives of c_inf.

    Raises
    ------
    GroupError
        For an infinite c_fin, or one above the order cap: the gate
        ``groups.reference_group`` refuses it before any row is built.
    ValueError
        For a c_inf that is no axial or full infinite class, refused
        before any row of c_fin is built.
    """
    if not is_infinite(c_inf):
        raise ValueError(f"not an axial class: {format_label(c_inf)}")
    masks = _axial_masks(c_inf, label_census(c_fin)[0], *_direction_rows(c_fin))
    return ClassSet({recognize(c_fin, mask) for mask in masks})
