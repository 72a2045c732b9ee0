"""Rotation matrices and axis helpers for O(3).

Every element of O(3) is R(n, theta) or -R(n, theta) for a unit axis n;
-R(n, pi) is the reflection through the plane normal to n and -R(n, 0)
is the inversion.  Elements are stored as plain 3x3 float arrays and
compared entrywise with a fixed tolerance: the groups handled here have
a minimum inter-element distance around 1e-2 while accumulated rounding
stays below 1e-12, so equality at 1e-9 is unambiguous.
"""

from __future__ import annotations

import numpy as np

EPS_MAT = 1e-9    # entrywise matrix equality
EPS_AXIS = 1e-12  # minimum norm for a direction vector
# Largest materializable group order, refused above it by the one gate
# of the matrix layer, ``groups.reference_group``.  The cap rests on the
# tolerance arguments written for it, not on memory:
# - distinct elements of a class of order N are sqrt(2) sin(pi/N)
#   apart, at least 0.017 within the cap, against EPS_MAT, and their
#   keys, which order every class, at least 3.6e-7 apart, against the
#   3 EPS_MAT that ``groups.reference_group`` asserts;
# - distinct axes are at least pi/128 apart within the cap, against the
#   ~4.5e-5 rad of ``groups.same_line``, the one same-line test of the
#   census, the orbits and both oracles;
# - the tests check both separations on every class within it.
# The largest per-class arrays left grow as |G|^2.  At D128^d (order 256)
# they peak, under tracemalloc, at 2.5 MB (``axial._direction_rows``),
# 1.1 MB (``groups.label_census``) and 0.5 MB (``groups.axis_orbit_reps``).
ORDER_CAP = 256

IDENTITY = np.eye(3)


def unit(v) -> np.ndarray:
    """Unit direction of one vector or of a stack of them, shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if (norm < EPS_AXIS).any():
        raise ValueError("zero direction vector")
    return v / norm


def skew(n: np.ndarray) -> np.ndarray:
    """Cross-product matrix j(n) with j(n) v = n x v, for one axis or a
    stack of axes (..., 3)."""
    x, y, z = np.moveaxis(n, -1, 0)
    o = np.zeros_like(x)
    return np.stack(
        [np.stack([o, -z, y], -1), np.stack([z, o, -x], -1),
         np.stack([-y, x, o], -1)], -2
    )


def rotation(axis, angle) -> np.ndarray:
    """Rotation by ``angle`` about ``axis`` (Rodrigues formula).

    ``axis`` is one axis (3,) or a stack of axes (..., 3), and ``angle``
    is broadcast against the stack: one axis with a scalar angle gives
    one (3, 3) matrix, one axis with k angles gives the k rotations about
    it as (k, 3, 3), and k axes with k angles give (k, 3, 3) pairwise.
    """
    j = skew(unit(axis))
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return IDENTITY + np.sin(angle) * j + (1.0 - np.cos(angle)) * (j @ j)


def canonical_axis(axis) -> np.ndarray:
    """Unit axis with a deterministic sign (first significant component
    positive), so that u and -u collapse to the same direction.  Takes
    one axis or a stack of them, shape (..., 3)."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    lead = (np.abs(u) > 1e-7).argmax(axis=-1)[..., None]
    return u * np.sign(np.take_along_axis(u, lead, axis=-1))


def orthogonal(v) -> np.ndarray:
    """A unit vector orthogonal to each direction of a stack (..., 3):
    the direction of v x e1, or of v x e2 when v is near e1."""
    v = np.asarray(v, dtype=float)
    probe = np.where(np.abs(v[..., :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    return unit(np.cross(v, probe))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
