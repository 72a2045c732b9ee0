import numpy as np
import pytest

from conftest import is_orthogonal, mats_equal
from o3clips.rotations import canonical_axis, random_rotation, rotation

RNG = np.random.default_rng(20260815)


def test_rotation_is_special_orthogonal():
    for _ in range(50):
        axis = RNG.normal(size=3)
        theta = RNG.uniform(0, 2 * np.pi)
        g = rotation(axis, theta)
        assert is_orthogonal(g)
        assert np.linalg.det(g) == pytest.approx(1.0)


def test_rotation_angles_compose_about_common_axis():
    axis = [1.0, -2.0, 0.5]
    a, b = 0.7, 1.1
    assert mats_equal(rotation(axis, a) @ rotation(axis, b),
                      rotation(axis, a + b))


def test_rotation_batches_angles():
    axis = [1.0, -2.0, 0.5]
    angles = np.array([0.0, 0.3, np.pi, 5.0])
    batch = rotation(axis, angles)
    assert batch.shape == (4, 3, 3)
    for g, t in zip(batch, angles):
        assert mats_equal(g, rotation(axis, t))
    # a stack of axes, each with its own angle, equals the scalar calls
    axes = RNG.normal(size=(4, 3))
    batch = rotation(axes, angles)
    assert batch.shape == (4, 3, 3)
    for g, n, t in zip(batch, axes, angles):
        assert np.abs(g - rotation(n, t)).max() < 1e-12


def test_rotation_period():
    for n in (2, 3, 5, 8):
        g = rotation([0, 0, 1], 2 * np.pi / n)
        acc = np.eye(3)
        for _ in range(n):
            acc = acc @ g
        assert mats_equal(acc, np.eye(3))


def test_canonical_axis_collapses_sign():
    for _ in range(20):
        v = RNG.normal(size=3)
        assert np.allclose(canonical_axis(v), canonical_axis(-v))
    assert canonical_axis([0, 0, -1])[2] > 0


def test_random_rotation_is_proper_and_seeded():
    g = random_rotation(np.random.default_rng(7))
    h = random_rotation(np.random.default_rng(7))
    assert is_orthogonal(g)
    assert np.linalg.det(g) == pytest.approx(1.0)
    assert mats_equal(g, h)
    other = random_rotation(np.random.default_rng(8))
    assert not mats_equal(g, other)
