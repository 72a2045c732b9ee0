import math
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest

from conftest import contains_element, labels_up_to
from o3clips import groups
from o3clips.groups import (
    ORDER_CAP,
    PHI,
    GroupError,
    RecognitionError,
    axis_orbit_reps,
    close_group,
    generators,
    intersect,
    lexsort_elements,
    materialize,
    orbit_reps,
    recognize,
    reference_group,
    structural_axes,
)
from o3clips.labels import (
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    format_label,
    icosa,
    o2,
    octa,
    octa_minus,
    order_of,
    parse_label,
    so3,
    tetra,
    trivial,
    with_z2c,
)
from o3clips.rotations import random_rotation, rotation

AUDIT_LABELS = (
    ["1", "1+Z2c", "T", "O", "I", "O^-", "T+Z2c", "O+Z2c", "I+Z2c"]
    + [f"Z{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(2, 13)]
    + [f"Z{2*n}^-" for n in range(1, 9)]
    + [f"D{n}^z" for n in range(2, 9)]
    + [f"D{2*n}^d" for n in range(1, 9)]
    + [f"Z{n}+Z2c" for n in range(2, 9)]
    + [f"D{n}+Z2c" for n in range(2, 9)]
)


def _key(g: np.ndarray) -> bytes:
    # quantized integers: no -0.0/0.0 mismatch at the 1e-6 grid
    return np.round(g * 1e6).astype(np.int64).tobytes()


def _assert_is_group(elems: np.ndarray):
    k = len(elems)
    # identity present
    assert any(np.allclose(g, np.eye(3), atol=1e-9) for g in elems)
    # orthogonality
    for g in elems:
        assert np.allclose(g @ g.T, np.eye(3), atol=1e-9)
    keys = {_key(g) for g in elems}
    assert len(keys) == k
    prods = np.einsum("aij,bjk->abik", elems, elems).reshape(-1, 3, 3)
    for p in prods:
        assert _key(p) in keys
    for g in elems:
        assert _key(g.T) in keys


@pytest.mark.parametrize("text", AUDIT_LABELS)
def test_closure_audit(text):
    label = parse_label(text)
    elems = reference_group(label)
    assert len(elems) == order_of(label)
    _assert_is_group(elems)


def test_group_order_formulas():
    # n-fold cyclic and dihedral families, the three polyhedral groups,
    # the mirror families, and the +Z2c doubling.
    assert len(reference_group(cyclic(9))) == 9
    assert len(reference_group(dihedral(9))) == 18
    assert len(reference_group(tetra())) == 12
    assert len(reference_group(octa())) == 24
    assert len(reference_group(icosa())) == 60
    assert len(reference_group(cyclic_minus(10))) == 10
    assert len(reference_group(dihedral_z(7))) == 14
    assert len(reference_group(dihedral_d(10))) == 20
    assert len(reference_group(octa_minus())) == 24
    assert len(reference_group(with_z2c(icosa()))) == 120


def test_infinite_labels_raise():
    with pytest.raises(GroupError):
        generators(o2())
    with pytest.raises(GroupError):
        materialize(so3())


def test_phi_and_icosahedral_order_5():
    assert PHI == pytest.approx((1 + math.sqrt(5)) / 2)
    # A generator of the icosahedral group must have order 5; a wrong
    # golden ratio (e.g. (1 - sqrt 5)/2 or 1/phi) breaks this.
    orders = []
    for g in generators(icosa()):
        k, acc = 1, g.copy()
        while not np.allclose(acc, np.eye(3), atol=1e-9):
            acc = acc @ g
            k += 1
            assert k <= 10
        orders.append(k)
    assert 5 in orders
    # 24 rotations of order 5 in the full group (4 about each of 6 axes)
    traces = [np.trace(g) for g in reference_group(icosa())]
    five_fold = [t for t in traces
                 if abs(t - (1 + 2 * math.cos(2 * math.pi / 5))) < 1e-6
                 or abs(t - (1 + 2 * math.cos(4 * math.pi / 5))) < 1e-6]
    assert len(five_fold) == 24


def test_close_group_completes_generators():
    elems = close_group(generators(octa()))
    assert len(elems) == 24


# every kind at small parameters, the polyhedral classes and I+Z2c:
# their closures take about 0.2 s together
FACTOR_SAMPLE = [
    "1", "1+Z2c", "Z5", "D4", "Z6^-", "D3^z", "D8^d", "Z3+Z2c", "D4+Z2c",
    "T", "O", "I", "O^-", "T+Z2c", "I+Z2c",
]


@pytest.mark.parametrize("text", FACTOR_SAMPLE)
def test_factor_product_matches_closure(text):
    # the same elements in the same order as the fixpoint closure
    label = parse_label(text)
    elems = reference_group(label)
    closed = close_group(generators(label))
    assert elems.shape == closed.shape
    assert np.abs(elems - closed).max() < 1e-12


def test_separation_bound_on_every_class_within_the_cap():
    # distinct elements of a group of order N lie at least
    # sqrt(2) sin(pi / N) apart entrywise; the entrywise distance is at
    # least a third of the Frobenius one, |g - h|^2 = 6 - 2 <g, h>, so
    # only pairs within 3 bounds in Frobenius norm are checked entrywise
    for label in labels_up_to(ORDER_CAP):
        flat = reference_group(label).reshape(-1, 9)
        bound = math.sqrt(2) * math.sin(math.pi / max(len(flat), 2))
        i, j = np.nonzero(6.0 - 2.0 * (flat @ flat.T) < (3.0 * bound) ** 2)
        i, j = i[i < j], j[i < j]
        dist = np.abs(flat[i] - flat[j]).max(axis=1)
        assert (dist >= bound - 1e-12).all(), format_label(label)


def test_axis_separation_on_every_class_within_the_cap():
    # the ORDER_CAP comment: distinct census axes are at least pi/128
    # apart, so 1 - |cos| between them is at least 1 - cos(pi/128),
    # about 3.0e-4, far above the 1e-9 of the same-line test
    floor = 1.0 - math.cos(math.pi / 128)
    closest = 1.0
    for label in labels_up_to(ORDER_CAP):
        axes = structural_axes(label)[0]
        gap = 1.0 - np.abs(axes @ axes.T)
        np.fill_diagonal(gap, 1.0)
        closest = min(closest, gap.min(initial=1.0))
        assert gap.min(initial=1.0) >= floor - 1e-12, format_label(label)
    assert closest == pytest.approx(floor, rel=1e-6)
    assert closest > 1e5 * groups._SAME_AXIS


@pytest.mark.parametrize("text", ["Z6", "D12+Z2c", "I+Z2c", "O^-", "D128^d"])
def test_canonical_order_ignores_rounding_noise(text):
    # the key order is the canonical order: a shuffled, noisy copy of a
    # class sorts back into the reference order, also from a noise level
    # well below EPS_MAT up to 1e-12
    rng = np.random.default_rng(zlib.crc32(text.encode()))
    elems = reference_group(parse_label(text)).reshape(-1, 9)
    for scale in (1e-15, 1e-12):
        noisy = elems + rng.uniform(-scale, scale, size=elems.shape)
        shuffled = noisy[rng.permutation(len(noisy))]
        assert np.array_equal(groups._key_sorted(shuffled), noisy), scale


def test_key_order_ignores_rounding_noise():
    # keys of distinct elements lie more than 3 EPS_MAT apart and move by
    # at most the entrywise noise, so a shuffled copy of every class with
    # 1e-12 of noise on each entry sorts back into the reference order
    rng = np.random.default_rng(0)
    for label in labels_up_to(ORDER_CAP):
        elems = reference_group(label).reshape(-1, 9)
        noisy = elems + rng.uniform(-1e-12, 1e-12, size=elems.shape)
        shuffled = noisy[rng.permutation(len(noisy))]
        assert np.array_equal(groups._key_sorted(shuffled), noisy), label


def test_order_cap_guard(monkeypatch):
    # a class above the cap fails by its order before any rotation is
    # built, not by a closure that outgrows the cap
    def no_rotation(*args):
        raise AssertionError("an element was built")

    monkeypatch.setattr(groups, "rotation", no_rotation)
    with pytest.raises(GroupError, match="Z257 has order 257, above the "
                                         "order cap 256"):
        materialize(cyclic(ORDER_CAP + 1))


def test_materialize_orientation_conjugates():
    rng = np.random.default_rng(3)
    g = random_rotation(rng)
    ref = materialize(dihedral(3))
    rot = materialize(dihedral(3), g)
    assert len(rot) == 6
    got = {_key(x) for x in rot}
    want = {_key(g @ x @ g.T) for x in ref}
    assert got == want


@pytest.mark.parametrize("text", ["D128^d", "Z256", "I+Z2c", "O^-"])
def test_materialize_orientation_needs_no_dedupe(text):
    # a conjugate of a duplicate-free set is duplicate-free, so the
    # plain sort must agree with the deduplicating reference
    g = random_rotation(np.random.default_rng(zlib.crc32(text.encode())))
    rot = materialize(parse_label(text), g)
    assert np.array_equal(rot, lexsort_elements(rot))


def test_intersect_reference_groups():
    t_in_o = intersect(reference_group(tetra()), reference_group(octa()))
    assert format_label(recognize(t_in_o)) == "T"
    z2_in_d2 = intersect(reference_group(cyclic(2)),
                         reference_group(dihedral(2)))
    assert format_label(recognize(z2_in_d2)) == "Z2"


def test_contains_element():
    elems = reference_group(tetra())
    assert contains_element(elems, np.eye(3))
    assert not contains_element(elems, -np.eye(3))


RECOG_SAMPLE = [
    "1", "1+Z2c", "Z2", "Z5", "D3", "T", "O", "I", "Z2^-", "Z6^-",
    "D4^z", "D8^d", "O^-", "Z3+Z2c", "D4+Z2c", "T+Z2c", "I+Z2c",
    "Z176", "Z176^-", "Z246^-",
]


@pytest.mark.parametrize("text", RECOG_SAMPLE)
def test_recognize_round_trip(text):
    label = parse_label(text)
    assert recognize(materialize(label)) == label
    rng = np.random.default_rng(zlib.crc32(text.encode()))
    for _ in range(3):
        g = random_rotation(rng)
        assert recognize(materialize(label, g)) == label


def test_recognize_reports_trivial():
    assert recognize(np.eye(3)[None]) == trivial()


def test_recognize_names_no_class_for_an_unmatched_envelope_and_kernel():
    # not a group: the proper part {Id, R(e3, 2pi/3)} counts as Z2 and
    # the envelope {Id, R(e3, 2pi/3), R(e3, 4pi/3)} as Z3, which no type
    # III class has as its (envelope, kernel)
    e3 = np.array([0.0, 0.0, 1.0])
    elems = np.array([np.eye(3), rotation(e3, 2 * np.pi / 3),
                      -rotation(e3, 4 * np.pi / 3)])
    with pytest.raises(RecognitionError, match=r"^unrecognized improper "
                       r"group: tilde Z3, proper Z2$"):
        recognize(elems)


# label: (axis count, {cyclic order: axes with it}, orbit count)
CENSUS = {
    "Z5": (1, {5: 1}, 1),
    "D5": (6, {2: 5, 5: 1}, 2),
    "D6": (7, {2: 6, 6: 1}, 3),
    "T": (7, {2: 3, 3: 4}, 2),
    "O": (13, {2: 6, 3: 4, 4: 3}, 3),
    "I+Z2c": (31, {2: 15, 3: 10, 5: 6}, 3),
    "D3^z": (4, {1: 3, 3: 1}, 2),
    "D4^z": (5, {1: 4, 4: 1}, 3),
    "D6^d": (7, {1: 3, 2: 3, 3: 1}, 3),
    "O^-": (13, {1: 6, 2: 3, 3: 4}, 3),
    "Z6^-": (1, {3: 1}, 1),
}


@pytest.mark.parametrize("text", sorted(CENSUS))
def test_axis_census(text):
    label = parse_label(text)
    g = random_rotation(np.random.default_rng(5))
    for elems in (materialize(label), materialize(label, g)):
        # the proper cyclic order about each axis: its rotations, the
        # identity included
        proper, axes, ids = groups._census(elems)
        orders = 1 + np.bincount(ids[proper & (ids >= 0)],
                                 minlength=len(axes))
        reps = orbit_reps(elems, axes)
        got = (len(axes), dict(Counter(orders.tolist())), len(reps))
        assert got == CENSUS[text]


def test_axis_orbit_reps_hold_the_lowest_axis_of_each_orbit():
    # The orbit of a representative r is its image set {g r}.  The
    # orbits of the representatives must partition the structural axes,
    # each orbit holding its representative as its lowest index.
    for label in labels_up_to(ORDER_CAP):
        name = format_label(label)
        axes, orders = structural_axes(label)
        reps, rep_orders = axis_orbit_reps(label)
        if len(axes) == 0:
            assert len(reps) == 0, name
            continue
        same = np.abs(reps @ axes.T) > 1.0 - 1e-9
        assert (same.sum(axis=1) == 1).all(), name
        index = same.argmax(axis=1)
        assert (np.diff(index) > 0).all(), name
        assert np.array_equal(rep_orders, orders[index]), name
        img = np.einsum("gij,rj,ai->rga", reference_group(label), reps, axes)
        orbit = (np.abs(img) > 1.0 - 1e-9).any(axis=1)
        assert (orbit.sum(axis=0) == 1).all(), name
        assert np.array_equal(orbit.argmax(axis=1), index), name


def test_axis_orbit_reps_peak_memory():
    # each orbit pick holds |G| x axes floats, not a |G| x axes^2 table
    label = parse_label("D128^d")
    structural_axes(label)  # the group and its census have caches of their own
    tracemalloc.start()
    try:
        axis_orbit_reps.__wrapped__(label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
