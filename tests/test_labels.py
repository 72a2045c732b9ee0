import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from conftest import labels_up_to
from o3clips import labels
from o3clips.labels import (
    ClassLabel,
    ClassSet,
    canonicalize,
    class_set,
    compare,
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    format_label,
    icosa,
    o2,
    o2_minus,
    o3,
    octa,
    octa_minus,
    order_of,
    parse_label,
    proper_part,
    so2,
    so3,
    sort_key,
    strip_z2c,
    tetra,
    tilde_part,
    trivial,
    type3_class,
    typeclass,
    with_z2c,
)
from o3clips.rotations import ORDER_CAP

ROUND_TRIP = [
    "1", "Z2", "Z3", "Z12", "D2", "D3", "D8", "T", "O", "I",
    "Z2^-", "Z4^-", "Z16^-", "D2^z", "D3^z", "D8^z", "D4^d", "D12^d",
    "O^-", "O(2)^-", "SO(2)", "O(2)", "SO(3)", "O(3)",
    "1+Z2c", "Z2+Z2c", "Z7+Z2c", "D5+Z2c", "T+Z2c", "O+Z2c", "I+Z2c",
    "SO(2)+Z2c", "O(2)+Z2c",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_round_trip(text):
    assert format_label(parse_label(text)) == text


# Non-canonical spellings collapse to the canonical class.
COLLAPSES = [
    ("Z1", "1"),
    ("D1", "Z2"),
    ("D1^z", "Z2^-"),
    ("D2^d", "D2^z"),
    ("Z1+Z2c", "1+Z2c"),
    ("D1+Z2c", "Z2+Z2c"),
    ("SO(3)+Z2c", "O(3)"),
    (" Z 4 ^ - ", "Z4^-"),
    ("O(2) + Z2c", "O(2)+Z2c"),
]


@pytest.mark.parametrize("text,expected", COLLAPSES)
def test_canonical_collapse(text, expected):
    assert format_label(parse_label(text)) == expected


@pytest.mark.parametrize("bad", [
    "", "X4", "Z", "Z0", "D", "D0^z", "Z4^+", "D4^x", "SO(4)", "O(5)",
    "Z2+Z3c", "Z4^--", "Q8", "Z2+Z2c+Z2c", "-1", "O(3)+Z2c",
])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_label(bad)


def test_a_lifted_class_refuses_a_second_z2c():
    # O(3) is SO(3)+Z2c, so the core already carries the lift
    with pytest.raises(ValueError) as err:
        parse_label("O(3)+Z2c")
    assert str(err.value) == "'O(3)+Z2c': +Z2c applied twice"


# A syntax error points one past the longest prefix that begins a
# spelling, counted before a trailing +Z2c.
PARSE_ERROR_POSITIONS = [
    ("X4", 1), ("Z4^+", 4), ("D3^q", 4), ("SO(4)", 4), ("O(2)^+", 6),
    ("D3+Z2c+Z2c", 3),
    # a newline inside a label is no spelling, even before +Z2c
    ("Z4\n+Z2c", 3),
    # subscripts are ASCII digits only: no Arabic-Indic or fullwidth ones
    ("Z\u0663", 2), ("Z\uff13", 2), ("D\u0664^z", 2),
]


@pytest.mark.parametrize("bad,pos", PARSE_ERROR_POSITIONS)
def test_parse_error_names_its_position(bad, pos):
    with pytest.raises(ValueError) as err:
        parse_label(bad)
    assert str(err.value) == (f"cannot parse class label {bad!r} "
                              f"(near position {pos})")


def test_parameter_error_keeps_the_factory_message():
    with pytest.raises(ValueError) as err:
        parse_label("Z3^-")
    assert str(err.value) == ("Z_3^- is not a group (even subscript >= 2 "
                              "required)")


def test_factories_match_parse():
    assert cyclic(5) == parse_label("Z5")
    assert dihedral(5) == parse_label("D5")
    assert cyclic_minus(6) == parse_label("Z6^-")
    assert dihedral_z(6) == parse_label("D6^z")
    assert dihedral_d(6) == parse_label("D6^d")
    assert tetra() == parse_label("T")
    assert octa() == parse_label("O")
    assert icosa() == parse_label("I")
    assert octa_minus() == parse_label("O^-")
    assert o2_minus() == parse_label("O(2)^-")
    assert so2() == parse_label("SO(2)")
    assert o2() == parse_label("O(2)")
    assert so3() == parse_label("SO(3)")
    assert o3() == parse_label("O(3)")
    assert trivial() == parse_label("1")
    assert with_z2c(octa()) == parse_label("O+Z2c")


def test_factory_degenerate_parameters():
    # the second round is answered by the pool
    for _ in range(2):
        assert cyclic(1) is trivial()
        assert dihedral(1) is cyclic(2)
        assert dihedral_z(1) is cyclic_minus(2)
        assert dihedral_d(2) is dihedral_z(2)


FIXED_FACTORIES = (trivial, tetra, octa, icosa, so2, o2, so3, o3,
                   octa_minus, o2_minus)
PARAMETRIC_FACTORIES = {
    "Z": cyclic, "D": dihedral,
    "Z-": cyclic_minus, "Dz": dihedral_z, "Dd": dihedral_d,
}


@pytest.mark.parametrize("factory, n, message", [
    (cyclic, 0, "Z_0 is not a group"),
    (dihedral, -1, "D_-1 is not a group"),
    (cyclic_minus, 3, "Z_3^- is not a group (even subscript >= 2 required)"),
    (cyclic_minus, 0, "Z_0^- is not a group (even subscript >= 2 required)"),
    (dihedral_z, 0, "D_0^z is not a group"),
    (dihedral_d, 3, "D_3^d is not a group (even subscript >= 2 required)"),
])
def test_an_invalid_subscript_raises_on_every_call(factory, n, message):
    # the pool stores no failure, so every call checks again, and the
    # constructor raises the factory's message
    kind, = (k for k, f in PARAMETRIC_FACTORIES.items() if f is factory)
    for build in (factory, lambda n: ClassLabel(kind, n)) * 2:
        with pytest.raises(ValueError) as err:
            build(n)
        assert str(err.value) == message
    assert not any(key[:2] == (kind, n) for key in labels._POOL)


@pytest.mark.parametrize("factory_first", [True, False])
@pytest.mark.parametrize("kind", sorted(PARAMETRIC_FACTORIES))
def test_a_memoized_factory_returns_the_pooled_label(kind, factory_first):
    # the pool is each factory's memo; a subscript no other test builds,
    # so this test decides whether the factory or the constructor meets
    # it first
    n = 2 * 10**8 + 2 * factory_first
    build = PARAMETRIC_FACTORIES[kind]
    if factory_first:
        first = build(n)
        assert ClassLabel(kind, n) is first
    else:
        first = ClassLabel(kind, n)
    assert build(n) is first
    assert build(n) is first


@pytest.mark.parametrize("factory", FIXED_FACTORIES)
def test_a_fixed_factory_returns_the_pooled_label(factory):
    lab = factory()
    assert factory() is lab
    assert ClassLabel(lab.kind, lab.n, lab.plus) is lab


def test_with_z2c_rejects_type3():
    for lab in (cyclic_minus(4), dihedral_z(3), dihedral_d(4),
                octa_minus(), o2_minus()):
        with pytest.raises(ValueError):
            with_z2c(lab)


def test_orders():
    assert order_of(trivial()) == 1
    assert order_of(cyclic(7)) == 7
    assert order_of(dihedral(7)) == 14
    assert order_of(tetra()) == 12
    assert order_of(octa()) == 24
    assert order_of(icosa()) == 60
    assert order_of(cyclic_minus(8)) == 8
    assert order_of(dihedral_z(5)) == 10
    assert order_of(dihedral_d(8)) == 16
    assert order_of(octa_minus()) == 24
    assert order_of(with_z2c(icosa())) == 120
    assert order_of(with_z2c(trivial())) == 2
    for inf in (so2(), o2(), o2_minus(), so3(), o3(),
                with_z2c(so2()), with_z2c(o2())):
        assert math.isinf(order_of(inf))


def test_strip_and_parts():
    assert strip_z2c(with_z2c(dihedral(6))) == dihedral(6)
    assert strip_z2c(o3()) == so3()
    assert proper_part(cyclic_minus(8)) == cyclic(4)
    assert proper_part(dihedral_z(6)) == cyclic(6)
    assert proper_part(dihedral_d(8)) == dihedral(4)
    assert proper_part(octa_minus()) == tetra()
    assert proper_part(o2_minus()) == so2()
    assert tilde_part(cyclic_minus(8)) == cyclic(8)
    assert tilde_part(dihedral_z(6)) == dihedral(6)
    assert tilde_part(dihedral_d(8)) == dihedral(8)
    assert tilde_part(octa_minus()) == octa()
    assert tilde_part(o2_minus()) == o2()


def test_type3_table_round_trips_every_class_within_the_cap():
    # reads labels only: no group is built
    third = [lab for lab in labels_up_to(ORDER_CAP) if typeclass(lab) == "III"]
    assert len(third) == 319
    for lab in third:
        envelope = tilde_part(lab)
        assert type3_class(envelope, proper_part(lab)) is lab
        assert order_of(lab) == order_of(envelope)
    assert type3_class(o2(), so2()) is o2_minus()
    for envelope, kernel in (("Z3", "1"), ("Z4", "1"), ("T", "Z2"), ("O", "D4")):
        assert type3_class(parse_label(envelope), parse_label(kernel)) is None


def test_sort_order_finite_before_infinite():
    labels = class_set("O(3)", "SO(2)", "I", "1", "Z2^-", "D4^d",
                       "O(2)^-", "Z2", "T+Z2c").labels()
    assert labels[0] == "1"
    assert labels[-1] == "O(3)"
    finite = [x for x in labels if x in ("1", "Z2", "Z2^-", "D4^d", "I",
                                         "T+Z2c")]
    assert finite == ["1", "Z2", "Z2^-", "D4^d", "T+Z2c", "I"]
    assert labels.index("SO(2)") > labels.index("I")
    assert labels.index("O(2)^-") > labels.index("SO(2)")


def test_sort_key_total_on_sample():
    sample = [parse_label(t) for t in ROUND_TRIP]
    keys = [sort_key(lab) for lab in sample]
    assert len(set(keys)) == len(keys)


def test_compare():
    assert compare(cyclic(2), cyclic(2)) == 0
    assert compare(trivial(), cyclic(2)) == -1
    assert compare(o3(), cyclic(2)) == 1


def test_class_set_semantics():
    a = class_set("Z2", "1", "Z2", "D2^d")
    assert a.labels() == ["1", "Z2", "D2^z"]
    assert len(a) == 3
    assert parse_label("D2^z") in a
    assert parse_label("D4") not in a
    b = class_set("D2^z", "Z2", "1")
    assert a == b
    assert hash(a) == hash(b)
    union = a | class_set("O(3)")
    assert union.labels() == ["1", "Z2", "D2^z", "O(3)"]
    assert a == ClassSet(parse_label(t) for t in ("Z2", "1", "D2^d"))


def test_canonicalize_idempotent():
    for text in ROUND_TRIP:
        lab = parse_label(text)
        assert canonicalize(lab) == lab


def test_labels_are_interned():
    assert ClassLabel("Z", 4) is cyclic(4)
    assert parse_label(" D2^d ") is dihedral_z(2)
    assert ClassLabel("Z", np.int64(4)) is cyclic(4)
    assert type(ClassLabel("Z", np.int64(4)).n) is int
    assert ClassLabel("SO3", 0, 1) is o3()


def test_a_degenerate_label_is_canonical_when_built():
    assert ClassLabel("Z", 1) is trivial()
    assert ClassLabel("Dd", 2) is dihedral_z(2)
    assert ClassLabel("T", 5) is tetra()
    assert ClassLabel("D", 1, True) is with_z2c(cyclic(2))
    assert canonicalize(ClassLabel("Dz", 1)) is cyclic_minus(2)
    assert ClassSet([ClassLabel("Z", 1)]).labels() == ["1"]


@pytest.mark.parametrize("kind, n, message", [
    ("Z-", 4, "Z4^- already contains improper elements"),
    ("Dz", 1, "Z2^- already contains improper elements"),
    ("Dd", 2, "D2^z already contains improper elements"),
    ("O2-", 0, "O(2)^- already contains improper elements"),
])
def test_a_type3_kind_refuses_z2c_at_construction(kind, n, message):
    with pytest.raises(ValueError) as err:
        ClassLabel(kind, n, True)
    assert str(err.value) == message
    assert (kind, n, True) not in labels._POOL


# a constructor and a subscript that int() would truncate to Z2, Z3, D4
# and Z3
NON_INTEGER_SUBSCRIPTS = {
    "Z-2.5": (lambda n: ClassLabel("Z", n), 2.5),
    "cyclic-3.7": (cyclic, 3.7),
    "D-4.9": (lambda n: ClassLabel("D", n), 4.9),
    "Z-str": (lambda n: ClassLabel("Z", n), "3"),
}


@pytest.mark.parametrize("pooled", [True, False])
@pytest.mark.parametrize("case", NON_INTEGER_SUBSCRIPTS)
def test_a_non_integer_subscript_is_refused(case, pooled, monkeypatch):
    # refused before the pool is read, so the answer does not depend on
    # whether the truncated class is pooled
    build, n = NON_INTEGER_SUBSCRIPTS[case]
    if pooled:
        assert cyclic(2) and cyclic(3) and dihedral(4)
    else:
        monkeypatch.setattr(labels, "_POOL", {})
    keys = set(labels._POOL)
    with pytest.raises(ValueError) as err:
        build(n)
    assert str(err.value) == f"subscript {n!r} is not an integer"
    assert set(labels._POOL) == keys


def test_an_integer_subscript_of_any_integer_type_is_kept():
    assert ClassLabel("Z", np.int64(4)) is cyclic(4)
    assert ClassLabel("Dd", np.int32(8)) is dihedral_d(8)
    assert dihedral_z(np.uint8(2)) is dihedral_z(2)


def test_a_class_set_holds_only_labels():
    with pytest.raises(TypeError, match="ClassLabel, not str"):
        ClassSet(["Z2"])
    with pytest.raises(TypeError, match="ClassLabel, not int"):
        ClassSet([cyclic(2), 2])
    with pytest.raises(TypeError, match="unsupported operand"):
        class_set("Z2") | [cyclic(3)]
    assert class_set("Z2") | class_set("Z3") == class_set("Z2", "Z3")


def test_class_set_membership_takes_only_labels():
    with pytest.raises(TypeError, match="not str"):
        "Z2" in class_set("Z2")
    with pytest.raises(TypeError, match="not NoneType"):
        None in class_set()


def test_unknown_kind_is_refused_at_construction():
    # a kind outside the label table would otherwise get an order and a
    # type, and fail only later in sort_key
    with pytest.raises(ValueError, match="unknown kind 'Foo'"):
        ClassLabel("Foo", 2)
    assert not any(kind == "Foo" for kind, _, _ in labels._POOL)
    assert ClassLabel("O2-") is o2_minus()
    assert ClassLabel("1", 0, True) is with_z2c(trivial())


def test_copies_and_pickles_are_the_same_label():
    for lab in (trivial(), dihedral_d(8), o3(), with_z2c(icosa())):
        assert copy.copy(lab) is lab
        assert copy.deepcopy(lab) is lab
        assert pickle.loads(pickle.dumps(lab)) is lab


def test_labels_are_immutable():
    lab = cyclic(4)
    with pytest.raises(AttributeError):
        lab.n = 5
    with pytest.raises(AttributeError):
        del lab.kind
    with pytest.raises(AttributeError):
        lab.extra = 1
    assert lab is cyclic(4) and lab.n == 4


def test_warm_fold_builds_no_new_label():
    from o3clips.piezo import compute_piez

    first = compute_piez()
    size = len(labels._POOL)
    assert compute_piez() == first
    assert len(labels._POOL) == size


def test_concurrent_builders_share_one_instance():
    # four threads on two cores race to build the same unseen labels,
    # and to pool unseen raw keys of degenerate subscripts
    canonical = {("Z", 1): trivial(), ("D", 1, True): with_z2c(cyclic(2)),
                 ("Dz", 1): cyclic_minus(2), ("Dd", 2): dihedral_z(2)}
    canonical |= {("T", 10**6 + i): tetra() for i in range(500)}
    canonical |= {("1", 10**6 + i, True): with_z2c(trivial())
                  for i in range(500)}
    keys = [("Z", 10**6 + i) for i in range(2000)] + list(canonical)
    got = [None] * 4
    start = threading.Barrier(len(got))

    def build(slot):
        start.wait(timeout=60)
        got[slot] = [ClassLabel(*key) for key in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for built in got[1:]:
        assert all(a is b for a, b in zip(built, got[0], strict=True))
    assert all(ClassLabel(*key) is lab for key, lab in zip(keys, got[0]))
    assert all(lab is canonical.get(key, lab)
               for key, lab in zip(keys, got[0]))
