import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from conftest import labels_up_to
from o3clips import labels
from o3clips.engine import clips
from o3clips.labels import (
    ClassLabel,
    ClassSet,
    canonicalize,
    class_set,
    format_label,
    order_of,
    parse_label,
    proper_part,
    sort_key,
    strip_z2c,
    tilde_part,
    type3_class,
    typeclass,
    with_z2c,
)
from o3clips.rotations import ORDER_CAP
from test_properties import INFINITE, finite_labels

# ``parse_label`` is the ``__getitem__`` of the table of resolved specs
TABLE = parse_label.__self__

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
    assert parse_label(text) is parse_label(expected)


@pytest.mark.parametrize("bad", [
    "", "X4", "Z", "Z0", "D", "D0^z", "Z4^+", "D4^x", "SO(4)", "O(5)",
    "Z2+Z3c", "Z4^--", "Q8", "Z2+Z2c+Z2c", "-1", "O(3)+Z2c",
])
def test_parse_rejects(bad):
    # a rejected spelling is not stored, so it raises again, alike
    size = len(TABLE)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            parse_label(bad)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert len(TABLE) == size and bad not in TABLE


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
    # the constructor builds from the fields the label that parse_label
    # builds from the spelling
    assert ClassLabel("Z", 5) == parse_label("Z5")
    assert ClassLabel("D", 5) == parse_label("D5")
    assert ClassLabel("Z-", 6) == parse_label("Z6^-")
    assert ClassLabel("Dz", 6) == parse_label("D6^z")
    assert ClassLabel("Dd", 6) == parse_label("D6^d")
    assert ClassLabel("T") == parse_label("T")
    assert ClassLabel("O") == parse_label("O")
    assert ClassLabel("I") == parse_label("I")
    assert ClassLabel("O-") == parse_label("O^-")
    assert ClassLabel("O2-") == parse_label("O(2)^-")
    assert ClassLabel("SO2") == parse_label("SO(2)")
    assert ClassLabel("O2") == parse_label("O(2)")
    assert ClassLabel("SO3") == parse_label("SO(3)")
    assert ClassLabel("SO3", 0, True) == parse_label("O(3)")
    assert ClassLabel("1") == parse_label("1")
    assert with_z2c(ClassLabel("O")) == parse_label("O+Z2c")


def test_factory_degenerate_parameters():
    # the constructor collapses each degenerate subscript; the second
    # round is answered by the pool
    for _ in range(2):
        assert ClassLabel("Z", 1) is parse_label("1")
        assert ClassLabel("D", 1) is ClassLabel("Z", 2)
        assert ClassLabel("Dz", 1) is ClassLabel("Z-", 2)
        assert ClassLabel("Dd", 2) is ClassLabel("Dz", 2)


@pytest.mark.parametrize("kind, n, message", [
    ("Z", 0, "Z_0 is not a group"),
    ("D", -1, "D_-1 is not a group"),
    ("Z-", 3, "Z_3^- is not a group (even subscript >= 2 required)"),
    ("Z-", 0, "Z_0^- is not a group (even subscript >= 2 required)"),
    ("Dz", 0, "D_0^z is not a group"),
    ("Dd", 3, "D_3^d is not a group (even subscript >= 2 required)"),
])
def test_an_invalid_subscript_raises_on_every_call(kind, n, message):
    # the pool stores no failure, so every call checks again
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            ClassLabel(kind, n)
        assert str(err.value) == message
    assert not any(key[:2] == (kind, n) for key in labels._POOL)


# each parametric kind's spelling at a subscript
PARAMETRIC_SPELLINGS = {
    "Z": "Z{}", "D": "D{}", "Z-": "Z{}^-", "Dz": "D{}^z", "Dd": "D{}^d",
}


@pytest.mark.parametrize("spelled_first", [True, False])
@pytest.mark.parametrize("kind", sorted(PARAMETRIC_SPELLINGS))
def test_a_memoized_factory_returns_the_pooled_label(kind, spelled_first):
    # the pool is the constructor's memo; a subscript no other test
    # builds, so this test decides whether the spelling or the fields
    # meet it first
    n = 2 * 10**8 + 2 * spelled_first
    spelling = PARAMETRIC_SPELLINGS[kind].format(n)
    first = parse_label(spelling) if spelled_first else ClassLabel(kind, n)
    assert parse_label(spelling) is first
    assert ClassLabel(kind, n) is first
    assert ClassLabel(kind, n) is first


@pytest.mark.parametrize("spelling", [
    "1", "T", "O", "I", "SO(2)", "O(2)", "SO(3)", "O(3)", "O^-", "O(2)^-"])
def test_a_fixed_spelling_returns_the_pooled_label(spelling):
    lab = parse_label(spelling)
    fields = lab.kind, lab.n, lab.plus
    assert ClassLabel(*fields) is ClassLabel(*fields) is lab


def test_with_z2c_rejects_type3():
    for text in ("Z4^-", "D3^z", "D4^d", "O^-", "O(2)^-"):
        with pytest.raises(ValueError):
            with_z2c(parse_label(text))


def test_orders():
    assert order_of(parse_label("1")) == 1
    assert order_of(parse_label("Z7")) == 7
    assert order_of(parse_label("D7")) == 14
    assert order_of(parse_label("T")) == 12
    assert order_of(parse_label("O")) == 24
    assert order_of(parse_label("I")) == 60
    assert order_of(parse_label("Z8^-")) == 8
    assert order_of(parse_label("D5^z")) == 10
    assert order_of(parse_label("D8^d")) == 16
    assert order_of(parse_label("O^-")) == 24
    assert order_of(parse_label("I+Z2c")) == 120
    assert order_of(parse_label("1+Z2c")) == 2
    for inf in class_set("SO(2)", "O(2)", "O(2)^-", "SO(3)", "O(3)",
                         "SO(2)+Z2c", "O(2)+Z2c"):
        assert math.isinf(order_of(inf))


def test_strip_and_parts():
    assert strip_z2c(parse_label("D6+Z2c")) == parse_label("D6")
    assert strip_z2c(parse_label("O(3)")) == parse_label("SO(3)")
    assert proper_part(parse_label("Z8^-")) == parse_label("Z4")
    assert proper_part(parse_label("D6^z")) == parse_label("Z6")
    assert proper_part(parse_label("D8^d")) == parse_label("D4")
    assert proper_part(parse_label("O^-")) == parse_label("T")
    assert proper_part(parse_label("O(2)^-")) == parse_label("SO(2)")
    assert tilde_part(parse_label("Z8^-")) == parse_label("Z8")
    assert tilde_part(parse_label("D6^z")) == parse_label("D6")
    assert tilde_part(parse_label("D8^d")) == parse_label("D8")
    assert tilde_part(parse_label("O^-")) == parse_label("O")
    assert tilde_part(parse_label("O(2)^-")) == parse_label("O(2)")


def test_type3_table_round_trips_every_class_within_the_cap():
    # reads labels only: no group is built
    third = [lab for lab in labels_up_to(ORDER_CAP) if typeclass(lab) == "III"]
    assert len(third) == 319
    for lab in third:
        envelope = tilde_part(lab)
        assert type3_class(envelope, proper_part(lab)) is lab
        assert order_of(lab) == order_of(envelope)
    assert (type3_class(parse_label("O(2)"), parse_label("SO(2)"))
            is parse_label("O(2)^-"))
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
    z2 = sort_key(parse_label("Z2"))
    assert sort_key(parse_label("Z2")) == z2
    assert sort_key(parse_label("1")) < z2
    assert sort_key(parse_label("O(3)")) > z2


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
    assert ClassLabel("Z", 4) is parse_label("Z4")
    assert parse_label(" D2^d ") is ClassLabel("Dz", 2)
    assert ClassLabel("Z", np.int64(4)) is parse_label("Z4")
    assert type(ClassLabel("Z", np.int64(4)).n) is int
    assert ClassLabel("SO3", 0, 1) is parse_label("O(3)")


def test_a_degenerate_label_is_canonical_when_built():
    assert ClassLabel("Z", 1) is parse_label("1")
    assert ClassLabel("Dd", 2) is parse_label("D2^z")
    assert ClassLabel("T", 5) is parse_label("T")
    assert ClassLabel("D", 1, True) is parse_label("Z2+Z2c")
    assert canonicalize(ClassLabel("Dz", 1)) is parse_label("Z2^-")
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


# a kind and a subscript that int() would truncate to Z2, Z3, D4 and Z3,
# or that operator.index would read as D1 = Z2, Z1 = 1 and D0^z
NON_INTEGER_SUBSCRIPTS = {
    "Z-2.5": ("Z", 2.5),
    "Z-3.7": ("Z", 3.7),
    "D-4.9": ("D", 4.9),
    "Z-str": ("Z", "3"),
    "D-True": ("D", True),
    "Z-True": ("Z", True),
    "Dz-False": ("Dz", False),
    "Z-numpy-bool": ("Z", np.True_),
}


@pytest.mark.parametrize("pooled", [True, False])
@pytest.mark.parametrize("case", NON_INTEGER_SUBSCRIPTS)
def test_a_non_integer_subscript_is_refused(case, pooled, monkeypatch):
    # refused before the pool is read, so the answer does not depend on
    # whether the truncated class is pooled
    kind, n = NON_INTEGER_SUBSCRIPTS[case]
    if pooled:
        assert ClassLabel("Z", 2) and ClassLabel("Z", 3) and ClassLabel("D", 4)
    else:
        monkeypatch.setattr(labels, "_POOL", {})
    keys = set(labels._POOL)
    with pytest.raises(ValueError) as err:
        ClassLabel(kind, n)
    assert str(err.value) == f"subscript {n!r} is not an integer"
    assert set(labels._POOL) == keys


def test_an_integer_subscript_of_any_integer_type_is_kept():
    assert ClassLabel("Z", np.int64(4)) is parse_label("Z4")
    assert ClassLabel("Dd", np.int32(8)) is parse_label("D8^d")
    assert ClassLabel("Dz", np.uint8(2)) is parse_label("D2^z")
    assert ClassLabel("Z", np.int8(1)) is ClassLabel("1")


def test_a_class_set_holds_only_labels():
    with pytest.raises(TypeError, match="ClassLabel, not str"):
        ClassSet(["Z2"])
    with pytest.raises(TypeError, match="ClassLabel, not int"):
        ClassSet([parse_label("Z2"), 2])
    with pytest.raises(TypeError, match="unsupported operand"):
        class_set("Z2") | [parse_label("Z3")]
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
    assert ClassLabel("O2-") is parse_label("O(2)^-")
    assert ClassLabel("1", 0, True) is parse_label("1+Z2c")


def test_copies_and_pickles_are_the_same_label():
    for lab in class_set("1", "D8^d", "O(3)", "I+Z2c"):
        assert copy.copy(lab) is lab
        assert copy.deepcopy(lab) is lab
        assert pickle.loads(pickle.dumps(lab)) is lab


def test_labels_are_immutable():
    lab = parse_label("Z4")
    with pytest.raises(AttributeError):
        lab.n = 5
    with pytest.raises(AttributeError):
        del lab.kind
    with pytest.raises(AttributeError):
        lab.extra = 1
    with pytest.raises(AttributeError):
        lab.period = 0
    with pytest.raises(AttributeError):
        del lab.period
    with pytest.raises(AttributeError):
        lab.axes = ()
    with pytest.raises(AttributeError):
        del lab.axes
    assert lab is parse_label("Z4") and lab.n == 4 and lab.period == 8
    assert lab.axes == ((4, 1, (), 1),)


def test_warm_fold_builds_no_new_label():
    from o3clips.piezo import compute_piez

    first = compute_piez()
    size = len(labels._POOL)
    assert compute_piez() == first
    assert len(labels._POOL) == size


def test_concurrent_builders_share_one_instance():
    # four threads on two cores race to build the same unseen labels,
    # and to pool unseen raw keys of degenerate subscripts
    canonical = {("Z", 1): parse_label("1"),
                 ("D", 1, True): parse_label("Z2+Z2c"),
                 ("Dz", 1): parse_label("Z2^-"),
                 ("Dd", 2): parse_label("D2^z")}
    canonical |= {("T", 10**6 + i): parse_label("T") for i in range(500)}
    canonical |= {("1", 10**6 + i, True): parse_label("1+Z2c")
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
    # each label was whole when published: it carries its class's axes
    # and period
    axes = {("Z", 1): (), ("D", 1, True): ((2, 1, (), 1),),
            ("Dz", 1): ((2, -1, (), -1),),
            ("Dd", 2): ((2, 1, (-1, -1), 1), (2, -1, (1, -1), -1))}
    axes |= {key: ((2, 1, (1, 1), 1), (3, 1, (), None)) if key[0] == "T"
             else () for key in canonical if key not in axes}
    axes |= {key: ((key[1], 1, (), 1 if key[1] % 2 == 0 else None),)
             for key in keys if key not in canonical}
    period = {("Z", 1): 0, ("D", 1, True): 4, ("Dz", 1): 4, ("Dd", 2): 4}
    period |= {key: 12 if key[0] == "T" else 0
               for key in canonical if key not in period}
    period |= {key: 2 * key[1] for key in keys if key not in canonical}
    for built in got:
        assert all(lab.axes == axes[key] and lab.period == period[key]
                   for key, lab in zip(keys, built, strict=True))



def test_a_label_resolves_to_itself():
    for lab in finite_labels(12) + INFINITE:
        assert parse_label(lab) is lab


def test_concurrent_resolvers_share_one_instance():
    # eight threads on two cores race to resolve one unseen spelling
    text = " Z 99989 "
    assert text not in TABLE
    got = [None] * 8
    start = threading.Barrier(len(got))

    def resolve(slot):
        start.wait(timeout=60)
        got[slot] = parse_label(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=resolve, args=(i,))
                   for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(lab is ClassLabel("Z", 99989) for lab in got)
    assert TABLE[text] is ClassLabel("Z", 99989)


def test_a_str_subclass_still_parses():
    assert parse_label(np.str_("D4")) is ClassLabel("D", 4)
    # unseen, so it goes through the parse
    assert parse_label(np.str_(" D 4 ^ z ")) is ClassLabel("Dz", 4)


@pytest.mark.parametrize("call, name", [
    (lambda: class_set(5), "int"), (lambda: clips(5, "Z2"), "int"),
    (lambda: parse_label(None), "NoneType"), (lambda: parse_label(2.5), "float")],
    ids=["class_set-int", "clips-int", "parse_label-None", "parse_label-float"])
def test_a_spec_that_is_no_spelling_is_a_type_error(call, name):
    # refused by its type, before any parse, and not stored
    size = len(TABLE)
    with pytest.raises(TypeError, match=f"^{name} is not a class label or a str$"):
        call()
    assert len(TABLE) == size


def test_a_warm_spelling_runs_no_parse(monkeypatch):
    pairs = [("D12+Z2c", "D18^d"), ("O^-", "O+Z2c"), ("Z4^-", "SO(2)"),
             ("D2^d", "O(3)")]
    warm = {pair: clips(*pair) for pair in pairs}

    def refuse(text):
        raise AssertionError(f"parsed {text!r} again")

    monkeypatch.setattr(labels, "_parse", refuse)
    for (a, b), answer in warm.items():
        assert clips(a, b) is answer
        assert clips(parse_label(a), parse_label(b)) is answer
    # the patch is live: an unseen spelling does reach it
    with pytest.raises(AssertionError, match="parsed"):
        parse_label("Z 9 9 7")
