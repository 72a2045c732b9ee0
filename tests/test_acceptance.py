"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single ``criterion N: PASS|FAIL`` line (run pytest
with -s to see them all; failed criteria show the line in the captured
output) and then asserts, so the suite doubles as a checklist:

1. the coupled electroelastic law catalog matches the builtin list
2. closed-form cells equal the brute-force oracle on the full sweep
3. the axial rows equal hard-coded transcriptions of the published cells
4. recognition inverts materialization for every label of order <= 120
5. 10,000 randomized structural property cases hold
6. inversion-extension identities hold for all rotation pairs
7. every materialized group is a group with the advertised order
"""

import random
import time

import numpy as np

from o3clips import (
    class_leq,
    class_set,
    clips,
    diff_piez,
    materialize,
    order_of,
    parse_label,
    recognize,
    reference_group,
    typeclass,
    verify_cells,
    with_z2c,
)
from o3clips.groups import PHI
from o3clips.rotations import random_rotation

from conftest import labels_up_to
from test_infinite import INFINITE_ROW_CELLS
from test_properties import finite_labels as _finite_labels
from test_properties import finite_rotation_labels


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)


def test_criterion_1_coupled_law_catalog():
    t0 = time.perf_counter()
    diff = diff_piez()
    elapsed = time.perf_counter() - t0
    parts = [
        f"computed {len(diff.computed)} classes, builtin catalog has "
        f"{len(diff.expected)} ({diff.printed_count} printed entries, "
        f"{diff.canonical_count} canonical)",
        "collisions: " + ", ".join(f"{a} = {b}" for a, b in diff.collisions),
    ]
    for lbl in diff.extra:
        a, b = diff.witnesses[lbl]
        parts.append(f"extra {lbl} (witness: clips({a}, {b}) contains it)")
    if diff.missing:
        parts.append("missing " + ", ".join(diff.missing))
    parts.append(f"{elapsed:.1f}s")
    detail = "; ".join(parts)
    ok = (diff.match and elapsed < 30
          and ("D2^d", "D2^z") in diff.collisions)
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2_closed_forms_match_oracle():
    t0 = time.perf_counter()
    checks = list(verify_cells(n_max=8, m_max=8, seed=0))
    elapsed = time.perf_counter() - t0
    bad = [c for c in checks if not c.match]
    detail = (f"{len(checks)} cells, {len(checks) - len(bad)} match, "
              f"{elapsed:.0f}s")
    ok = len(checks) >= 300 and not bad and elapsed < 600
    _report(2, ok, detail)
    assert ok, detail + "".join(
        f"\n  {c.row} x {c.col}: symbolic {c.symbolic} != brute {c.brute}"
        for c in bad[:10])


def test_criterion_3_axial_row_transcriptions():
    bad = []
    for row, col, expected in INFINITE_ROW_CELLS:
        got = clips(row, col)
        if got != class_set(*expected):
            bad.append((row, col, got, expected))
    detail = (f"{len(INFINITE_ROW_CELLS)} transcribed cells, "
              f"{len(INFINITE_ROW_CELLS) - len(bad)} match")
    ok = not bad and len(INFINITE_ROW_CELLS) == 50
    _report(3, ok, detail)
    assert ok, detail + "".join(
        f"\n  {row} x {col}: {got} != {exp}"
        for row, col, got, exp in bad[:10])


def test_criterion_4_recognition_round_trip():
    pool = labels_up_to(120)
    t0 = time.perf_counter()
    trips = 0
    failures = []
    for lab in pool:
        for seed in range(20):
            g = random_rotation(np.random.default_rng(seed))
            got = recognize(materialize(lab, g))
            trips += 1
            if got != lab:
                failures.append((lab, seed, got))
    elapsed = time.perf_counter() - t0
    detail = (f"{len(pool)} labels x 20 orientations = {trips} round "
              f"trips, {len(failures)} failed, {elapsed:.0f}s")
    ok = not failures and trips == 20 * len(pool)
    _report(4, ok, detail)
    assert ok, detail + "".join(
        f"\n  {lab} seed {seed} -> {got}"
        for lab, seed, got in failures[:10])


def test_criterion_5_randomized_properties():
    finite = _finite_labels(12)
    infinite = [*map(parse_label, ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c",
                                   "O(2)^-", "SO(3)", "O(3)"))]
    everything = finite + infinite
    rows2 = [lab for lab in finite if typeclass(lab) == "II"]
    cols3 = [lab for lab in finite if typeclass(lab) == "III"]
    rng = random.Random(20260815)
    cases = 0
    violations = []

    for _ in range(2000):
        a, b = rng.choice(everything), rng.choice(everything)
        cases += 1
        if clips(a, b) != clips(b, a):
            violations.append(("symmetry", a, b))
    for _ in range(2000):
        a, b = rng.choice(rows2), rng.choice(cols3)
        cases += 1
        if parse_label("1") not in clips(a, b):
            violations.append(("trivial membership", a, b))
    for _ in range(2000):
        a = rng.choice(everything)
        cases += 1
        if a not in clips(a, a):
            violations.append(("self membership", a, a))
    for _ in range(2000):
        a, b = rng.choice(everything), rng.choice(everything)
        cases += 1
        for c in clips(a, b):
            if not (class_leq(c, a) and class_leq(c, b)):
                violations.append(("dominance", a, b))
                break
    for _ in range(2000):
        a, b = rng.choice(finite), rng.choice(finite)
        cases += 1
        na, nb = order_of(a), order_of(b)
        for c in clips(a, b):
            k = order_of(c)
            if na % k or nb % k:
                violations.append(("order divisibility", a, b))
                break

    detail = f"{cases} cases, {len(violations)} violations"
    ok = cases == 10000 and not violations
    _report(5, ok, detail)
    assert ok, detail + "".join(
        f"\n  {name}: {a} vs {b}" for name, a, b in violations[:10])


def test_criterion_6_inversion_extension_identities():
    pool = finite_rotation_labels(8)
    checked = 0
    bad = []
    for h1 in pool:
        for h2 in pool:
            plain = clips(h1, h2)
            if clips(h1, with_z2c(h2)) != plain:
                bad.append(("one side", h1, h2))
            lifted = class_set(*(with_z2c(c) for c in plain))
            if clips(with_z2c(h1), with_z2c(h2)) != lifted:
                bad.append(("both sides", h1, h2))
            checked += 1
    detail = f"{checked} rotation pairs, {len(bad)} identity failures"
    ok = checked == len(pool) ** 2 and not bad
    _report(6, ok, detail)
    assert ok, detail + "".join(
        f"\n  {which}: {h1} vs {h2}" for which, h1, h2 in bad[:10])


def _group_keys(mats):
    """One key per matrix of a stack: its entries rounded to 1e-6 as
    integers, viewed as a single void scalar so that np.isin compares
    whole matrices."""
    keys = np.round(mats.reshape(-1, 9) * 1e6).astype(np.int64)
    return keys.view(np.dtype((np.void, keys.itemsize * 9))).ravel()


def _group_audit(G, order):
    """The first group axiom that the element stack G breaks as a group
    of the given order, or None: the order with distinct keys, the
    identity, closure over all |G|^2 products, and inverses."""
    keys = _group_keys(G)
    if len(G) != order or len(np.unique(keys)) != len(G):
        return "order"
    if not np.isin(_group_keys(np.eye(3)), keys).all():
        return "identity"
    products = np.einsum("aij,bjk->abik", G, G)
    if not np.isin(_group_keys(products), keys).all():
        return "closure"
    if not np.isin(_group_keys(G.transpose(0, 2, 1)), keys).all():
        return "inverse"
    return None


def test_group_audit_catches_a_missing_element():
    D6 = reference_group(parse_label("D6"))
    assert _group_audit(D6, 12) is None
    identity = [np.allclose(g, np.eye(3)) for g in D6]
    for i, want in [(identity.index(True), "identity"),
                    (identity.index(False), "closure")]:
        broken = np.delete(D6, i, axis=0)
        assert _group_audit(broken, 12) == "order"
        assert _group_audit(broken, 11) == want


def test_criterion_7_group_audit():
    pool = labels_up_to(120)
    bad = [(lab, what) for lab in pool
           if (what := _group_audit(reference_group(lab), order_of(lab)))]

    # golden-ratio guard: the five-fold icosahedral generator really has
    # period 5, and the group carries its full complement of such axes
    phi_ok = abs(PHI - (1 + np.sqrt(5)) / 2) < 1e-15
    ico = reference_group(parse_label("I"))
    traces = np.trace(ico, axis1=1, axis2=2)
    # rotations by 2pi/5 and 4pi/5 have traces phi and 1-phi
    order5 = sum(1 for t in traces
                 if abs(t - PHI) < 1e-9 or abs(t - (1 - PHI)) < 1e-9)
    five_ok = order5 == 24
    period = np.eye(3)
    gen5 = next(g for g, t in zip(ico, traces) if abs(t - PHI) < 1e-9)
    for _ in range(5):
        period = period @ gen5
    gen_ok = np.allclose(period, np.eye(3), atol=1e-9)

    detail = (f"{len(pool)} groups audited, {len(bad)} failures; "
              f"phi constant {'ok' if phi_ok else 'WRONG'}, "
              f"{order5} five-fold rotations, generator period "
              f"{'5' if gen_ok else 'not 5'}")
    ok = not bad and phi_ok and five_ok and gen_ok
    _report(7, ok, detail)
    assert ok, detail + "".join(
        f"\n  {lab}: {what} check failed" for lab, what in bad[:10])
