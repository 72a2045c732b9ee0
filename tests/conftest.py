import json
import pathlib

import numpy as np

from o3clips import infinite
from o3clips.labels import (
    cyclic,
    cyclic_minus,
    dihedral,
    dihedral_d,
    dihedral_z,
    icosa,
    octa,
    octa_minus,
    order_of,
    tetra,
    trivial,
    with_z2c,
)
from o3clips.rotations import EPS_MAT

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_catalog(name: str) -> list[str]:
    """Golden catalog fixture: one canonical label per line."""
    text = (FIXTURES / f"{name}.txt").read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def load_pins(name: str) -> dict[str, list[str]]:
    """Frozen brute-force results keyed by 'LHS|RHS'."""
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def empty_clips_memo(monkeypatch) -> None:
    """Empty both memo stores of ``clips_reduce`` for one test, so that
    every pair reaches the rule again; monkeypatch restores them."""
    monkeypatch.setattr(infinite, "_PAIRS", {})
    monkeypatch.setattr(infinite, "_MEMO", {})


def mats_equal(a: np.ndarray, b: np.ndarray, eps: float = EPS_MAT) -> bool:
    return bool(np.max(np.abs(a - b)) < eps)


def is_orthogonal(g: np.ndarray, eps: float = 1e-8) -> bool:
    return bool(np.max(np.abs(g @ g.T - np.eye(3))) < eps)


def contains_element(group: np.ndarray, g: np.ndarray) -> bool:
    """True when some element of ``group`` equals ``g`` within EPS_MAT."""
    return bool(
        (np.abs(group - g[None]).reshape(len(group), 9).max(axis=1) < EPS_MAT).any()
    )


def labels_up_to(cap: int) -> list:
    """Every finite canonical label of order at most cap."""
    labs = [trivial(), with_z2c(trivial())]
    labs += [cyclic(n) for n in range(2, cap + 1)]
    labs += [dihedral(n) for n in range(2, cap // 2 + 1)]
    labs += [tetra(), octa(), icosa()]
    labs += [with_z2c(cyclic(n)) for n in range(2, cap // 2 + 1)]
    labs += [with_z2c(dihedral(n)) for n in range(2, cap // 4 + 1)]
    labs += [with_z2c(tetra()), with_z2c(octa()), with_z2c(icosa())]
    labs += [cyclic_minus(2 * k) for k in range(1, cap // 2 + 1)]
    labs += [dihedral_z(n) for n in range(2, cap // 2 + 1)]
    labs += [dihedral_d(2 * k) for k in range(1, cap // 4 + 1)]
    labs += [octa_minus()]
    labs = [lab for lab in labs if order_of(lab) <= cap]
    return list(dict.fromkeys(labs))
