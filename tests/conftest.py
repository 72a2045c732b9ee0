import json
import pathlib

import numpy as np

from o3clips import infinite
from o3clips.labels import ClassLabel, order_of, parse_label
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
    labs = [*map(parse_label, ("1", "1+Z2c"))]
    labs += [ClassLabel("Z", n) for n in range(2, cap + 1)]
    labs += [ClassLabel("D", n) for n in range(2, cap // 2 + 1)]
    labs += map(parse_label, ("T", "O", "I"))
    labs += [ClassLabel("Z", n, True) for n in range(2, cap // 2 + 1)]
    labs += [ClassLabel("D", n, True) for n in range(2, cap // 4 + 1)]
    labs += map(parse_label, ("T+Z2c", "O+Z2c", "I+Z2c"))
    labs += [ClassLabel("Z-", 2 * k) for k in range(1, cap // 2 + 1)]
    labs += [ClassLabel("Dz", n) for n in range(2, cap // 2 + 1)]
    labs += [ClassLabel("Dd", 2 * k) for k in range(1, cap // 4 + 1)]
    labs.append(parse_label("O^-"))
    labs = [lab for lab in labs if order_of(lab) <= cap]
    return list(dict.fromkeys(labs))
