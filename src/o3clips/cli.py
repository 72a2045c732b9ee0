"""Command line front end.

Subcommands: ``clips`` for a single product, ``table`` to regenerate
closed-form grid cells, ``verify`` to sweep the grid against brute
force, ``piez`` for the coupled-law catalog, ``info`` for one class,
``materialize`` to dump explicit matrices.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a
verification found a mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Sequence

from .engine import _METHODS, _oracle_check, clips, verify_cells
from .labels import (
    ClassSet,
    family_spelling,
    format_label,
    is_infinite,
    order_of,
    parse_label,
    proper_part,
    strip_z2c,
    tilde_part,
    typeclass,
)
from .piezo import diff_piez
from .tables import COL_KINDS, ROW_KINDS, table_cols, table_rows

_FORMATS = ("text", "json", "csv", "markdown")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; reserve 2 for mismatches."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _labels(cs: ClassSet) -> str:
    return " ".join(cs.labels())


def _emit(fmt: str, obj, header: list[str], rows: list[list[str]],
          text: list[str]) -> None:
    """Print one result: ``obj`` as JSON, ``header`` and ``rows`` as CSV
    or a markdown table, ``text`` line by line."""
    if fmt == "json":
        print(json.dumps(obj))
    elif fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
    elif fmt == "markdown":
        for line in (header, ["---"] * len(header), *rows):
            print("| " + " | ".join(line) + " |")
    else:
        for line in text:
            print(line)


# ---------------------------------------------------------------- clips


def cmd_clips(args) -> int:
    a, b = parse_label(args.lhs), parse_label(args.rhs)
    lhs, rhs = format_label(a), format_label(b)
    if args.method != "both":
        result = clips(a, b, method=args.method)
        _emit(args.format, {"op": "clips", "lhs": lhs, "rhs": rhs,
                            "result": result.labels()},
              ["lhs", "rhs", "result"], [[lhs, rhs, _labels(result)]],
              [_labels(result)])
        return 0

    symbolic = clips(a, b, method="symbolic")
    oracle = _oracle_check(a, b)
    if oracle is None:
        match, verdict = None, "oracle: skipped (needs finite classes)"
    elif symbolic != oracle:
        match, verdict = False, "MISMATCH"
    else:
        match, verdict = True, "MATCH"
    rows = [["symbolic", _labels(symbolic)]]
    if oracle is not None:
        rows.append(["oracle", _labels(oracle)])
    _emit(args.format, {
        "op": "clips", "lhs": lhs, "rhs": rhs,
        "result": symbolic.labels(),
        "oracle": None if oracle is None else oracle.labels(),
        "match": match,
    }, ["method", "result"], rows,
        [f"{method}: {result}" for method, result in rows] + [verdict])
    return 2 if match is False else 0


# ---------------------------------------------------------------- table


def _tokens(kinds) -> dict[str, str]:
    # each family by its spelling and by its kind tag (``D^z``, ``Dz``)
    return {tok: kind for kind in kinds for tok in (family_spelling(kind), kind)}


def _families(kinds) -> str:
    return ",".join(map(family_spelling, kinds))


_COLUMN_TOKENS = {**_tokens(COL_KINDS), "O2^-": "O2-"}
_ROW_TOKENS = _tokens(ROW_KINDS)


def _parse_range(text: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m or int(m.group(2)) < int(m.group(1)):
        raise ValueError(f"bad range {text!r}; expected A..B")
    return range(int(m.group(1)), int(m.group(2)) + 1)


def _split_tokens(text: str, table: dict, what: str) -> list[str]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in table:
            allowed = ", ".join(sorted(set(table)))
            raise ValueError(f"unknown {what} {tok!r}; expected one of "
                             f"{allowed}")
        if table[tok] not in out:
            out.append(table[tok])
    return out


def cmd_table(args) -> int:
    n_range = _parse_range(args.n_range)
    m_range = _parse_range(args.m_range)
    col_kinds = _split_tokens(args.columns, _COLUMN_TOKENS, "column")
    row_kinds = _split_tokens(args.rows, _ROW_TOKENS, "row")
    rows = table_rows(row_kinds, m_range)
    # D2^d is D2^z: with n from 1 the D^d column repeats the D^z one
    cols = list(dict.fromkeys(table_cols(col_kinds, n_range)))
    grid = [[clips(r, c) for c in cols] for r in rows]
    rows = [format_label(r) for r in rows]
    cols = [format_label(c) for c in cols]
    cells = [(r, c, cell) for r, line in zip(rows, grid)
             for c, cell in zip(cols, line)]
    header = ["row", "col", "result"]
    table = [[r, c, _labels(cell)] for r, c, cell in cells]
    if args.format == "markdown":
        header = [""] + cols
        table = [[r] + [_labels(cell) for cell in line]
                 for r, line in zip(rows, grid)]
    _emit(args.format, {"op": "table", "cells": [
        {"row": r, "col": c, "result": cell.labels()}
        for r, c, cell in cells
    ]}, header, table, [f"{r} x {c}: {_labels(cell)}"
                       for r, c, cell in cells])
    return 0


# --------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    # a negative size is refused, not read as an empty range (as B < A
    # is for ``table``): with T, O and I and the O^- and O(2)^- columns,
    # which have no parameter, it would still check 6 cells
    for option, size in (("--n-max", args.n_max), ("--m-max", args.m_max)):
        if size < 0:
            raise ValueError(f"bad {option} {size}; expected a size >= 0")
    cells = [(format_label(cell.row), format_label(cell.col), cell)
             for cell in verify_cells(n_max=args.n_max, m_max=args.m_max)]
    mismatched = sum(not cell.match for *_, cell in cells)
    text = [f"ok   {row} x {col}: {_labels(cell.symbolic)}" if cell.match
            else f"FAIL {row} x {col}: symbolic {_labels(cell.symbolic)}"
                 f" != brute {_labels(cell.brute)}"
            for row, col, cell in cells]
    text.append(f"{len(cells)} cells checked, {len(cells) - mismatched} ok, "
                f"{mismatched} mismatched")
    _emit(args.format, {"op": "verify", "cells": [
        {"row": row, "col": col, "symbolic": cell.symbolic.labels(),
         "brute": cell.brute.labels(), "match": cell.match}
        for row, col, cell in cells
    ], "checked": len(cells), "mismatched": mismatched},
        ["row", "col", "symbolic", "brute", "match"],
        [[row, col, _labels(cell.symbolic), _labels(cell.brute),
          str(cell.match).lower()] for row, col, cell in cells], text)
    return 2 if mismatched else 0


# ----------------------------------------------------------------- piez


def cmd_piez(args) -> int:
    d = diff_piez()
    computed = d.computed.labels()
    text = [f"computed isotropy classes ({len(computed)}):",
            _labels(d.computed)]
    text += [f"note: the builtin list spells {canon} twice ({printed} is "
             f"the same class), {d.printed_count} entries name "
             f"{d.canonical_count} classes" for printed, canon in d.collisions]
    if d.match:
        text.append("computed catalog matches the builtin one")
    else:
        text.append("computed catalog differs from the builtin one:")
        text += [f"  missing: {lbl}" for lbl in d.missing]
        for lbl in d.extra:
            pair = d.witnesses.get(lbl)
            where = (f" (from clips of {pair[0]} with {pair[1]})"
                     if pair else "")
            text.append(f"  extra: {lbl}{where}")
    _emit(args.format, computed, ["label"], [[lbl] for lbl in computed],
          text)
    return 0 if d.match else 2


# ----------------------------------------------------------------- info


_TYPE_NOTES = {
    "I": "rotations only",
    "II": "contains the central inversion",
    "III": "has improper elements but not the inversion",
}

def _describe_factor(sign: int, axis, order: int) -> str:
    """A cyclic factor's generator, sign R([unit axis], 2*pi/order),
    with the angle printed exactly as a reduced fraction of pi."""
    from .rotations import unit

    angle = (f"2*pi/{order}" if order % 2 else "pi" if order == 2
             else f"pi/{order // 2}")
    coords = " ".join(f"{x:.3f}".rstrip("0").rstrip(".") for x in unit(axis))
    return f"{'-' if sign < 0 else ''}R([{coords}], {angle})"


def cmd_info(args) -> int:
    label = parse_label(args.label)
    canon = format_label(label)
    kind = typeclass(label)
    order = order_of(label)
    print(f"label: {canon}")
    print(f"type: {kind} ({_TYPE_NOTES[kind]})")
    print("order: " + ("infinite" if math.isinf(order) else str(order)))
    if kind == "II":
        print(f"rotation part: {format_label(strip_z2c(label))}")
    elif kind == "III":
        print(f"rotation part: {format_label(proper_part(label))}")
        print(f"rotation envelope: {format_label(tilde_part(label))}")
    if not is_infinite(label):
        from .groups import cyclic_factors

        factors = cyclic_factors(label)
        print(f"primary axis order: {max((m for *_, m in factors), default=1)}")
        gens = [_describe_factor(*f) for f in factors]
        print("generators: " + "; ".join(gens + ["-Id"] * label.plus))
    return 0


# ---------------------------------------------------------- materialize


def cmd_materialize(args) -> int:
    label = parse_label(args.label)
    import numpy as np

    from .groups import materialize
    from .rotations import random_rotation

    orientation = None
    if args.seed:
        orientation = random_rotation(np.random.default_rng(args.seed))
    elems = materialize(label, orientation)
    print(f"# label={format_label(label)} order={len(elems)}")
    for g in elems:
        print(" ".join(f"{x:.17g}" for x in g.reshape(-1)))
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="o3clips",
                     description="Clips products of symmetry classes of "
                                 "closed subgroups of O(3).")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("clips", help="clips product of two classes")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--method", choices=_METHODS, default="symbolic")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.set_defaults(func=cmd_clips)

    p = sub.add_parser("table", help="closed-form grid cells")
    p.add_argument("--n-range", default="2..6", metavar="A..B",
                   help="column parameter range (default 2..6)")
    p.add_argument("--m-range", default="2..6", metavar="A..B",
                   help="row parameter range (default 2..6)")
    p.add_argument("--columns", default=_families(COL_KINDS),
                   help="comma separated column families")
    p.add_argument("--rows", default=_families(ROW_KINDS),
                   help="comma separated row families")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify",
                       help="sweep the grid against brute force")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("piez",
                       help="recompute the coupled-law catalog")
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.set_defaults(func=cmd_piez)

    p = sub.add_parser("info", help="describe one class")
    p.add_argument("label")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("materialize",
                       help="dump the matrices of a finite class")
    p.add_argument("label")
    p.add_argument("--seed", type=int, default=0,
                   help="0 for the reference orientation, otherwise a "
                        "seeded random one")
    p.set_defaults(func=cmd_materialize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # GroupError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
