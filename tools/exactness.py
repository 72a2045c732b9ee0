"""Digests of the answers of one source tree, and their comparison.

Writes, as JSON on stdout, the SHA-256 digest of each of:

- ``clips`` (the symbolic route) on every ordered pair of
  ``tests/test_tables.MEMO_POOL``, or of its first ``--pool`` classes,
  as labels, then as their ``format_label`` spellings, then both again
  on the warm memo (four digests);
- ``oracle.clips_oracles`` over the square of
  ``tests/test_properties.finite_labels(M)``, M = ``--oracle-size``;
- with ``--verify N``, the stdout of
  ``o3clips verify --n-max N --m-max N --format json``;
- the replay through ``o3clips.cli.main`` of every invocation that
  ``tests/fixtures/cli_cases.json`` records (``tools/cli_cases.py``):
  its stdout, stderr and exit code.

Each line hashed names the pair and spells its answer with
``format_label`` (or, for a spelling that does not parse, gives the
``ValueError``), so a change to an answer or to a spelling changes a
digest.  The package is imported from ``--src`` (this tree's ``src/``
by default), and the class lists and the recorded invocations from this
tree's ``tests/``, so two trees are compared on the same inputs::

    python tools/exactness.py > before.json
    python tools/exactness.py --src /path/to/other/src --verify 64 > after.json
    python tools/exactness.py --compare before.json after.json

``--compare A B`` prints the name of every digest that differs between
two such files (or that only one holds) and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_CASES = ROOT / "tests" / "fixtures" / "cli_cases.json"


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _clips_lines(clips, specs: list):
    """One line per ordered pair of ``specs``: the pair and its answer,
    or the ValueError of a spelling that does not parse."""
    for a in specs:
        for b in specs:
            try:
                got = " ".join(clips(a, b).labels())
            except ValueError as exc:
                got = f"ValueError: {exc}"
            yield f"{a} {b}: {got}"


def digests(pool: int | None, oracle_size: int, verify: int | None) -> dict:
    """The named digests of the package on ``sys.path``."""
    import o3clips
    from cli_cases import run_case
    from o3clips import clips
    from o3clips.cli import main as o3clips_main
    from o3clips.labels import format_label
    from o3clips.oracle import clips_oracles
    from test_properties import finite_labels
    from test_tables import MEMO_POOL

    # the package of ``--src``, not one installed or on PYTHONPATH
    if Path(o3clips.__file__).parent.parent != Path(sys.path[0]):
        raise SystemExit(f"o3clips came from {o3clips.__file__}, not {sys.path[0]}")
    memo = MEMO_POOL[:pool]
    name = f"clips MEMO_POOL[:{len(memo)}]^2"
    forms = {name: memo, f"{name} spelled": [format_label(a) for a in memo]}
    square = finite_labels(oracle_size)
    # a label prints as its spelling, so both forms hash the same lines
    # when every spelling parses; the second pass answers from the memo
    out = {key: _sha(_clips_lines(clips, specs)) for key, specs in forms.items()}
    out |= {f"{key}, warm": _sha(_clips_lines(clips, specs))
            for key, specs in forms.items()}
    out |= {
        f"clips_oracles finite_labels({oracle_size})^2": _sha(
            f"{format_label(a)} {format_label(b)}: {' '.join(got.labels())}"
            for a, row in zip(square, clips_oracles(square, square))
            for b, got in zip(square, row)),
    }
    if verify is not None:
        argv = ["verify", "--n-max", str(verify), "--m-max", str(verify),
                "--format", "json"]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            o3clips_main(argv)
        # the digest of the bytes printed, as ``sha256sum`` reads them
        out[f"o3clips {' '.join(argv)}"] = hashlib.sha256(
            text.getvalue().encode()).hexdigest()
    cases = json.loads(CLI_CASES.read_text(encoding="utf-8"))
    out[f"o3clips replay of {CLI_CASES.relative_to(ROOT)}"] = _sha(
        json.dumps(run_case(case["argv"]), ensure_ascii=False)
        for case in cases)
    return out


def differences(a: dict, b: dict) -> list[str]:
    """The names of the digests that differ between two digest maps, or
    that only one holds."""
    return [name for name in dict.fromkeys([*a, *b]) if a.get(name) != b.get(name)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds the o3clips package")
    parser.add_argument("--pool", type=int, default=None,
                        help="the first POOL classes of MEMO_POOL (default all)")
    parser.add_argument("--oracle-size", type=int, default=40, metavar="M")
    parser.add_argument("--verify", type=int, default=None, metavar="N")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        names = differences(a, b)
        for name in names:
            print(f"differs: {name}")
        print(f"{len(names)} of {len(set(a) | set(b))} digests differ")
        return 1 if names else 0
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests"),
                    str(ROOT / "tools")]
    print(json.dumps(digests(args.pool, args.oracle_size, args.verify), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
