"""Record or replay a fixed list of ``o3clips`` invocations.

Each case runs in this interpreter through ``o3clips.cli.main``, with
stdout and stderr captured and the terminal width pinned to 80 columns
(argparse wraps its usage text to it), and records what it printed on
each stream and its exit code.  The list covers every subcommand, the
output formats, the three ``clips`` methods and the error paths, so a
change that keeps the replay byte-identical keeps the command line's
behaviour.

Run from anywhere, with no options, to rewrite
``tests/fixtures/cli_cases.json``::

    python tools/cli_cases.py

``tests/test_cli_cases.py`` replays the committed fixture and reports
each case that ``differences`` finds changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "cli_cases.json"

_PAIRS = (("O^-", "O+Z2c"), ("Z4^-", "Z4+Z2c"), ("D12+Z2c", "D18^d"),
          ("D3", "O(2)^-"))

CASES: tuple[tuple[str, ...], ...] = (
    *(("piez", "--format", fmt) for fmt in ("text", "json", "csv", "markdown")),
    ("table",),
    ("table", "--format", "csv"),
    ("table", "--n-range", "1..3", "--m-range", "2..3", "--format", "json"),
    ("table", "--columns", "D^d,O^-", "--rows", "D,O", "--format", "markdown"),
    ("verify", "--n-max", "3", "--m-max", "3"),
    ("verify", "--n-max", "2", "--m-max", "2", "--format", "json"),
    *(("info", label) for label in
      ("1", "D2^d", "O^-", "O(2)+Z2c", "Z127", "Z257")),
    *(("clips", a, b, "--method", method) for a, b in _PAIRS
      for method in ("symbolic", "oracle", "both")),
    *(("clips", "D12+Z2c", "D18^d", "--format", fmt)
      for fmt in ("json", "csv", "markdown")),
    ("materialize", "Z2"),
    # parse errors: no spelling, a spelling that names no group, +Z2c twice
    ("clips", "D4x", "Z2"),
    ("info", "Z3^-"),
    ("clips", "O(3)+Z2c", "1"),
    ("clips", "Z4^-+Z2c", "1"),
    # usage errors
    (),
    ("clips", "D4"),
    ("clips", "D4", "Z2", "--method", "bogus"),
    ("table", "--n-range", "3..1"),
    ("verify", "--n-max", "-1"),
    # the oracle's order cap, alone and under "both"
    ("clips", "D300", "D2", "--method", "oracle"),
    ("clips", "D200", "Z2", "--method", "both"),
)


def run_case(argv: tuple[str, ...]) -> dict:
    """One invocation's argv, stdout, stderr and exit code."""
    from o3clips.cli import main

    out, err = io.StringIO(), io.StringIO()
    width = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        if width is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = width
    return {"argv": list(argv), "stdout": out.getvalue(),
            "stderr": err.getvalue(), "code": code}


def run_cases() -> list[dict]:
    return [run_case(argv) for argv in CASES]


def differences(recorded: list[dict], replayed: list[dict]) -> list[str]:
    """One line per case whose replay differs from its record."""
    lines = []
    if len(recorded) != len(replayed):
        lines.append(f"{len(recorded)} cases recorded, {len(replayed)} run")
    for old, new in zip(recorded, replayed):
        changed = [key for key in ("argv", "stdout", "stderr", "code")
                   if old[key] != new[key]]
        if changed:
            lines.append(f"o3clips {' '.join(old['argv'])}: "
                         f"{', '.join(changed)} differ")
    return lines


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    cases = run_cases()
    FIXTURE.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(cases)} cases written to {FIXTURE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
