import json
import os
import pathlib
import subprocess
import sys

import pytest

import o3clips
from conftest import empty_clips_memo
from o3clips.cli import main

# the source tree this suite imported, for the interpreters it starts
SRC = str(pathlib.Path(o3clips.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args, **env):
    """Run a fresh interpreter on this source tree; extra keywords are
    environment variables."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=SRC, **env),
    )


def test_clips_text(capsys):
    code, out, err = run(capsys, "clips", "O^-", "O+Z2c")
    assert code == 0
    assert out == "1 Z2 Z2^- Z3 Z4^- D2^z D3^z D4^d O^-\n"
    assert err == ""


def test_clips_trivial(capsys):
    code, out, _ = run(capsys, "clips", "1", "I+Z2c")
    assert code == 0
    assert out == "1\n"


def test_clips_json_schema_and_stability(capsys):
    code, out1, _ = run(capsys, "clips", "Z4^-", "Z4+Z2c",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out1)
    assert obj == {"op": "clips", "lhs": "Z4^-", "rhs": "Z4+Z2c",
                   "result": ["1", "Z4^-"]}
    assert list(obj) == ["op", "lhs", "rhs", "result"]
    _, out2, _ = run(capsys, "clips", "Z4^-", "Z4+Z2c",
                     "--format", "json")
    assert out1 == out2


def test_clips_csv(capsys):
    code, out, _ = run(capsys, "clips", "Z2", "D4", "--format", "csv")
    assert code == 0
    assert out == "lhs,rhs,result\nZ2,D4,1 Z2\n"


def test_clips_markdown(capsys):
    code, out, _ = run(capsys, "clips", "Z2", "D4",
                       "--format", "markdown")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| lhs | rhs | result |"
    assert lines[2] == "| Z2 | D4 | 1 Z2 |"


def test_clips_both_match(capsys):
    code, out, _ = run(capsys, "clips", "Z4^-", "Z4+Z2c",
                       "--method", "both")
    assert code == 0
    assert out.splitlines() == ["symbolic: 1 Z4^-", "oracle: 1 Z4^-",
                                "MATCH"]


def test_clips_both_checks_a_type3_pair(capsys):
    # the type III x III rule answers Z4^- x D4^z, and the oracle checks it
    code, out, _ = run(capsys, "clips", "Z4^-", "D4^z", "--method", "both")
    assert code == 0
    assert out.splitlines() == ["symbolic: 1 Z2", "oracle: 1 Z2", "MATCH"]
    code, out, _ = run(capsys, "clips", "Z4^-", "D4^z", "--method", "both",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_clips_both_rotation_pair_is_checked(capsys):
    # Z4 x D6 has a closed form, so the oracle is an independent check
    code, out, _ = run(capsys, "clips", "Z4", "D6", "--method", "both")
    assert code == 0
    assert out.splitlines() == ["symbolic: 1 Z2", "oracle: 1 Z2", "MATCH"]


def test_clips_beyond_the_order_cap(capsys):
    # the gcd rule answers where the oracle could not build Z300
    code, out, _ = run(capsys, "clips", "Z300", "D3")
    assert code == 0
    assert out == "1 Z2 Z3\n"


def test_clips_type3_pair_beyond_the_order_cap(capsys):
    # the signed-axes rule answers where the oracle could not build
    # D129^z, and the check "both" asks for stops at the cap
    code, out, _ = run(capsys, "clips", "D129^z", "D2^z")
    assert code == 0
    assert out == "1 Z2^-\n"
    code, out, err = run(capsys, "clips", "D129^z", "D2^z",
                         "--method", "both")
    assert code == 1
    assert out == ""
    assert "above the order cap 256" in err


def test_piez_loads_no_numpy():
    # the fold, a closed-form cell and a parse error stay symbolic
    script = ("import sys\n"
              "from o3clips import cli\n"
              "for argv, code in [(['piez', '--format', 'json'], 2),\n"
              "                   (['clips', 'O^-', 'O+Z2c'], 0),\n"
              "                   (['clips', 'X4', 'O'], 1)]:\n"
              "    assert cli.main(argv) == code, argv\n"
              "    for mod in ('numpy', 'dataclasses', 'inspect', 'csv'):\n"
              "        assert mod not in sys.modules, (mod, argv)\n")
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_symbolic_routes_load_no_matrix_layer():
    # the fold, a II x III cell, a finite x axial cell and two III x III
    # cells of public clips answer in closed form, so groups and oracle
    # stay unloaded
    script = ("import sys\n"
              "from o3clips import cli, clips\n"
              "assert cli.main(['piez', '--format', 'json']) == 2\n"
              "assert clips('D4+Z2c', 'D6^d').labels()\n"
              "assert clips('O+Z2c', 'O(2)^-').labels()\n"
              "assert clips('Z4^-', 'D4^z').labels()\n"
              "assert clips('O^-', 'O^-').labels()\n"
              "for mod in ('o3clips.groups', 'o3clips.oracle'):\n"
              "    assert mod not in sys.modules, mod\n")
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,code", [
    (("piez", "--format", "json"), 2),
    (("table", "--format", "csv"), 0),
])
def test_output_independent_of_hash_seed(argv, code):
    # labels hash by identity; no set or dict order may reach the output
    outs = set()
    for seed in ("1", "2"):
        proc = python("-m", "o3clips", *argv, PYTHONHASHSEED=seed)
        assert proc.returncode == code, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_clips_both_mismatch_exit_2(capsys, monkeypatch):
    from o3clips import infinite
    from o3clips.labels import class_set

    empty_clips_memo(monkeypatch)
    monkeypatch.setattr(infinite, "cell",
                        lambda a, b: class_set("1", "I"))
    code, out, _ = run(capsys, "clips", "Z4+Z2c", "D4^z",
                       "--method", "both")
    assert code == 2
    assert out.splitlines()[-1] == "MISMATCH"
    code, out, _ = run(capsys, "clips", "Z4+Z2c", "D4^z",
                       "--method", "both", "--format", "json")
    assert code == 2
    assert json.loads(out)["match"] is False


def test_clips_both_skips_oracle_for_infinite(capsys):
    code, out, _ = run(capsys, "clips", "Z4", "SO(2)",
                       "--method", "both")
    assert code == 0
    assert out.splitlines() == ["symbolic: 1 Z4",
                                "oracle: skipped (needs finite classes)"]


def test_clips_oracle_infinite_is_usage_error(capsys):
    code, out, err = run(capsys, "clips", "Z4", "SO(2)",
                         "--method", "oracle")
    assert code == 1
    assert "finite" in err


def test_parse_error_exit_1(capsys):
    code, out, err = run(capsys, "clips", "X4", "O")
    assert code == 1
    assert out == ""
    assert "cannot parse class label 'X4'" in err
    assert "position 1" in err


def test_a_second_z2c_is_a_usage_error(capsys):
    code, out, err = run(capsys, "clips", "O(3)+Z2c", "1")
    assert code == 1
    assert out == ""
    assert err == "error: 'O(3)+Z2c': +Z2c applied twice\n"


def test_parse_error_points_inside(capsys):
    code, _, err = run(capsys, "clips", "Z4^+", "O")
    assert code == 1
    assert "position 4" in err


def test_usage_error_exit_1():
    # argparse must not exit 2: that code is reserved for mismatches
    with pytest.raises(SystemExit) as err:
        main(["clips", "Z2", "D4", "--method", "banana"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["clips"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--n-range", "2..3",
                       "--m-range", "2..2", "--columns", "D^d",
                       "--rows", "Z")
    assert code == 0
    assert out.splitlines() == [
        "Z2+Z2c x D4^d: 1 Z2 Z2^-",
        "Z2+Z2c x D6^d: 1 Z2 Z2^-",
    ]


def test_table_lists_each_column_once(capsys):
    # from n = 1 the D^d column's D2^d is the D^z column's D2^z
    code, out, _ = run(capsys, "table", "--n-range", "1..3",
                       "--m-range", "2..2", "--rows", "Z")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"Z2+Z2c x {col}" for col in ("Z2^-", "Z4^-", "Z6^-", "D2^z",
                                      "D3^z", "D4^d", "D6^d", "O^-",
                                      "O(2)^-")
    ]


def test_table_markdown_grid(capsys):
    code, out, _ = run(capsys, "table", "--n-range", "2..2",
                       "--m-range", "2..2", "--columns", "Z^-,O^-",
                       "--rows", "Z,SO(2)", "--format", "markdown")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "|  | Z4^- | O^- |"
    assert lines[2] == "| Z2+Z2c | 1 Z2 | 1 Z2 Z2^- |"
    assert lines[3] == "| SO(2)+Z2c | 1 Z4^- | 1 Z2^- Z3 Z4^- |"


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--n-range", "2..2",
                       "--m-range", "2..2", "--columns", "Z^-",
                       "--rows", "Z", "--format", "csv")
    assert code == 0
    assert out == ("row,col,result\n"
                   "Z2+Z2c,Z4^-,1 Z2\n")
    code, out, _ = run(capsys, "table", "--n-range", "2..2",
                       "--m-range", "2..2", "--columns", "Z^-",
                       "--rows", "Z", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"op": "table", "cells": [
        {"row": "Z2+Z2c", "col": "Z4^-", "result": ["1", "Z2"]},
    ]}


@pytest.mark.parametrize("option", ["--n-range", "--m-range"])
def test_table_reversed_range(capsys, option):
    # B < A is refused, not read as an empty range: with the O^- and
    # O(2)^- columns, which have no parameter, it would print a table
    code, out, err = run(capsys, "table", option, "5..2")
    assert code == 1
    assert out == ""
    assert "bad range '5..2'" in err


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "--n-range", "x..2")
    assert code == 1
    assert "expected A..B" in err


def test_table_unknown_column(capsys):
    code, _, err = run(capsys, "table", "--columns", "Q^-")
    assert code == 1
    assert "unknown column" in err


# every table token, with the family it selects at parameter 2
COLUMN_TOKENS = {
    "Z^-": "Z4^-", "Z-": "Z4^-", "D^z": "D2^z", "Dz": "D2^z",
    "D^d": "D4^d", "Dd": "D4^d", "O^-": "O^-", "O-": "O^-",
    "O(2)^-": "O(2)^-", "O2-": "O(2)^-", "O2^-": "O(2)^-",
}
ROW_TOKENS = {
    "Z": "Z2+Z2c", "D": "D2+Z2c", "T": "T+Z2c", "O": "O+Z2c",
    "I": "I+Z2c", "SO(2)": "SO(2)+Z2c", "SO2": "SO(2)+Z2c",
    "O(2)": "O(2)+Z2c", "O2": "O(2)+Z2c",
}


@pytest.mark.parametrize("flag, token, family", [
    *(("--columns", tok, fam) for tok, fam in COLUMN_TOKENS.items()),
    *(("--rows", tok, fam) for tok, fam in ROW_TOKENS.items()),
])
def test_table_token_selects_its_family(capsys, flag, token, family):
    key, other = (("col", ["--rows", "Z"]) if flag == "--columns"
                  else ("row", ["--columns", "O^-"]))
    code, out, _ = run(capsys, "table", "--n-range", "2..2", "--m-range",
                       "2..2", flag, token, *other, "--format", "json")
    assert code == 0
    assert [cell[key] for cell in json.loads(out)["cells"]] == [family]


@pytest.mark.parametrize("flag, what, tokens", [
    ("--columns", "column", COLUMN_TOKENS), ("--rows", "row", ROW_TOKENS),
])
def test_table_unknown_token_lists_every_token(capsys, flag, what, tokens):
    code, _, err = run(capsys, "table", flag, "Q")
    assert code == 1
    assert (f"unknown {what} 'Q'; expected one of "
            f"{', '.join(sorted(tokens))}") in err


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "20 cells checked, 20 ok, 0 mismatched"
    assert all(line.startswith("ok   ") for line in lines[:-1])


@pytest.mark.parametrize("n_max, m_max, bad", [
    ("-2", "-5", "--n-max -2"), ("-1", "2", "--n-max -1"),
    ("1", "-1", "--m-max -1")])
def test_verify_negative_size(capsys, n_max, m_max, bad):
    # a negative size is refused, not read as an empty range that leaves
    # the 6 cells of T, O and I against O^- and O(2)^-
    code, out, err = run(capsys, "verify", "--n-max", n_max,
                         "--m-max", m_max)
    assert code == 1
    assert out == ""
    assert f"bad {bad}; expected a size >= 0" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["op", "cells", "checked", "mismatched"]
    assert (obj["op"], obj["checked"], obj["mismatched"]) == ("verify", 20, 0)
    assert len(obj["cells"]) == 20
    assert obj["cells"][0] == {"row": "Z2+Z2c", "col": "Z2^-",
                               "symbolic": ["1", "Z2^-"],
                               "brute": ["1", "Z2^-"], "match": True}


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert lines[0] == "row,col,symbolic,brute,match"
    assert lines[1] == "Z2+Z2c,Z2^-,1 Z2^-,1 Z2^-,true"


def test_verify_mismatch_exit_2(capsys, monkeypatch):
    from o3clips import infinite
    from o3clips.labels import class_set

    empty_clips_memo(monkeypatch)
    monkeypatch.setattr(infinite, "cell",
                        lambda a, b: class_set("1", "I"))
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "2")
    assert code == 2
    assert out.splitlines()[-1] == "20 cells checked, 0 ok, 20 mismatched"
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--m-max", "2",
                       "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["mismatched"] == 20
    assert not any(cell["match"] for cell in obj["cells"])


def test_piez_text_reports_the_difference(capsys):
    code, out, _ = run(capsys, "piez")
    assert code == 2
    assert "computed isotropy classes (26):" in out
    assert "D2^z twice" in out
    assert "26 entries name 25 classes" in out
    assert "differs from the builtin" in out
    assert "extra: 1+Z2c (from clips of Z2+Z2c with D2+Z2c)" in out
    assert "missing" not in out


def test_piez_json_is_the_computed_array(capsys):
    code, out, _ = run(capsys, "piez", "--format", "json")
    assert code == 2
    labels = json.loads(out)
    assert isinstance(labels, list)
    assert len(labels) == 26
    assert "1+Z2c" in labels
    assert "O(3)" in labels
    _, out2, _ = run(capsys, "piez", "--format", "json")
    assert out == out2


def test_piez_markdown_is_a_one_column_table(capsys):
    code, out, _ = run(capsys, "piez", "--format", "markdown")
    assert code == 2
    lines = out.splitlines()
    assert lines[:3] == ["| label |", "| --- |", "| 1 |"]
    assert len(lines) == 2 + 26


def test_info_d6d(capsys):
    code, out, _ = run(capsys, "info", "D6^d")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label: D6^d"
    assert lines[1].startswith("type: III")
    assert lines[2] == "order: 12"
    assert "rotation part: D3" in lines
    assert "rotation envelope: D6" in lines


@pytest.mark.parametrize("label, order", [
    ("1", 1), ("1+Z2c", 1), ("Z5", 5), ("D4+Z2c", 4), ("T", 3), ("O", 4),
    ("I+Z2c", 5), ("Z2^-", 2), ("Z8^-", 8), ("D3^z", 3), ("D6^d", 6),
    ("O^-", 4),
])
def test_info_primary_axis_order(capsys, label, order):
    code, out, _ = run(capsys, "info", label)
    assert code == 0
    assert f"primary axis order: {order}" in out.splitlines()


@pytest.mark.parametrize("label, angle", [("Z128", "pi/64"),
                                          ("Z127", "2*pi/127"),
                                          ("Z257", "2*pi/257"),
                                          ("Z1000", "pi/500"),
                                          ("Z514^-", "pi/257")])
def test_info_angle_denominators_up_to_order_cap(capsys, label, angle):
    # exact from the cyclic factor, at any order; Z514^- is generated
    # by the rotoreflection -R(e3, 2*pi/514)
    code, out, _ = run(capsys, "info", label)
    assert code == 0
    sign = "-" if label.endswith("^-") else ""
    assert out.splitlines()[-1] == f"generators: {sign}R([0 0 1], {angle})"


@pytest.mark.parametrize("label, gens", [
    ("I+Z2c", "R([0 0 1], pi); R([1 0 0], pi); "
              "R([0.577 0.577 0.577], 2*pi/3); R([0.526 0 0.851], 2*pi/5); -Id"),
    ("O^-", "-R([0 0 1], pi/2); R([1 0 0], pi); "
            "R([0.577 0.577 0.577], 2*pi/3)"),
])
def test_info_prints_the_cyclic_factors(capsys, label, gens):
    code, out, _ = run(capsys, "info", label)
    assert code == 0
    assert out.splitlines()[-1] == f"generators: {gens}"


def test_info_infinite(capsys):
    code, out, _ = run(capsys, "info", "O(2)^-")
    assert code == 0
    assert "order: infinite" in out
    assert "rotation part: SO(2)" in out
    assert "primary axis order" not in out


def test_info_type2(capsys):
    code, out, _ = run(capsys, "info", "O+Z2c")
    assert code == 0
    assert "type: II" in out
    assert "order: 48" in out
    assert "rotation part: O" in out


def test_materialize_dump(capsys):
    code, out, _ = run(capsys, "materialize", "Z4^-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# label=Z4^- order=4"
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split()) == 9
    # identity row present
    assert "1 0 0 0 1 0 0 0 1" in lines[1:]


def test_materialize_seeded_orientation(capsys):
    code, out0, _ = run(capsys, "materialize", "D3", "--seed", "0")
    code7, out7, _ = run(capsys, "materialize", "D3", "--seed", "7")
    code7b, out7b, _ = run(capsys, "materialize", "D3", "--seed", "7")
    assert code == code7 == code7b == 0
    assert out0 != out7
    assert out7 == out7b
    assert out7.splitlines()[0] == "# label=D3 order=6"


def test_materialize_above_order_cap_exit_1(capsys):
    code, out, err = run(capsys, "materialize", "Z300")
    assert code == 1
    assert out == ""
    assert err == "error: Z300 has order 300, above the order cap 256\n"


def test_materialize_infinite_exit_1(capsys):
    code, out, err = run(capsys, "materialize", "O(2)")
    assert code == 1
    assert out == ""
    assert "infinite" in err


def test_every_output_label_round_trips(capsys):
    from o3clips.labels import format_label, parse_label
    _, out, _ = run(capsys, "clips", "O^-", "O(2)+Z2c")
    for token in out.split():
        assert format_label(parse_label(token)) == token


def test_console_entry_point():
    proc = python("-m", "o3clips.cli", "clips", "1", "I+Z2c")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
