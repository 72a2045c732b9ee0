import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "exactness.py"
SRC = TOOL.parent.parent / "src"
_spec = importlib.util.spec_from_file_location("exactness", TOOL)
exactness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exactness)

SMALL = ["--pool", "40", "--oracle-size", "6", "--verify", "3"]


def _copy(tmp_path: pathlib.Path, name: str) -> pathlib.Path:
    """A plain copy of this tree's ``src/``."""
    src = tmp_path / name / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _digests(tmp_path: pathlib.Path, src: pathlib.Path, name: str) -> pathlib.Path:
    """The tool's small digests of ``src``, written to a file."""
    out = tmp_path / f"{name}.json"
    run = subprocess.run([sys.executable, str(TOOL), "--src", str(src), *SMALL],
                         capture_output=True, text=True, check=True)
    out.write_text(run.stdout)
    return out


def _compare(a: pathlib.Path, b: pathlib.Path, capsys) -> tuple[int, list[str]]:
    """The exit code and printed lines of ``--compare a b``."""
    code = exactness.main(["--compare", str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_a_plain_copy_has_the_same_digests_and_a_planted_change_differs(
        tmp_path, capsys):
    planted = _copy(tmp_path, "planted")
    labels = planted / "o3clips" / "labels.py"
    line = '        base = f"{head}{label.n}{suffix}"\n'
    text = labels.read_text()
    assert text.count(line) == 1
    labels.write_text(text.replace(line, line.replace('"\n', '".lower()\n')))
    tree = _digests(tmp_path, SRC, "tree")
    assert len(json.loads(tree.read_text())) == 7
    plain = _digests(tmp_path, _copy(tmp_path, "plain"), "plain")
    assert _compare(tree, plain, capsys) == (0, ["0 of 7 digests differ"])
    code, lines = _compare(tree, _digests(tmp_path, planted, "planted"), capsys)
    assert code == 1
    # the planted spellings no longer parse, which the spelled passes
    # record, and the CLI prints them
    assert lines == [
        "differs: clips MEMO_POOL[:40]^2",
        "differs: clips MEMO_POOL[:40]^2 spelled",
        "differs: clips MEMO_POOL[:40]^2, warm",
        "differs: clips MEMO_POOL[:40]^2 spelled, warm",
        "differs: clips_oracles finite_labels(6)^2",
        "differs: o3clips verify --n-max 3 --m-max 3 --format json",
        "differs: o3clips replay of tests/fixtures/cli_cases.json",
        "7 of 7 digests differ",
    ]


def test_a_digest_that_only_one_side_holds_differs():
    a = {"x": "1", "y": "2"}
    assert exactness.differences(a, {"x": "1", "y": "3"}) == ["y"]
    assert exactness.differences(a, {"x": "1"}) == ["y"]
    assert exactness.differences({}, {"z": "0"}) == ["z"]
    assert exactness.differences(a, dict(a)) == []
