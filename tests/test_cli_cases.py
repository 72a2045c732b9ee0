import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "cli_cases.py"
_spec = importlib.util.spec_from_file_location("cli_cases", TOOL)
cli_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_cases)


def test_recorded_cli_cases_replay_byte_for_byte():
    recorded = json.loads(cli_cases.FIXTURE.read_text(encoding="utf-8"))
    assert [case["argv"] for case in recorded] == [
        list(argv) for argv in cli_cases.CASES]
    assert cli_cases.differences(recorded, cli_cases.run_cases()) == []


def test_a_changed_output_is_reported():
    recorded = json.loads(cli_cases.FIXTURE.read_text(encoding="utf-8"))
    edited = [dict(case) for case in recorded]
    edited[0]["stdout"] += "x"
    edited[-1]["code"] = 0
    assert cli_cases.differences(recorded, edited) == [
        f"o3clips {' '.join(recorded[0]['argv'])}: stdout differ",
        f"o3clips {' '.join(recorded[-1]['argv'])}: code differ",
    ]
