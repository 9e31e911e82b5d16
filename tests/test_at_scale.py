"""CI runs every check of ``tests/at_scale.py`` by name, and nothing else.

The at-scale step of ``.github/workflows/tier1.yml`` holds one
``timeout N python3 tests/at_scale.py NAME`` line per registered check, so
no request, diff or grep can sit in the workflow beside the checks; a check
dropped from the workflow, or a name the script does not register, would
otherwise go unnoticed until the job ran.
"""

import re
import subprocess
import sys
from pathlib import Path

import at_scale

SCRIPT = Path(at_scale.__file__).resolve()
WORKFLOW = (SCRIPT.parents[1] / ".github" / "workflows" / "tier1.yml").read_text()


def test_workflow_runs_exactly_the_registered_checks():
    runs = re.findall(r"python3? tests/at_scale\.py ([\w-]+)", WORKFLOW)
    assert set(runs) == set(at_scale.CHECKS)


def test_at_scale_step_runs_each_check_once_by_name_and_nothing_else():
    step = re.search(r"\n      - name: At scale\n(.*?)\n      - name: ", WORKFLOW, re.S)[1]
    lines = [line.strip() for line in step.splitlines() if not line.strip().startswith("#")]
    assert lines[0] == "run: |", lines[0]
    runs = [re.fullmatch(r"timeout \d+ python3 tests/at_scale\.py ([\w-]+)", line)
            for line in lines[1:]]
    assert all(runs), lines
    assert sorted(run[1] for run in runs) == sorted(at_scale.CHECKS)
    banned = r"-m vertalign|\bdiff\b|\bgrep\b|\b(for|while|do|done)\b|[<>|]"
    assert not re.search(banned, "\n".join(lines[1:])), lines


def test_workflow_patches_nothing_inline():
    # Faults are injected in tests/at_scale.py, through tests/_faults.py.
    assert "mock.patch" not in WORKFLOW


def test_runner_reports_every_check_and_fails_if_any_fails(monkeypatch, capsys):
    ran = []

    def fake(name, fails=False):
        def run():
            ran.append(name)
            if fails:
                raise AssertionError(name)
        return run

    checks = {"a": fake("a"), "b": fake("b", fails=True), "c": fake("c")}
    monkeypatch.setattr(at_scale, "CHECKS", checks)

    def report(argv):
        ran.clear()
        code = at_scale.main(argv)
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert all(float(seconds) >= 0 for _, _, seconds in lines)
        return code, ran[:], [line[:2] for line in lines]

    assert report([]) == (1, ["a", "b", "c"], [["a", "ok"], ["b", "FAIL"], ["c", "ok"]])
    assert report(["a", "c"]) == (0, ["a", "c"], [["a", "ok"], ["c", "ok"]])
    del checks["b"]
    assert report([]) == (0, ["a", "c"], [["a", "ok"], ["c", "ok"]])


def test_unknown_check_exits_2_and_names_every_check():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "nosuch"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2
    assert result.stderr.split(": ")[-1].split() == list(at_scale.CHECKS)
