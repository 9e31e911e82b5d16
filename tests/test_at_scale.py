"""CI runs every check of ``tests/at_scale.py``, and no check lives only in CI.

Each at-scale step of ``.github/workflows/tier1.yml`` calls the script by
check name; a check dropped from the workflow, or a name the script does
not register, would otherwise go unnoticed until the job ran.
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


def test_workflow_patches_nothing_inline():
    # Faults are injected in tests/at_scale.py, through tests/_faults.py.
    assert "mock.patch" not in WORKFLOW


def test_unknown_check_exits_2_and_names_every_check():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "nosuch"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2
    assert result.stderr.split(": ")[-1].split() == list(at_scale.CHECKS)
