"""Import hygiene: the package imports with no third-party dependency."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_startup_set_does_not_import_networkx():
    """The modules a CLI or benchmark start-up loads pull in no networkx
    (it is a test-only oracle)."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.explore.driver, repro.harness.experiments\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
