"""networkx is a test-only dependency: the runtime never imports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

FIGURE3_WITHOUT_NETWORKX = """
import json
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
from repro.experiments.figure3 import run_figure3

result = run_figure3(n=30, lambdas=(1.0, 4.0), gammas=(1.0, 4.0),
                     iterations=5_000, seed=7)
print(json.dumps(sorted(result.phases.values())))
"""


def _python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_cli_import_leaves_networkx_unloaded():
    out = _python("import sys, repro.cli; print('networkx' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_figure3_runs_with_networkx_blocked():
    out = _python(FIGURE3_WITHOUT_NETWORKX)
    assert out.returncode == 0, out.stderr
    phases = json.loads(out.stdout)
    assert len(phases) == 4
    assert "failed" not in phases
