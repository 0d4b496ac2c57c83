"""The simulator needs no scipy: with every scipy import blocked, a fresh
interpreter loads the CLI and computes the same answers as this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import CtiTrialConfig, run_cti_accuracy
from repro.experiments.stats import summarize
from repro.scenarios import compile_scenario, get_scenario
from repro.serialization import canonical_dumps, stable_hash

_ROOT = Path(__file__).resolve().parent.parent

#: Runs in the subprocess; ``answers()`` runs the same calls in this one.
_SCRIPT = """
import json, sys
from tests.scipy_block import BlockScipy
sys.meta_path.insert(0, BlockScipy())
import repro.cli
from tests.test_without_scipy import answers
print(json.dumps(answers()))
"""


def answers():
    office = compile_scenario(get_scenario("office", scheme="bicord"), 1).run()
    cti = run_cti_accuracy(CtiTrialConfig(n_traces=20), seed=1)
    return {
        "office": stable_hash(canonical_dumps(office)),
        "cti": [cti.wifi_detection_accuracy, cti.multiclass_accuracy],
        "ci95": [
            summarize([(i * 0.37) % 1.0 for i in range(n)]).ci95 for n in (5, 40)
        ],
    }


def test_simulator_runs_without_scipy_and_gets_the_same_answers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    assert json.loads(done.stdout) == answers()
