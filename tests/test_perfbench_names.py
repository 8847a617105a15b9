"""The names the benchmark's traced run patches still exist.

``perfbench/spans.py`` wraps module functions and scan methods by name.
A rename would make ``install`` fail on a missing attribute, and a
removed module-level import would let it set a fresh name that no code
calls, so a traced layer would silently read 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path.insert(0, {perfbench!r})
import spans
from primegaps import accum, analytic, cli, fit, fluct, runner, selberg, sieve
modules = (accum, analytic, cli, fit, fluct, runner, selberg, sieve)
before = {{m.__name__: set(vars(m)) for m in modules}}
spans.install(spans.Tracer())
print(json.dumps(sorted(f"{{m.__name__}}.{{name}}" for m in modules
                        for name in set(vars(m)) - before[m.__name__])))
"""

# fluct never imported run_scan: its wrappers fold through run_to_end,
# which calls runner.run_scan, and that one is wrapped.
_SET_WITHOUT_A_CALLER = {"primegaps.fluct.run_scan"}


def test_spans_install_patches_only_existing_names(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    probe = _PROBE.format(perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout)) <= _SET_WITHOUT_A_CALLER
