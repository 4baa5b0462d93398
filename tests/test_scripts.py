"""Smoke runs of the scripts in scripts/, each as a subprocess with the
package's source on PYTHONPATH: exit status 0, where the script ends with
a verdict that line, and where its stdout is deterministic its sha256.
The benchmark's own tests run the same way."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# stdout sha256s, taken before the scalar form rules were each written once
_SL25_SHA256 = "37e805794efc98cdbfe4c7248a56d14f18d7fd5f926d200dc6e0d0c453489ebd"
_SURVEY_SHA256 = "48540f52d9fe5a541116c2c55f03b7628deb144018520acc70ce87ff7caf6952"


@pytest.mark.parametrize("script,args,line,sha", [
    ("sl25_alpha_sweep.py", [], "distinct point partitions across alphas: 1",
     _SL25_SHA256),
    ("survey_corpus.py", [], None, _SURVEY_SHA256),
    ("verify_all.py", ["--fast"], "13/13 targets match", None),
], ids=["sl25_alpha_sweep", "survey_corpus", "verify_all"])
def test_script_runs(script, args, line, sha):
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    if line is not None:
        assert line in out.stdout.splitlines()
    if sha is not None:
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == sha


def test_benchmark_tests_pass():
    """perfbench/tests check the tracing contract the benchmark relies on
    (span names, one span per call, the workloads' closed forms) against
    the source in src/; a change that breaks it fails here too."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join("perfbench", "tests")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
