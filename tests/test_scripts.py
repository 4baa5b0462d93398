"""Smoke runs of the scripts in scripts/, each as a subprocess with the
package's source on PYTHONPATH: exit status 0 and, where the script ends
with a verdict, that line.  The benchmark's own tests run the same way."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script,args,line", [
    ("sl25_alpha_sweep.py", [], "distinct point partitions across alphas: 1"),
    ("survey_corpus.py", [], None),
    ("verify_all.py", ["--fast"], "13/13 targets match"),
], ids=["sl25_alpha_sweep", "survey_corpus", "verify_all"])
def test_script_runs(script, args, line):
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    if line is not None:
        assert line in out.stdout.splitlines()


def test_benchmark_tests_pass():
    """perfbench/tests check the tracing contract the benchmark relies on
    (span names, one span per call, the workloads' closed forms) against
    the source in src/; a change that breaks it fails here too."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join("perfbench", "tests")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
