"""The documented entry points run: README's library quick start and the
scripts under demos/, each as a user would start them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_python_block_runs(tmp_path, monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
    assert "MetricsReport(" in capsys.readouterr().out


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # demos write their artifacts relative to the working directory
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.strip()


def test_readme_lists_the_demos_and_docs_run_only_existing_ones():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Demos\n.*?```sh\n(.*?)```", readme, flags=re.S)
    listed = re.findall(r"python3 (demos/\S+\.py)", block.group(1))
    assert listed == [f"demos/{p.name}" for p in DEMOS]
    for doc in ("README.md", "ROADMAP.md"):
        text = (ROOT / doc).read_text()
        # a command may break its line between python3 and the script
        for script in re.findall(r"python3\s+(demos/\S+?\.py)", text):
            assert (ROOT / script).is_file(), f"{doc} runs {script}"


# Reports the thread count of every loaded OpenBLAS before, during and after
# the CLI ran a command (one that fails fast on a missing config file).
_BLAS_PROBE = """
import json, sys
from progsub import cli, harness

def counts():
    return [get() for get, _ in harness.openblas_thread_calls()]

def load(path, keys=None):
    during.append(counts())
    return load_config(path, keys)

before, during, load_config = counts(), [], cli.load_config
cli.load_config = load
code = cli.main(["fit", "--config", sys.argv[1]])
print(json.dumps({"before": before, "during": during, "after": counts(),
                  "code": code}))
"""


def _blas_probe(tmp_path, **thread_vars):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(thread_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, str(tmp_path / "missing.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["code"] == 1          # the missing config is reported
    if not report["before"]:
        pytest.skip("no OpenBLAS found among the loaded libraries")
    return report


def test_cli_runs_blas_on_one_thread_by_default(tmp_path):
    report = _blas_probe(tmp_path)
    assert report["during"] == [[1] * len(report["before"])]
    assert report["after"] == report["before"]


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_user_blas_thread_count(tmp_path, var):
    report = _blas_probe(tmp_path, **{var: "2"})
    assert report["during"] == [report["before"]]
    assert report["after"] == report["before"]
