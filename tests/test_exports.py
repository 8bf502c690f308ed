"""The package's export list names only what the package defines, so a
deletion that leaves a stale name behind fails here; and the package,
its harness and its CLI load no more of scipy than they use."""

import os
import subprocess
import sys
from pathlib import Path

import progsub

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_is_an_attribute():
    missing = [name for name in progsub.__all__
               if not hasattr(progsub, name)]
    assert not missing
    assert len(set(progsub.__all__)) == len(progsub.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from progsub import *", namespace)
    assert set(progsub.__all__) <= set(namespace)


def test_importing_the_package_loads_neither_scipy_spatial_nor_ndimage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, progsub, progsub.harness, progsub.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.spatial', 'scipy.ndimage'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
