"""Golden regression test: the semi-supervised bench shape keeps its bytes.

SHA-256 digests of the artifacts of one run at the ``semisup`` benchmark
shape, seed 3: a 40x40x100 cube with 9 classes at separation 3.0,
``tuned-d20``, 2 layers, ``model.max_outer=3``, 10 labeled pixels per class
and half the unlabeled pixels joining the fit. About 1.5k of the ~1.7k fused
columns are unlabeled there, so the masked features update solves an
unlabeled block that outnumbers the labeled one 8:1, a case the desk goldens
(30% unlabeled) never reach. ``pretrain_layer<l>.csv`` pins the traced
pre-training objective of every ADMM iteration.

The run goes in a child process on one BLAS thread, the bench's setting:
at this shape the fit's last bits depend on the BLAS thread count (the
predictions and metrics do not). The digests hold for the numpy, scipy and
OpenBLAS builds that recorded them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEMISUP_CONFIG = {
    "preset": "tuned-d20",
    "synthetic.width": "40", "synthetic.height": "40",
    "synthetic.bands": "100", "synthetic.classes": "9",
    "synthetic.separation": "3.0", "synthetic.noise": "0.4",
    "synthetic.blob": "5",
    "model.layers": "2", "model.max_outer": "3",
    "split.train_per_class": "10", "split.unlabeled_fraction": "0.5",
    "run.include_unlabeled": "true",
}

DIGESTS = {
    "predictions.txt":
        "8b3f7b1a04615aec4c71dd2fed681c19b4fb7bc09b8ea8457f9ccbc797098c5e",
    "metrics.csv":
        "fb719475ec6f08c75a428c21fe6ddada6912802699311d150ac4c568ed11553f",
    "convergence.csv":
        "e4914bed96a09357e49212d3f15500cb5d0f3613124ac9146ffec3fd142a6f02",
    "pretrain_layer1.csv":
        "2d9cb053598658c631890004f6961457af5f2a87c0557305e2461e6637acf7b9",
    "pretrain_layer2.csv":
        "9889b2a03dc451a578d05124084786497c0f854a2c7b4188a3c40b46755188c1",
}

_RUN = """
import json, sys
from progsub.harness import ExperimentConfig, run_experiment
config = ExperimentConfig.from_mapping(json.loads(sys.argv[1]), seed=3,
                                       out_dir=sys.argv[2])
_, artifacts = run_experiment(config)
print(json.dumps(artifacts))
"""


def test_golden_semisup_shape(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(SEMISUP_CONFIG),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    artifacts = json.loads(done.stdout.strip().splitlines()[-1])
    got = {}
    for name in DIGESTS:
        with open(artifacts[name], "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == DIGESTS
