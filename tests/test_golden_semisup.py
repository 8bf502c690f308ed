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
        "d5cd8e4c0742ca7220fd4df1f11b4d13839e3ef582d3f1b4b392f8a0d00ef15d",
    "metrics.csv":
        "bfd7ec46576860de53486bdc1a0c47e8fb8b025369094c534347f0e26e09dc43",
    "convergence.csv":
        "446115310699b06e8c417b4a00d21ddc3dcdcdb2c7b7b8f14df4252ba2ad541b",
    "pretrain_layer1.csv":
        "5d50d0af5484339b4312660e449a94181e5dd7e1890ebdb56a7cfd2683bb35da",
    "pretrain_layer2.csv":
        "9db5f2eb77f0523ccf48b78be06287c7c194328fa3cf9f4b457fe66e19a3ef90",
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
