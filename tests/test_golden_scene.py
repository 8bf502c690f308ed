"""Golden regression test: the scene bench shape keeps its bytes.

SHA-256 digests of the artifacts of one run at the ``scene`` benchmark
shape, seed 3: a 145x145x200 cube with 16 classes at separation 1.0, noise
0.4 and blob size 12, ``tuned-d20``, 2 layers of dimension 20 and 10
labeled pixels per class. The fit has 320 fused columns over 200 input
rows, so the first layer's projection system is 200x200 and the features
and decoder systems are 20x20, sizes the desk goldens (12 bands, dimension
5) never reach. ``pretrain_layer<l>.csv`` pins the traced pre-training
objective of every ADMM iteration.

The run goes in a child process on one BLAS thread, the bench's setting:
the fit's last bits depend on the BLAS thread count. The digests hold for
the numpy, scipy and OpenBLAS builds that recorded them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCENE_CONFIG = {
    "preset": "tuned-d20",
    "synthetic.width": "145", "synthetic.height": "145",
    "synthetic.bands": "200", "synthetic.classes": "16",
    "synthetic.separation": "1.0", "synthetic.noise": "0.4",
    "synthetic.blob": "12",
    "model.layers": "2",
    "split.train_per_class": "10",
}

DIGESTS = {
    "predictions.txt":
        "aed1f6de69073932da82cdadc033389565ea73df348c89ac5d351c3cd059e9f2",
    "metrics.csv":
        "66d0a0f55ab50e808b41ddbe9975a885d4d7c4ae5489a35af881ac170fd4d7d7",
    "convergence.csv":
        "cd34704263691d83a4326a503497022f5ab33f5d5881bde78ead1050d0ddde26",
    "pretrain_layer1.csv":
        "31eeefff22043c882175b6f0943fc0356128df2dbd63b455cf769310c860faca",
    "pretrain_layer2.csv":
        "7904a28d130e96ea5f004cd56e1c863923bc204fed56acfe572dcf91a3cc0e86",
}

_RUN = """
import json, sys
from progsub.harness import ExperimentConfig, run_experiment
config = ExperimentConfig.from_mapping(json.loads(sys.argv[1]), seed=3,
                                       out_dir=sys.argv[2])
_, artifacts = run_experiment(config)
print(json.dumps(artifacts))
"""


def test_golden_scene_shape(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(SCENE_CONFIG),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    artifacts = json.loads(done.stdout.strip().splitlines()[-1])
    got = {}
    for name in DIGESTS:
        with open(artifacts[name], "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == DIGESTS
