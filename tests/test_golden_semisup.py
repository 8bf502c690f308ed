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
        "427124b5f8d396fa648d601a83c065ed66bda261119a03eae2f6c9de651d3969",
    "pretrain_layer1.csv":
        "bd3ae3105e49cadf163997fe41864f93c631ad1dc5b1384f21be60c84308205d",
    "pretrain_layer2.csv":
        "f4da5e659c51e8b401aba7f98f452ece3dc7020b5baed9a63e39804206f74e0b",
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
