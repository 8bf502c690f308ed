"""Golden regression test: desk-benchmark artifacts stay byte-identical.

SHA-256 digests of ``predictions.txt``, ``metrics.csv`` and
``convergence.csv`` for the seeded desk benchmark (``benchmark_config``) at
seeds 1-5, once fully supervised and once with
``split.unlabeled_fraction=0.3`` and ``run.include_unlabeled=true`` (that
run exercises the masked supervised features update). A refactor that is
meant to keep behaviour must keep every digest.

The digests hold for the same numpy, scipy and OpenBLAS builds that
recorded them. The desk shape gave the same bytes with 1 and 2 BLAS
threads; another BLAS build may legitimately round differently.

The SLIC label digests cover shapes larger than one assignment tile: the
40x40x100 semi-supervised benchmark cube at seeds 1-3 and the 145x145x200
scene cube at seed 3, segmented at fraction 0.10 with the default
compactness and iteration count.
"""

import hashlib

import numpy as np
import pytest

from bench_utils import benchmark_config
from progsub import (SyntheticSpec, generate_synthetic, segment_count,
                     slic_segment)
from progsub.harness import run_experiment

FILES = ("predictions.txt", "metrics.csv", "convergence.csv")

SUPERVISED = {
    1: (
        "561a02caded39d13ce90526e177134a6f2dd526527b7fac92f172007b44c53d6",
        "a5fc5a06cd3fc5d00908b9126131c429a47968a353869ac34067445296363905",
        "7dd70ac5a932817fd61672db2bd2462e1c6e17f7f6294c359675100c233a05e7",
    ),
    2: (
        "e6203fe0e7317fde0bff4a930f54c39f0572e8c014dc2bb5b1de9b58cf0e1160",
        "4f9b56cc247562abf39c21ec34d20965f8e524ab72d7f7603897b1328cb8046c",
        "f5640695982338d2827d915c643ddab607968c4a15a622641c4d0c4bee1a8526",
    ),
    3: (
        "d56fa239cc7e1503bc7dd5f5b72c59e4a919632d3a48adc082cbe06814783bea",
        "d3464c5451e1c8fb6f835837f1ab14a115e2bf63a171f2146dfae876ac00a6ed",
        "a3ec2d594185e617df4953394e333e09703310344ca96300b0c04487f6a3b2e6",
    ),
    4: (
        "04c4ecbce889c4dad5983470a848abfa39d08df5c42f18121df046bdd131e353",
        "640ed94896a2f9ea7146e4cfc5c66cb983add5ac92c75089c009819565748855",
        "16ecfaa769dbeb6ea37669292a398561cb1da0fe2530e30f1d0e851a5414c07d",
    ),
    5: (
        "44a87c29a57b2eaeb8986290962448bf3b8e82a242065fa934cbfbfb9c49a55d",
        "0e1634d942fb10f056289e21cdd43074abb29315056e6aa69f2bdeb54b9e76c9",
        "9768cd201e14e9b92b4dd151aa1d475e66604c4bd8fa55994f79422b31ce325d",
    ),
}
SEMISUPERVISED = {
    1: (
        "1e41b0224800bbb7c4f90b3eb54472c77fd9703bd5840b46c27e05e775a99025",
        "39238904e9c9aae20e6df51c7674088684f0ef6f58fcdec62156a585d20b9b3d",
        "4217afdc73ddb1e822be8648e67986b09aba0df9e65cb3af77483cdfe6dc2aa7",
    ),
    2: (
        "b69c2c6b6f3a4ba99e3f3a37d0f240d61043c15b84ab5349d0a063086be904cf",
        "6750171970d2d9ef5d61fc3c58df9494c479e5699c0828da58d396e6e6abcd97",
        "587c13d928c0d56beddf665a92bfc25f4321b443b2b4f8a87d889f555f3767a2",
    ),
    3: (
        "4b2685173787a0779ebf51aab3b3527b161279b385f132f6147f5fdf33b3e4de",
        "c770bf00e916f3e08298a168d0e816098007079dfb18929ffeea75cc3c3f0936",
        "7e6a253d71c9723a181544925071b2ca2c1edc7fcf59bbda8752ee610c737a41",
    ),
    4: (
        "c927df6cb9a57d707a536618550a516d2fdc69d21d201540728c54d42b96e363",
        "a66a993b025b61757446d719ab212d0bfe4bd8b378c5d376074cbb32001e37f0",
        "dad6af0a7498e265a9954054c9608247c89d7a6e4ef056db230c35c72200d5a7",
    ),
    5: (
        "9322e8795a489d817cd77812c4df9fe8938a99155647d32c3e2ee41d2bd7cd47",
        "39976414bc7c6dccd2124603ce0f72dd0fb1ed9fb8996bc57fffecf06f2a0a1b",
        "9ce3cfbbd887ba486bd6014667ed73d851fba26b60ed2b45e90fcffcbba922bc",
    ),
}


def _digests(out_dir, seed, **extra):
    _, artifacts = run_experiment(
        benchmark_config(seed=seed, out_dir=str(out_dir), **extra)
    )
    digests = []
    for name in FILES:
        with open(artifacts[name], "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("seed", sorted(SUPERVISED))
def test_golden_supervised(tmp_path, seed):
    assert _digests(tmp_path, seed=seed) == SUPERVISED[seed]


@pytest.mark.parametrize("seed", sorted(SEMISUPERVISED))
def test_golden_semisupervised(tmp_path, seed):
    got = _digests(tmp_path, seed=seed,
                   **{"split.unlabeled_fraction": "0.3",
                      "run.include_unlabeled": "true"})
    assert got == SEMISUPERVISED[seed]


SEMISUP_SHAPE = dict(width=40, height=40, bands=100, n_classes=9,
                     separation=3.0, noise=0.4, blob_size=5)
SCENE_SHAPE = dict(width=145, height=145, bands=200, n_classes=16,
                   separation=1.0, noise=0.4, blob_size=12)
SLIC_LABELS = {
    ("semisup", 1): "fe1f88e425b745cbe1859c9a3b4f62d6bae3aba3f425d884e359f29c2dcea53c",
    ("semisup", 2): "3c684387e27cdb214ccbdd703ad4c6c2d7b17eab44d48dc75aefd7ee6306a6ad",
    ("semisup", 3): "21236e7b5554ff9317245030168dd791b290398a5fe381b0a8b749adb517fc85",
    ("scene", 3): "2a1df9e9e5e6cbd55a1eb027e996905c63f140af8cf6a55a09503114115545ac",
}


@pytest.mark.parametrize("shape,seed", sorted(SLIC_LABELS))
def test_golden_slic_labels(shape, seed):
    spec = SEMISUP_SHAPE if shape == "semisup" else SCENE_SHAPE
    cube, _, width, height = generate_synthetic(SyntheticSpec(seed=seed, **spec))
    seg = slic_segment(cube, width, height,
                       segment_count(width * height, 0.10))
    labels = np.ascontiguousarray(seg.labels, dtype="<i8")
    assert hashlib.sha256(labels.tobytes()).hexdigest() == SLIC_LABELS[shape, seed]
