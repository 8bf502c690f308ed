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
        "d030b54fb6c6598bc8e24cd341de748e7e11aee265982a67eaf6cb0ef5a38a10",
        "ee0ed465b35a714dee258a9af18e4b280c7e739606702154e6edc281d1bf3b69",
        "cb7d9c336440640e9e2027b3e87a28c33f304006a7de0bd57901468f79cb977e",
    ),
    2: (
        "b6abd284d78e5ecf3431f03d92801614b16b67d898de6952264040af22c3dc3e",
        "c885b25a9a0ee4159612e6fc53df2e41f5ddd64d4114ecb60a63687e49292253",
        "3dd681bdc9894d11c83bb7bf0d8edb8636139cd0c735a5af812b8d30ca3387e6",
    ),
    3: (
        "1017ba88404166bbf139658ce1a84115e9c4678627a753d2b13241e73f79dafa",
        "48f68904365c51ea774e6c204a8da8e920986542d99d315d7ad63c53076bcbd7",
        "b46c5b265a7b93bf733c6b01204788f37859f87af42b0e7bcf754a274cdb1027",
    ),
    4: (
        "a46fa5a9bf6e5937515f0559a5e6a3f34f41114b6e1d466ecaed317aa97461a1",
        "86c0baa3a8707f4f4db61e897364572fe6b0dde0f930d031df3919e781e6dd4b",
        "3412980f407a9fc4c44a7d2feb3b9687cc5d13c5c25a0662f2ac5eeb0bcf3f2a",
    ),
    5: (
        "bbfb8e7c318d21f2be314e22d04bf23be50266143bb9a8fce5aae2cee1bb3bd7",
        "ce2f557be63ca5304f30afd4a89fb07ae0d3fc3b303ae882420234a540324ab8",
        "b784f37c2c9f256c83afcc0a5669db44b6046bd4864119ef855eec56b0b5e244",
    ),
}
SEMISUPERVISED = {
    1: (
        "7c6a96e0b5ddd01af8ce9e6671944dbeb50269f182881d76a4c743eae1110d47",
        "778ffddc08c6815e58f9fbf790085ca507c416790ca7901a24a2733e5869317e",
        "e75fb70f1c8abdde439ee8e9fe0b5ebab8082b3d99543ec0fb2c0fcb59a0e5fc",
    ),
    2: (
        "462f0a4d47035f2974018badedda7dbc70712096636dd9133e27740c1a06cec1",
        "1e2b6d6153ed1089d904092142173a573fc123b43fd357236abe5d93d0eded9c",
        "d6e915859a96b95916c0eb8c93374a7f4c1addcf22de7a5c6ca8db92eb290aa5",
    ),
    3: (
        "54f802fd16f98c9420eacf7c3ab01278d081fe91586f63d8c8052b4d141e2589",
        "010f3d176bdc9f968d962451e3ec879e7c178e73ff0694de62f7436bef0853c3",
        "d701a6df464f9fba50b1c0da0efdb6541c7e11930f0af8d650812bb26c6e4871",
    ),
    4: (
        "0cabec439577d0a5f1fec8f7fc6b658a2f14987d67b9355d31b394831a53ffd5",
        "f88cba59633c9055fa664d1a4847b4053ba8e0b64e6306161ea3102ff1106654",
        "a4e0158a92bbfa48a6a2f1aa03b5fcbb6e6147bbd8e72896d5d110d18668abbe",
    ),
    5: (
        "de3be648348b41c51f43bb58d4bd0cc67073a5b294772adcbe5e8410d6e2036f",
        "cd206c9d08ba4de909063e4d9222970c8133d7bb59389f52173e51a16a0722fd",
        "016363e21abc151208576bc605c4265b9d2eacf239fc7b9c18e5e246b90ef27f",
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
