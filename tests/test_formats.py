import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from progsub import FormatError, InputError, ProjectionStack
from progsub.formats import (ClassPalette, default_palette, dump_model_bytes,
                             load_cube, load_labels, load_model,
                             parse_model_bytes, render_class_map, save_cube,
                             save_labels, save_model)


def _write_cube(tmp_path, doc, payload):
    header = tmp_path / "cube.json"
    raw = tmp_path / "cube.raw"
    header.write_text(json.dumps(doc))
    raw.write_bytes(payload)
    return str(header), str(raw)


def test_load_cube_single_pixel_two_bands(tmp_path):
    doc = {"width": 1, "height": 1, "bands": 2, "dtype": "f32le",
           "interleave": "bsq"}
    payload = struct.pack("<2f", 0.5, 1.0)
    fm, w, h = load_cube(*_write_cube(tmp_path, doc, payload))
    assert (w, h) == (1, 1)
    assert fm.shape == (2, 1)
    assert fm[:, 0].tolist() == [0.5, 1.0]


def test_load_cube_raster_order(tmp_path):
    doc = {"width": 2, "height": 2, "bands": 1, "dtype": "f32le",
           "interleave": "bsq"}
    payload = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    fm, w, h = load_cube(*_write_cube(tmp_path, doc, payload))
    assert fm.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_load_cube_scale_divides(tmp_path):
    doc = {"width": 1, "height": 1, "bands": 1, "dtype": "f32le",
           "interleave": "bsq", "scale": 2.0}
    payload = struct.pack("<f", 3.0)
    fm, _, _ = load_cube(*_write_cube(tmp_path, doc, payload))
    assert fm[0, 0] == 1.5


def test_load_cube_length_mismatch_reports_bytes(tmp_path):
    doc = {"width": 2, "height": 2, "bands": 1, "dtype": "f32le",
           "interleave": "bsq"}
    with pytest.raises(FormatError, match="expected 16 bytes, got 12"):
        load_cube(*_write_cube(tmp_path, doc, b"\x00" * 12))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_cube_rejects_nonfinite_payload(tmp_path, bad):
    doc = {"width": 2, "height": 1, "bands": 1, "dtype": "f64le",
           "interleave": "bsq"}
    header, raw = _write_cube(tmp_path, doc, struct.pack("<2d", 1.0, bad))
    with pytest.raises(FormatError, match="cube.raw has non-finite"):
        load_cube(header, raw)


def test_load_cube_unknown_dtype(tmp_path):
    doc = {"width": 1, "height": 1, "bands": 1, "dtype": "i16be",
           "interleave": "bsq"}
    with pytest.raises(FormatError, match="dtype"):
        load_cube(*_write_cube(tmp_path, doc, b"\x00\x00"))


def test_cube_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 12))  # 4x3x6 cube
    save_cube(tmp_path / "h.json", tmp_path / "p.raw", values, 4, 3)
    back, w, h = load_cube(tmp_path / "h.json", tmp_path / "p.raw")
    assert (w, h) == (4, 3)
    assert np.array_equal(back, values)


def test_cube_round_trip_f32(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal((3, 8)).astype(np.float32).astype(np.float64)
    save_cube(tmp_path / "h.json", tmp_path / "p.raw",
              values, 4, 2, dtype="f32le")
    back, _, _ = load_cube(tmp_path / "h.json", tmp_path / "p.raw")
    assert np.array_equal(back, values)


def test_load_labels_basic(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n2\n1\n")
    assert load_labels(path, 3) == [0, 2, 1]


def test_load_labels_all_zero_is_unlabeled(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n0\n")
    assert load_labels(path, 2) == [0, 0]


def test_load_labels_count_mismatch(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\n2\n")
    with pytest.raises(FormatError, match="2 entries, expected 3"):
        load_labels(path, 3)


def test_load_labels_negative(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\n-2\n")
    with pytest.raises(FormatError, match="negative"):
        load_labels(path, 2)


def test_labels_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    labels = [int(v) for v in rng.integers(0, 9, size=40)]
    save_labels(tmp_path / "l.txt", labels)
    assert load_labels(tmp_path / "l.txt", 40) == labels


def test_render_map_single_red_pixel():
    palette = ClassPalette({1: (255, 0, 0)})
    out = render_class_map([1], 1, 1, palette)
    assert out == b"P6\n1 1\n255\n\xff\x00\x00"


def test_render_map_unlabeled_black():
    palette = ClassPalette({1: (255, 0, 0)})
    out = render_class_map([0, 0], 2, 1, palette)
    assert out.endswith(b"\x00" * 6)
    assert out.startswith(b"P6\n2 1\n255\n")


def test_render_map_per_pixel_lookup_oracle():
    rng = np.random.default_rng(11)
    palette = default_palette(5)
    preds = [int(v) for v in rng.integers(0, 6, size=40)]
    out = render_class_map(preds, 8, 5, palette)
    header = b"P6\n8 5\n255\n"
    assert out.startswith(header)
    body = out[len(header):]
    assert len(body) == 3 * 40
    for i, p in enumerate(preds):
        assert tuple(body[3 * i: 3 * i + 3]) == palette.lookup(p)


def test_render_map_unknown_class_names_pixel():
    palette = ClassPalette({1: (255, 0, 0)})
    # -1 must not wrap around to the last palette entry
    for preds in ([1, 5], [1, -1]):
        with pytest.raises(InputError, match="pixel 1"):
            render_class_map(preds, 2, 1, palette)


def test_palette_rejects_duplicates_and_black():
    with pytest.raises(InputError):
        ClassPalette({1: (1, 2, 3), 2: (1, 2, 3)})
    with pytest.raises(InputError):
        ClassPalette({1: (0, 0, 0)})


def test_model_round_trip_identity():
    stack = ProjectionStack((np.eye(3),), None)
    back = parse_model_bytes(dump_model_bytes(stack))
    assert back.readout is None
    assert np.array_equal(back.projections[0], np.eye(3))


def test_model_round_trip_absent_readout_marker():
    stack = ProjectionStack((np.eye(2),), None)
    blob = dump_model_bytes(stack)
    assert blob[12] == 0  # readout-absent flag
    with_readout = ProjectionStack((np.eye(2),), np.ones((3, 2)))
    assert dump_model_bytes(with_readout)[12] == 1


def test_model_round_trip_random_stack(tmp_path):
    rng = np.random.default_rng(2)
    stack = ProjectionStack(
        (rng.standard_normal((5, 7)), rng.standard_normal((4, 5)),
         rng.standard_normal((3, 4))),
        rng.standard_normal((6, 3)),
    )
    save_model(tmp_path / "m.bin", stack)
    back = load_model(tmp_path / "m.bin")
    assert len(back.projections) == 3
    for a, b in zip(stack.projections, back.projections):
        assert np.array_equal(a, b)
    assert np.array_equal(stack.readout, back.readout)


def test_model_version_mismatch():
    stack = ProjectionStack((np.eye(2),), None)
    blob = bytearray(dump_model_bytes(stack))
    blob[4] = 99
    with pytest.raises(FormatError, match="version"):
        parse_model_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        parse_model_bytes(b"XXXX" + bytes(blob[4:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_cube_round_trip_property(bands, width, seed):
    import tempfile, os
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((bands, width * 2))
    with tempfile.TemporaryDirectory() as tmp:
        h, p = os.path.join(tmp, "h.json"), os.path.join(tmp, "p.raw")
        save_cube(h, p, values, width, 2)
        back, _, _ = load_cube(h, p)
        assert np.array_equal(back, values)
