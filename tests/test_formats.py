import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from progsub import FormatError, InputError, ProjectionStack
from progsub.formats import (dump_model_bytes, load_cube, load_labels,
                             load_model, parse_model_bytes, render_class_map,
                             save_cube, save_labels)


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


def test_load_cube_header_not_an_object(tmp_path):
    with pytest.raises(FormatError, match="cube.json is not a JSON object"):
        load_cube(*_write_cube(tmp_path, [1, 1, 1], b""))


def test_load_cube_header_missing_key_is_named(tmp_path):
    doc = {"width": 1, "height": 1, "dtype": "f64le"}
    with pytest.raises(FormatError, match="missing key 'bands'"):
        load_cube(*_write_cube(tmp_path, doc, b"\x00" * 8))


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
def test_load_cube_header_nonpositive_dims(tmp_path, dims):
    doc = dict(zip(("width", "height", "bands"), dims))
    with pytest.raises(FormatError, match="cube dims must be positive"):
        load_cube(*_write_cube(tmp_path, doc, b""))


def test_load_cube_header_unknown_interleave(tmp_path):
    doc = {"width": 1, "height": 1, "bands": 1, "interleave": "bip"}
    with pytest.raises(FormatError, match="unknown interleave 'bip'"):
        load_cube(*_write_cube(tmp_path, doc, b"\x00" * 8))


@pytest.mark.parametrize("scale", [0.0, -2.0])
def test_load_cube_header_nonpositive_scale(tmp_path, scale):
    doc = {"width": 1, "height": 1, "bands": 1, "scale": scale}
    with pytest.raises(FormatError, match="scale must be positive"):
        load_cube(*_write_cube(tmp_path, doc, b"\x00" * 8))


def test_save_cube_rejects_column_count_mismatch(tmp_path):
    with pytest.raises(InputError, match="5 columns but width\\*height = 6"):
        save_cube(tmp_path / "h.json", tmp_path / "p.raw",
                  np.zeros((2, 5)), 3, 2)
    assert not (tmp_path / "h.json").exists()


def test_cube_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 12))  # 4x3x6 cube
    save_cube(tmp_path / "h.json", tmp_path / "p.raw", values, 4, 3)
    back, w, h = load_cube(tmp_path / "h.json", tmp_path / "p.raw")
    assert (w, h) == (4, 3)
    assert np.array_equal(back, values)


def test_save_cube_writes_f64le(tmp_path):
    values = np.array([[0.1, -2.0]])
    save_cube(tmp_path / "h.json", tmp_path / "p.raw", values, 2, 1)
    assert json.loads((tmp_path / "h.json").read_text())["dtype"] == "f64le"
    assert (tmp_path / "p.raw").read_bytes() == struct.pack("<2d", 0.1, -2.0)


def test_load_labels_basic(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n2\n1\n")
    assert np.array_equal(load_labels(path, 3), [0, 2, 1])


def test_load_labels_all_zero_is_unlabeled(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n0\n")
    assert np.array_equal(load_labels(path, 2), [0, 0])


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
    assert np.array_equal(load_labels(tmp_path / "l.txt", 40), labels)


# the first 20 class colours of every class map
BASE_COLORS = [
    (228, 26, 28), (55, 126, 184), (77, 175, 74), (152, 78, 163),
    (255, 127, 0), (255, 255, 51), (166, 86, 40), (247, 129, 191),
    (153, 153, 153), (66, 206, 227), (31, 120, 180), (178, 223, 138),
    (251, 154, 153), (253, 191, 111), (202, 178, 214), (106, 61, 154),
    (255, 255, 179), (177, 89, 40), (0, 92, 49), (94, 60, 108),
]


def _map_colors(ids, n_classes):
    out = render_class_map(ids, len(ids), 1, n_classes)
    header = f"P6\n{len(ids)} 1\n255\n".encode("ascii")
    assert out.startswith(header)
    body = out[len(header):]
    return [tuple(body[i:i + 3]) for i in range(0, len(body), 3)]


def test_render_map_single_red_pixel():
    out = render_class_map([1], 1, 1, 1)
    assert out == b"P6\n1 1\n255\n\xe4\x1a\x1c"


def test_render_map_unlabeled_black():
    out = render_class_map([0, 0], 2, 1, 1)
    assert out.endswith(b"\x00" * 6)
    assert out.startswith(b"P6\n2 1\n255\n")


def test_render_map_per_pixel_lookup_oracle():
    rng = np.random.default_rng(11)
    preds = [int(v) for v in rng.integers(0, 6, size=40)]
    table = _map_colors(list(range(6)), 5)
    assert _map_colors(preds, 5) == [table[p] for p in preds]


def test_render_map_colors_distinct_up_to_276_classes():
    for n in range(1, 277):
        colors = _map_colors(list(range(n + 1)), n)
        assert colors[0] == (0, 0, 0)
        assert colors[1:21] == BASE_COLORS[:n]
        assert len(set(colors)) == n + 1, n


def test_render_map_hue_rule_after_base_colors():
    colors = _map_colors(list(range(23)), 22)
    for c in (21, 22):
        h = c * 47 % 256
        assert colors[c] == (h, (h * 3 + 85) % 256, (h * 7 + 170) % 256)


def test_render_map_rejects_277_classes():
    with pytest.raises(InputError, match="at most 276 classes, got 277"):
        render_class_map([1], 1, 1, 277)


def test_render_map_unknown_class_names_pixel():
    # -1 must not wrap around to the last table row
    for preds in ([1, 6], [1, -1]):
        with pytest.raises(InputError, match="pixel 1 has unknown class id"):
            render_class_map(preds, 2, 1, 5)


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
    (tmp_path / "m.bin").write_bytes(dump_model_bytes(stack))
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
