import json
import re
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from progsub import FormatError, InputError, ProjectionStack, formats
from progsub.formats import (dump_model_bytes, labels_text, load_cube,
                             load_labels, load_model, parse_model_bytes,
                             render_class_map, save_cube, save_labels)


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


@pytest.mark.parametrize("dtype", ["f64le", "f32le"])
@pytest.mark.parametrize("scale", [None, 3.7])
def test_load_cube_matches_the_payload_bytes_divided_by_scale(tmp_path,
                                                             dtype, scale):
    rng = np.random.default_rng(5)
    raw_dtype = {"f64le": "<f8", "f32le": "<f4"}[dtype]
    payload = (rng.standard_normal(3 * 5 * 4) * 1e3).astype(raw_dtype)
    doc = {"width": 5, "height": 4, "bands": 3, "dtype": dtype,
           "interleave": "bsq", "scale": scale}
    fm, _, _ = load_cube(*_write_cube(tmp_path, doc, payload.tobytes()))
    # the copy-per-step form the in-place reader replaced
    old = np.frombuffer(payload.tobytes(), dtype=raw_dtype).reshape(
        3, 20).astype(np.float64)
    if scale is not None:
        old = old / scale
    assert fm.dtype == np.float64 and fm.shape == (3, 20)
    assert fm.tobytes() == old.tobytes()


def _cube_of(tmp_path, width, height, bands, extra=0):
    """A random f64le cube whose payload has `extra` bytes more (or fewer)
    than its header asks for; returns (header, payload path, cube bytes)."""
    doc = {"width": width, "height": height, "bands": bands,
           "dtype": "f64le", "interleave": "bsq"}
    values = np.random.default_rng(6).random(width * height * bands)
    payload = values.tobytes()
    payload = payload + b"\x00" * extra if extra >= 0 else payload[:extra]
    header, raw = _write_cube(tmp_path, doc, payload)
    return header, raw, values.nbytes


def _peak_bytes(fn, *args):
    """tracemalloc's peak over one call, which may raise FormatError."""
    tracemalloc.start()
    try:
        fn(*args)
    except FormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_load_cube_holds_one_cube_copy(tmp_path):
    header, raw, nbytes = _cube_of(tmp_path, 64, 64, 64)
    assert _peak_bytes(load_cube, header, raw) <= 1.1 * nbytes


@pytest.mark.parametrize("extra", [-8, 8])
def test_load_cube_wrong_payload_size_fails_before_reading(tmp_path, extra):
    header, raw, nbytes = _cube_of(tmp_path, 64, 64, 16, extra)
    with pytest.raises(FormatError, match=re.escape(
            f"payload length mismatch for {raw}: expected {nbytes} bytes, "
            f"got {nbytes + extra}")):
        load_cube(header, raw)
    assert _peak_bytes(load_cube, header, raw) < nbytes / 4


def test_load_cube_short_read_is_a_length_mismatch(tmp_path, monkeypatch):
    # a payload that shrinks between the size check and the read
    header, raw, nbytes = _cube_of(tmp_path, 4, 4, 2, -8)
    monkeypatch.setattr(formats.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=nbytes))
    with pytest.raises(FormatError, match=re.escape(
            f"expected {nbytes} bytes, got {nbytes - 8}")):
        load_cube(header, raw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_cube_rejects_nonfinite_payload(tmp_path, bad):
    doc = {"width": 2, "height": 1, "bands": 1, "dtype": "f64le",
           "interleave": "bsq"}
    header, raw = _write_cube(tmp_path, doc, struct.pack("<2d", 1.0, bad))
    with pytest.raises(FormatError, match="cube.raw has non-finite"):
        load_cube(header, raw)


def test_load_cube_unknown_dtype(tmp_path):
    doc = {"width": 1, "height": 1, "bands": 1, "dtype": "i16be",
           "interleave": "bsq"}
    header, raw = _write_cube(tmp_path, doc, b"\x00\x00")
    with pytest.raises(FormatError, match=re.escape(
            f"cube header {header}: unknown dtype 'i16be', "
            "expected f32le/f64le")):
        load_cube(header, raw)


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
    header, raw = _write_cube(tmp_path, doc, b"")
    with pytest.raises(FormatError, match=re.escape(
            f"cube header {header}: cube dims must be positive, "
            f"got {dims[0]}x{dims[1]}x{dims[2]}")):
        load_cube(header, raw)


@pytest.mark.parametrize("value", [1.7, True, "abc", "1.5", [1], None,
                                   float("nan")])
@pytest.mark.parametrize("key", ["width", "bands"])
def test_load_cube_header_dims_must_be_whole_numbers(tmp_path, key, value):
    doc = {"width": 1, "height": 1, "bands": 1, key: value}
    with pytest.raises(FormatError, match=re.escape(
            f"cube.json: {key} must be a whole number, got {value!r}")):
        load_cube(*_write_cube(tmp_path, doc, b"\x00" * 8))


@pytest.mark.parametrize("width", [2, 2.0, "2", " 2 ", "2.0"])
def test_load_cube_header_whole_number_forms_read_alike(tmp_path, width):
    doc = {"width": width, "height": 1, "bands": 1}
    values, w, h = load_cube(*_write_cube(tmp_path, doc,
                                          struct.pack("<2d", 1.0, 2.0)))
    assert (w, h) == (2, 1) and type(w) is int
    assert values.tolist() == [[1.0, 2.0]]


def test_load_cube_header_unknown_interleave(tmp_path):
    doc = {"width": 1, "height": 1, "bands": 1, "interleave": "bip"}
    header, raw = _write_cube(tmp_path, doc, b"\x00" * 8)
    with pytest.raises(FormatError, match=re.escape(
            f"cube header {header}: unknown interleave 'bip', expected bsq")):
        load_cube(header, raw)


# json writes inf and nan as Infinity and NaN, which json.load reads back
@pytest.mark.parametrize("scale", [0.0, -2.0, float("inf"), float("nan"),
                                   "x", True, [2.0]])
def test_load_cube_header_nonpositive_scale(tmp_path, scale):
    doc = {"width": 1, "height": 1, "bands": 1, "scale": scale}
    with pytest.raises(FormatError, match=re.escape(
            f"cube.json: scale must be positive and finite, got {scale!r}")):
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


@pytest.mark.parametrize("order", ["C", "F"])
def test_save_cube_writes_without_a_copy_of_the_cube(tmp_path, order):
    values = np.asarray(
        np.random.default_rng(11).standard_normal((200, 20000)), order=order)
    tracemalloc.start()
    try:
        save_cube(tmp_path / "h.json", tmp_path / "p.raw", values, 200, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # writing the payload through tobytes held one copy of the cube
    assert peak < values.nbytes / 10
    assert (tmp_path / "p.raw").read_bytes() == np.ascontiguousarray(
        values).astype("<f8").tobytes()


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


def test_save_labels_writes_labels_text(tmp_path):
    labels = np.array([3, 0, 12, 1], dtype=np.int64)
    assert labels_text(labels) == "3\n0\n12\n1\n"
    save_labels(tmp_path / "l.txt", labels)
    assert (tmp_path / "l.txt").read_bytes() == b"3\n0\n12\n1\n"


@pytest.mark.parametrize("n", [0, 4095, 4096, 4097, 9000])
def test_labels_text_blocks_keep_every_line(n):
    labels = np.random.default_rng(n).integers(0, 300, size=n)
    assert labels_text(labels) == "".join(f"{int(v)}\n" for v in labels)
    assert labels_text(list(labels)) == labels_text(labels)


def test_labels_text_holds_one_block_of_line_strings():
    # one Python string per label for the whole array would take ~6 MB here
    labels = np.random.default_rng(1).integers(0, 17, size=100_000)
    tracemalloc.start()
    try:
        text = labels_text(labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text) + 1_000_000


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


# the identity stack's 29-byte header, then its 2x2 projection and 3x2
# readout as float64
@pytest.mark.parametrize("offset, what", [(29, "layer 1 projection"),
                                          (29 + 32, "readout")])
def test_model_file_with_a_nan_entry_is_a_format_error(offset, what):
    blob = bytearray(dump_model_bytes(
        ProjectionStack((np.eye(2),), np.ones((3, 2)))))
    blob[offset:offset + 8] = struct.pack("<d", np.nan)
    with pytest.raises(FormatError, match=f"model file .*{what} is not"):
        parse_model_bytes(bytes(blob))


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
