"""Deterministic file I/O: data cubes, label lists, class maps, and models.

Cubes are a JSON text header plus a raw little-endian band-sequential (BSQ)
payload. Class maps are binary PPM (P6). Model files are a small versioned
binary container. Every writer/reader pair round-trips bit-exactly.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError, InputError
from .types import matrix_values

_DTYPES = {"f32le": "<f4", "f64le": "<f8"}

MODEL_MAGIC = b"SSTK"
MODEL_VERSION = 1


def _header_number(path, doc, key, test, wanted):
    """doc[key] as a float, when it is a number or a numeric string (not a
    bool) that passes `test`; FormatError naming the header and key if not."""
    value = doc[key]
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not test(number):
        raise FormatError(
            f"cube header {path}: {key} must be {wanted}, got {value!r}")
    return number


def _cube_header(path, doc):
    """Validate a cube header document; returns (width, height, bands,
    numpy dtype of the payload, scale or None)."""
    if not isinstance(doc, dict):
        raise FormatError(f"cube header {path} is not a JSON object")
    try:
        width, height, bands = (
            int(_header_number(path, doc, key, float.is_integer,
                               "a whole number"))
            for key in ("width", "height", "bands"))
    except KeyError as exc:
        raise FormatError(f"cube header {path} is missing key {exc}") from exc
    dtype = str(doc.get("dtype", "f64le"))
    interleave = str(doc.get("interleave", "bsq"))
    scale = None if doc.get("scale") is None else _header_number(
        path, doc, "scale", lambda v: 0 < v < math.inf, "positive and finite")
    if min(width, height, bands) < 1:
        raise FormatError(f"cube header {path}: cube dims must be positive, "
                          f"got {width}x{height}x{bands}")
    if dtype not in _DTYPES:
        raise FormatError(f"cube header {path}: unknown dtype {dtype!r}, "
                          "expected f32le/f64le")
    if interleave != "bsq":
        raise FormatError(f"cube header {path}: unknown interleave "
                          f"{interleave!r}, expected bsq")
    return width, height, bands, _DTYPES[dtype], scale


def read_cube_header(header_path):
    """Read and check a cube header file alone; returns (width, height,
    bands, numpy dtype of the payload, scale or None)."""
    try:
        with open(header_path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(
            f"cannot parse cube header {header_path}: {exc}") from exc
    return _cube_header(header_path, doc)


def load_cube(header_path, payload_path):
    """Read a cube; returns (float64 bands x pixels array, width, height).

    Column index = row * width + col (raster order); values are divided by
    the header's scale when one is present.
    """
    width, height, bands, dtype, scale = read_cube_header(header_path)
    count = width * height * bands
    expected = count * np.dtype(dtype).itemsize
    # sized first, so a wrong payload fails before any array is allocated
    with open(payload_path, "rb") as fh:
        got = os.fstat(fh.fileno()).st_size
        if got == expected:
            flat = np.fromfile(fh, dtype=dtype, count=count)
            got = flat.nbytes
    if got != expected:
        raise FormatError(
            f"payload length mismatch for {payload_path}: expected "
            f"{expected} bytes, got {got}"
        )
    values = flat.reshape(bands, width * height).astype(np.float64,
                                                        copy=False)
    if scale is not None:
        np.divide(values, scale, out=values)
    # min and max carry any NaN or infinity without a boolean temporary
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise FormatError(f"cube payload {payload_path} has non-finite values")
    return values, width, height


def save_cube(header_path, payload_path, feats, width, height):
    """Write a pixel matrix as header + f64le BSQ payload (inverse of
    load_cube)."""
    values = matrix_values(feats)
    bands, n = values.shape
    if n != width * height:
        raise InputError(
            f"matrix has {n} columns but width*height = {width * height}"
        )
    doc = {"width": width, "height": height, "bands": bands, "dtype": "f64le",
           "interleave": "bsq"}
    _cube_header(header_path, doc)
    with open(header_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    # tofile writes C order from the array itself, where tobytes would
    # first build a copy of the whole cube
    with open(payload_path, "wb") as fh:
        np.asarray(values, dtype="<f8").tofile(fh)


def load_labels(path, n_pixels):
    """Read an int64 array, one label per line: 0 unlabeled, 1..L a class."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip() != ""]
    if len(lines) != n_pixels:
        raise FormatError(
            f"label file {path} has {len(lines)} entries, expected {n_pixels}"
        )
    labels = []
    for i, ln in enumerate(lines):
        try:
            v = int(ln.strip())
        except ValueError as exc:
            raise FormatError(f"label line {i} is not an integer: {ln!r}") from exc
        if v < 0:
            raise FormatError(f"label line {i} is negative: {v}")
        labels.append(v)
    return np.array(labels, dtype=np.int64)


# labels_text holds the ~60-byte line strings of one block at a time
_LABEL_BLOCK = 4096


def labels_text(labels):
    """One label per line, as load_labels reads them."""
    labels = np.asarray(labels, dtype=np.int64)
    return "".join("\n".join(map(str, labels[a:a + _LABEL_BLOCK].tolist()))
                   + "\n" for a in range(0, len(labels), _LABEL_BLOCK))


def save_labels(path, labels):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(labels_text(labels))


# class map colours: classes 1..20 take these, later ones the hue rule in
# render_class_map, whose hue repeats every 256 classes
_CLASS_COLORS = np.array([
    (228, 26, 28), (55, 126, 184), (77, 175, 74), (152, 78, 163),
    (255, 127, 0), (255, 255, 51), (166, 86, 40), (247, 129, 191),
    (153, 153, 153), (66, 206, 227), (31, 120, 180), (178, 223, 138),
    (251, 154, 153), (253, 191, 111), (202, 178, 214), (106, 61, 154),
    (255, 255, 179), (177, 89, 40), (0, 92, 49), (94, 60, 108),
])
MAX_MAP_CLASSES = len(_CLASS_COLORS) + 256


def render_class_map(ids, width, height, n_classes):
    """Render per-pixel class ids as a binary PPM (P6, maxval 255).

    Ids run over 0..n_classes; 0 (unlabeled) is black, and every class has
    its own colour up to MAX_MAP_CLASSES classes.
    """
    ids = np.asarray(ids, dtype=np.int64).ravel()
    if ids.size != width * height:
        raise InputError(
            f"got {ids.size} predictions for {width}x{height} pixels"
        )
    if n_classes > MAX_MAP_CLASSES:
        raise InputError(f"class maps have distinct colours for at most "
                         f"{MAX_MAP_CLASSES} classes, got {n_classes}")
    # checked before the table lookup, where a negative id would wrap around
    known = (ids >= 0) & (ids <= n_classes)
    if not known.all():
        i = int(np.argmin(known))
        raise InputError(f"pixel {i} has unknown class id {ids[i]}")
    h = np.arange(n_classes + 1) * 47 % 256
    table = np.column_stack([h, (h * 3 + 85) % 256, (h * 7 + 170) % 256])
    base = _CLASS_COLORS[:n_classes]
    table[1:1 + len(base)] = base
    table[0] = 0  # unlabeled
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + table.astype(np.uint8)[ids].tobytes()


def dump_model_bytes(stack):
    """Serialize a projection stack (and optional readout) to bytes."""
    mats = list(stack.projections)
    head = bytearray()
    head += MODEL_MAGIC
    head += struct.pack("<I", MODEL_VERSION)
    head += struct.pack("<I", len(mats))
    head += struct.pack("<B", 0 if stack.readout is None else 1)
    for m in mats:
        head += struct.pack("<II", m.shape[0], m.shape[1])
    if stack.readout is not None:
        head += struct.pack("<II", stack.readout.shape[0], stack.readout.shape[1])
    body = bytearray()
    for m in mats:
        body += np.ascontiguousarray(m, dtype="<f8").tobytes()
    if stack.readout is not None:
        body += np.ascontiguousarray(stack.readout, dtype="<f8").tobytes()
    return bytes(head) + bytes(body)


def parse_model_bytes(blob):
    """Inverse of dump_model_bytes; raises FormatError on any mismatch."""
    from .model import ProjectionStack

    if len(blob) < 13 or blob[:4] != MODEL_MAGIC:
        raise FormatError("not a model file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != MODEL_VERSION:
        raise FormatError(
            f"unsupported model version {version}, expected {MODEL_VERSION}"
        )
    (depth,) = struct.unpack_from("<I", blob, 8)
    (has_readout,) = struct.unpack_from("<B", blob, 12)
    off = 13
    shapes = []
    try:
        for _ in range(depth + (1 if has_readout else 0)):
            r, c = struct.unpack_from("<II", blob, off)
            shapes.append((r, c))
            off += 8
    except struct.error as exc:
        raise FormatError(f"model header is truncated: {exc}") from exc
    mats = []
    for r, c in shapes:
        nbytes = r * c * 8
        if off + nbytes > len(blob):
            raise FormatError("model payload is truncated")
        mats.append(
            np.frombuffer(blob, dtype="<f8", count=r * c, offset=off).reshape(r, c)
        )
        off += nbytes
    if off != len(blob):
        raise FormatError(f"model file has {len(blob) - off} trailing bytes")
    readout = mats.pop() if has_readout else None
    try:
        return ProjectionStack(tuple(mats), readout)
    except InputError as exc:
        raise FormatError(f"model file holds no valid stack: {exc}") from exc


def load_model(path):
    with open(path, "rb") as fh:
        return parse_model_bytes(fh.read())
