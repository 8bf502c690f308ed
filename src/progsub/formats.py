"""Deterministic file I/O: data cubes, label lists, class maps, and models.

Cubes are a JSON text header plus a raw little-endian band-sequential (BSQ)
payload. Class maps are binary PPM (P6). Model files are a small versioned
binary container. Every writer/reader pair round-trips bit-exactly.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError
from .types import matrix_values

_DTYPES = {"f32le": "<f4", "f64le": "<f8"}

MODEL_MAGIC = b"SSTK"
MODEL_VERSION = 1


@dataclass(frozen=True)
class CubeHeader:
    """Shape and encoding of a raw cube payload."""

    width: int
    height: int
    bands: int
    dtype: str = "f64le"
    interleave: str = "bsq"
    scale: float = None

    def __post_init__(self):
        if min(self.width, self.height, self.bands) < 1:
            raise FormatError(
                f"cube dims must be positive, got {self.width}x{self.height}"
                f"x{self.bands}"
            )
        if self.dtype not in _DTYPES:
            raise FormatError(f"unknown dtype {self.dtype!r}, expected f32le/f64le")
        if self.interleave != "bsq":
            raise FormatError(f"unknown interleave {self.interleave!r}, expected bsq")
        if self.scale is not None and not (float(self.scale) > 0):
            raise FormatError(f"scale must be positive, got {self.scale}")

    @property
    def n_pixels(self):
        return self.width * self.height

    @property
    def payload_bytes(self):
        return self.n_pixels * self.bands * np.dtype(_DTYPES[self.dtype]).itemsize


def read_cube_header(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot parse cube header {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"cube header {path} is not a JSON object")
    try:
        return CubeHeader(
            width=int(raw["width"]),
            height=int(raw["height"]),
            bands=int(raw["bands"]),
            dtype=str(raw.get("dtype", "f64le")),
            interleave=str(raw.get("interleave", "bsq")),
            scale=None if raw.get("scale") is None else float(raw["scale"]),
        )
    except KeyError as exc:
        raise FormatError(f"cube header {path} is missing key {exc}") from exc


def load_cube(header_path, payload_path):
    """Read a cube; returns (float64 bands x pixels array, width, height).

    Column index = row * width + col (raster order); values are divided by
    the header's scale when one is present.
    """
    header = read_cube_header(header_path)
    with open(payload_path, "rb") as fh:
        payload = fh.read()
    if len(payload) != header.payload_bytes:
        raise FormatError(
            f"payload length mismatch for {payload_path}: expected "
            f"{header.payload_bytes} bytes, got {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype=_DTYPES[header.dtype])
    values = flat.reshape(header.bands, header.n_pixels).astype(np.float64)
    if header.scale is not None:
        values = values / header.scale
    if not np.all(np.isfinite(values)):
        raise FormatError(f"cube payload {payload_path} has non-finite values")
    return values, header.width, header.height


def save_cube(header_path, payload_path, feats, width, height, dtype="f64le",
              scale=None):
    """Write a pixel matrix as header + BSQ payload (inverse of load_cube)."""
    values = matrix_values(feats)
    bands, n = values.shape
    if n != width * height:
        raise InputError(
            f"matrix has {n} columns but width*height = {width * height}"
        )
    header = CubeHeader(width, height, bands, dtype=dtype, scale=scale)
    out = values
    if scale is not None:
        out = out * scale
    payload = np.ascontiguousarray(out.astype(_DTYPES[dtype])).tobytes()
    doc = {"width": width, "height": height, "bands": bands, "dtype": dtype,
           "interleave": "bsq"}
    if scale is not None:
        doc["scale"] = scale
    with open(header_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    with open(payload_path, "wb") as fh:
        fh.write(payload)
    return header


def load_labels(path, n_pixels, n_classes=None):
    """Read one integer label per line; 0 means unlabeled, 1..L a class."""
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
        if n_classes is not None and v > n_classes:
            raise FormatError(
                f"label line {i} is {v}, above the class count {n_classes}"
            )
        labels.append(v)
    return labels


def save_labels(path, labels):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


@dataclass(frozen=True)
class ClassPalette:
    """Class id -> (r, g, b) byte triple; class 0 (unlabeled) is black."""

    colors: dict

    def __post_init__(self):
        colors = {}
        for cls, rgb in self.colors.items():
            cls = int(cls)
            rgb = tuple(int(c) for c in rgb)
            if cls < 1:
                raise InputError(f"palette classes start at 1, got {cls}")
            if len(rgb) != 3 or any(not (0 <= c <= 255) for c in rgb):
                raise InputError(f"bad color {rgb} for class {cls}")
            colors[cls] = rgb
        if len(set(colors.values())) != len(colors):
            raise InputError("palette colors must be distinct per class")
        if (0, 0, 0) in colors.values():
            raise InputError("black is reserved for unlabeled pixels")
        object.__setattr__(self, "colors", colors)

    def lookup(self, cls):
        if cls == 0:
            return (0, 0, 0)
        try:
            return self.colors[cls]
        except KeyError:
            raise InputError(f"class {cls} has no palette entry") from None


def default_palette(n_classes):
    """A deterministic palette of visually-spread distinct colors."""
    base = [
        (228, 26, 28), (55, 126, 184), (77, 175, 74), (152, 78, 163),
        (255, 127, 0), (255, 255, 51), (166, 86, 40), (247, 129, 191),
        (153, 153, 153), (66, 206, 227), (31, 120, 180), (178, 223, 138),
        (251, 154, 153), (253, 191, 111), (202, 178, 214), (106, 61, 154),
        (255, 255, 179), (177, 89, 40), (0, 92, 49), (94, 60, 108),
    ]
    colors = {}
    for c in range(1, n_classes + 1):
        if c <= len(base):
            colors[c] = base[c - 1]
        else:
            # spread further hues deterministically
            h = (c * 47) % 256
            colors[c] = (h, (h * 3 + 85) % 256, (h * 7 + 170) % 256)
    return ClassPalette(colors)


def render_class_map(predictions, width, height, palette):
    """Render per-pixel class ids as a binary PPM (P6, maxval 255)."""
    ids = np.asarray(predictions, dtype=np.int64).ravel()
    if ids.size != width * height:
        raise InputError(
            f"got {ids.size} predictions for {width}x{height} pixels"
        )
    # checked before the table lookup, where a negative id would wrap around
    known = np.isin(ids, [0, *palette.colors])
    if not known.all():
        i = int(np.argmin(known))
        raise InputError(f"pixel {i} has unknown class id {ids[i]}")
    table = np.zeros((max(palette.colors, default=0) + 1, 3), dtype=np.uint8)
    for cls, rgb in palette.colors.items():
        table[cls] = rgb  # row 0 stays black for unlabeled pixels
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + table[ids].tobytes()


def dump_model_bytes(stack):
    """Serialize a projection stack (and optional readout) to bytes."""
    mats = list(stack.projections)
    for m in mats:
        if not np.all(np.isfinite(m)):
            raise InputError("cannot save a stack with non-finite entries")
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
    return ProjectionStack(tuple(mats), readout)


def save_model(path, stack):
    with open(path, "wb") as fh:
        fh.write(dump_model_bytes(stack))


def load_model(path):
    with open(path, "rb") as fh:
        return parse_model_bytes(fh.read())
