"""File formats: PFM radiance maps, 16-bit PGM raw captures with their
sidecars, gain-stack directories, and the JSON documents for plans and
profiles.

PFM here is the single-channel 'Pf' variant: text header (type, dimensions,
scale), then rows of little-endian float32 stored bottom-up; a negative
scale marks little endianness.  PGM is the binary 'P5' variant with 16-bit
big-endian samples, per the netpbm convention.

Every reader turns unreadable, missing or malformed files into
``DataError``, and every writer a file it cannot write.
"""

from __future__ import annotations

import json
import math
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

SIDECAR_FORMAT = 3


@contextmanager
def file_errors(path, action: str = "read"):
    """Report OS and parse errors while reading or writing ``path`` as
    DataError."""
    try:
        yield
    except DataError:
        raise
    except (OSError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"cannot {action} {path}: {exc}") from exc


# ------------------------------------------------------------------- PFM

def read_pfm(path) -> np.ndarray:
    """Read a single-channel PFM into a float array (top-down row order)."""
    with file_errors(path), open(path, "rb") as fh:
        header = fh.readline().strip()
        if header == b"PF":
            raise DataError(f"{path}: color PFM not supported, expected 'Pf'")
        if header != b"Pf":
            raise DataError(f"{path}: not a PFM file")
        dims = fh.readline().split()
        if len(dims) != 2:
            raise DataError(f"{path}: malformed PFM dimensions")
        width, height = int(dims[0]), int(dims[1])
        scale = float(fh.readline().strip())
        count = width * height
        dtype = "<f4" if scale < 0 else ">f4"
        buf = fh.read(count * 4)
        if len(buf) != count * 4:
            raise DataError(f"{path}: truncated PFM payload")
        data = np.frombuffer(buf, dtype=dtype).reshape(height, width)
    # PFM stores rows bottom-up
    data = np.flipud(data).astype(np.float64)
    if abs(scale) not in (0.0, 1.0):
        data = data * abs(scale)
    return data


def write_pfm(path, data: np.ndarray) -> None:
    """Write a 2-D array as little-endian single-channel PFM."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise DataError("PFM writer takes a 2-D array")
    height, width = arr.shape
    with file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{width} {height}\n".encode())
        fh.write(b"-1.0\n")
        fh.write(np.flipud(arr).astype("<f4").tobytes())


# ------------------------------------------------------------------- PGM

def write_pgm16(path, digits: np.ndarray) -> None:
    arr = np.asarray(digits)
    if arr.ndim != 2:
        raise DataError("PGM writer takes a 2-D array")
    height, width = arr.shape
    with file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode())
        fh.write(arr.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    with file_errors(path), open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise DataError(f"{path}: not a binary PGM")
        dims = fh.readline().split()
        if len(dims) != 2:
            raise DataError(f"{path}: malformed PGM dimensions")
        width, height = int(dims[0]), int(dims[1])
        maxval = int(fh.readline().strip())
        if maxval != 65535:
            raise DataError(f"{path}: expected 16-bit PGM, maxval={maxval}")
        buf = fh.read(width * height * 2)
        if len(buf) != width * height * 2:
            raise DataError(f"{path}: truncated PGM payload")
        return np.frombuffer(buf, dtype=">u2").reshape(height, width).astype(np.uint16)


# ------------------------------------------------------- captures + sidecar

def save_capture(path_base, raw) -> None:
    """Write a capture as <base>.pgm (digits), <base>.json (format, seed,
    metadata, ROI size and binning mode) and <base>.npz (the gain grid, the
    bin grid and the saturation mask packed eight pixels to a byte)."""
    base = Path(path_base)
    write_pgm16(base.with_suffix(".pgm"), raw.digits)
    npz_path = base.with_suffix(".npz")
    with file_errors(npz_path, "write"):
        # bin factors are at most 64
        np.savez(npz_path, gain_grid=raw.plan.gains,
                 bin_grid=raw.plan.bins.astype(np.uint8),
                 saturation_mask=np.packbits(raw.saturation_mask))
    write_text(base.with_suffix(".json"), json.dumps({
        "format": SIDECAR_FORMAT, "seed": raw.seed, "meta": _plain(raw.meta),
        "roi_size": raw.plan.roi_size, "mode": raw.plan.mode},
        sort_keys=True))


def load_capture(path_base, config):
    """Read a capture back from its PGM, JSON and .npz files; a plan that
    fails the ``Plan`` check is a DataError."""
    from .sensor import Plan, RawCapture, is_json_int
    base = Path(path_base)
    digits = read_pgm16(base.with_suffix(".pgm"))
    if digits.size and int(digits.max()) > config.digital_max:
        raise DataError(f"{base}.pgm: digits exceed the sensor's "
                        f"digital_max={config.digital_max}")
    doc = load_json(base.with_suffix(".json"))
    if not isinstance(doc, dict) or doc.get("format") != SIDECAR_FORMAT:
        raise DataError(f"{base}.json: not a format-{SIDECAR_FORMAT} capture "
                        "sidecar")
    seed, meta = doc.get("seed"), doc.get("meta", {})
    if not ((seed is None or is_json_int(seed)) and isinstance(meta, dict)):
        raise DataError(f"{base}.json: needs an integer or null seed and an "
                        f"object meta, not {seed!r} and {meta!r}")
    npz_path = base.with_suffix(".npz")
    with file_errors(npz_path), np.load(npz_path) as npz:
        gains, bins, packed = (npz["gain_grid"], npz["bin_grid"],
                               npz["saturation_mask"])
        if packed.shape != (-(-digits.size // 8),):
            raise DataError(f"{npz_path}: saturation mask does not fit the "
                            f"{digits.shape} digits")
        mask = np.unpackbits(packed, count=digits.size).reshape(digits.shape)
    with file_errors(base):
        plan = Plan(doc.get("roi_size"), gains, bins, doc.get("mode"))
    return RawCapture(digits=digits, saturation_mask=mask, plan=plan,
                      seed=seed, meta=meta)


def save_gain_stack(directory, stack) -> None:
    """Write a stack as frame PGM/JSON pairs plus a manifest."""
    d = Path(directory)
    with file_errors(d, "write"):
        d.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (g, frame) in enumerate(zip(stack.gains, stack.frames)):
        name = f"frame_{i:03d}"
        save_capture(d / name, frame)
        entries.append({"gain": float(g), "base": name})
    write_text(d / "manifest.json",
               json.dumps({"frames": entries}, sort_keys=True, indent=2))


def load_gain_stack(directory, config):
    from .readout import GainStack
    d = Path(directory)
    doc = load_json(d / "manifest.json")
    with file_errors(d / "manifest.json"):
        entries = [(float(e["gain"]), e["base"]) for e in doc["frames"]]
    frames = tuple(load_capture(d / name, config) for _, name in entries)
    return GainStack(gains=tuple(g for g, _ in entries), frames=frames)


# ----------------------------------------------------------- JSON documents

def _plain(obj):
    """Recursively coerce numpy scalars/arrays for JSON."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def write_text(path, text: str) -> None:
    with file_errors(path, "write"):
        Path(path).write_text(text)


def save_json(path, doc: dict) -> None:
    write_text(path, json.dumps(_plain(doc), sort_keys=True, indent=2))


def load_json(path) -> dict:
    with file_errors(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))
