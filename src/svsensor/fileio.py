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
import os
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
    except (OSError, ValueError, KeyError, TypeError, RecursionError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"cannot {action} {path}: {exc}") from exc


# ------------------------------------------------------------ PFM and PGM

def _read_image(path, magic: bytes, kind: str, not_magic, third):
    """The samples of the netpbm-style ``kind`` image ``path``, rows in
    file order, and the value of its third line: a ``magic`` line (else
    DataError, with the message ``not_magic`` gives for the line found),
    two nonnegative dimensions (width, height), a line that ``third`` makes
    the samples' dtype and a value of or refuses, and then the samples, to
    the end of the file.  Its size is checked before anything is read: a
    header that claims more than the file holds costs no allocation."""
    with file_errors(path), open(path, "rb") as fh:
        header = fh.readline().strip()
        if header != magic:
            raise DataError(f"{path}: {not_magic(header)}")
        dims = fh.readline().split()
        width, height = map(int, dims) if len(dims) == 2 else (-1, -1)
        if min(width, height) < 0:
            raise DataError(f"{path}: malformed {kind} dimensions")
        dtype, value = third(fh.readline().strip())
        size = width * height * np.dtype(dtype).itemsize
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - size
        if extra < 0:
            raise DataError(f"{path}: truncated {kind} payload")
        if extra:
            raise DataError(f"{path}: {extra} bytes follow the {kind} payload")
        return np.frombuffer(fh.read(size), dtype).reshape(height, width), value


def read_pfm(path) -> np.ndarray:
    """Read a single-channel PFM into a float array (top-down row order)."""
    def scale_line(line):
        scale = float(line)
        if not (math.isfinite(scale) and scale):
            raise DataError(f"{path}: PFM scale must be finite and nonzero, "
                            f"not {scale}")
        return ("<f4" if scale < 0 else ">f4"), abs(scale)

    data, scale = _read_image(
        path, b"Pf", "PFM", lambda header: (
            "color PFM not supported, expected 'Pf'" if header == b"PF"
            else "not a PFM file"), scale_line)
    return np.flipud(data).astype(np.float64) * scale  # rows stored bottom-up


def write_pfm(path, data: np.ndarray) -> None:
    """Write a 2-D array as little-endian single-channel PFM."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise DataError("PFM writer takes a 2-D array")
    height, width = arr.shape
    with file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(f"Pf\n{width} {height}\n-1.0\n".encode())
        fh.write(np.flipud(arr).astype("<f4").tobytes())


def write_pgm16(path, digits: np.ndarray) -> None:
    arr = np.asarray(digits)
    if arr.ndim != 2:
        raise DataError("PGM writer takes a 2-D array")
    height, width = arr.shape
    with file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode())
        fh.write(arr.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    def maxval_line(line):
        maxval = int(line)
        if maxval != 65535:
            raise DataError(f"{path}: expected 16-bit PGM, maxval={maxval}")
        return ">u2", maxval

    return _read_image(path, b"P5", "PGM", lambda _: "not a binary PGM",
                       maxval_line)[0].astype(np.uint16)


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


def file_names(names, manifest) -> None:
    """DataError unless ``names``, from the JSON ``manifest``, is a list of
    file names: ``open`` would take an integer for a file descriptor, and
    ``Path`` refuses the rest with a TypeError."""
    if not (isinstance(names, list) and all(isinstance(s, str)
                                            for s in names)):
        raise DataError(f"manifest {manifest}: files are named by a list of "
                        f"strings, not {names!r}")


def load_gain_stack(directory, config):
    from .readout import GainStack
    d = Path(directory)
    doc = load_json(d / "manifest.json")
    with file_errors(d / "manifest.json"):
        entries = [(float(e["gain"]), e["base"]) for e in doc["frames"]]
    file_names([name for _, name in entries], d / "manifest.json")
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
