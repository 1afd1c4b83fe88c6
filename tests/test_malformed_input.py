"""Malformed input files: each is a valid file with one field changed.

Every mutant must be a DataError from the reader and, read through the CLI,
exit 3 with one ``error:`` line.  An uncaught exception would end ``main``
here in a raise, which is what a traceback is on the command line."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svsensor import RadianceMap, SensorConfig, simulate_capture
from svsensor.cli import main
from svsensor.errors import DataError
from svsensor.fileio import read_pfm, read_pgm16, save_capture, write_pgm16

WIDTH, HEIGHT = 4, 3

# the valid files, as (magic, dimensions, third line, payload)
_PFM = (b"Pf", b"4 3", b"-1.0",
        (np.arange(1, 13) / 12).astype("<f4").tobytes())
_PGM = (b"P5", b"4 3", b"65535",
        np.arange(200, 212, dtype=">u2").tobytes())


def _file(magic, dims, third, payload) -> bytes:
    return b"\n".join((magic, dims, third)) + b"\n" + payload


def _line(other):
    """Header lines: the texts ``other``, or any short line."""
    return st.one_of(st.sampled_from(other),
                     st.binary(max_size=6).filter(lambda b: b"\n" not in b))


_DIMS = st.one_of(
    # count and text
    st.sampled_from([b"", b"4", b"4 3 1", b"four 3", b"4 3.0", b"4 0x3",
                     b"4e0 3", b"4 nan"]),
    # sign and size
    st.tuples(st.integers(-5, 9), st.integers(-5, 9)).filter(
        lambda d: d != (WIDTH, HEIGHT)).map(lambda d: b"%d %d" % d),
    st.just(b"100000 100000"))


def _mutants(valid, magics, thirds, accepted, itemsize):
    """Files of ``valid`` with one field replaced: the magic line, the
    dimensions, the third line (by one that ``accepted`` refuses) or the
    payload, cut short or made longer by up to two samples."""
    magic, dims, third, payload = valid
    return st.one_of(
        _line(magics).filter(lambda m: m.strip() != magic).map(
            lambda m: _file(m, dims, third, payload)),
        _DIMS.map(lambda d: _file(magic, d, third, payload)),
        _line(thirds).filter(lambda t: not accepted(t)).map(
            lambda t: _file(magic, dims, t, payload)),
        st.integers(1, len(payload)).map(
            lambda n: _file(magic, dims, third, payload[:-n])),
        st.integers(1, 2 * itemsize).map(
            lambda n: _file(magic, dims, third, payload + bytes(n))))


def _parses(line, parse, ok) -> bool:
    try:
        return ok(parse(line))
    except ValueError:
        return False


# a PFM scale is finite and nonzero, a PGM maxval 65535
_PFM_MUTANTS = _mutants(
    _PFM, [b"PF", b"P5", b"pf", b""],
    [b"nan", b"-nan", b"0", b"-0.0", b"inf", b"-inf", b"1e999", b"one"],
    lambda t: _parses(t, float, lambda v: math.isfinite(v) and v != 0), 4)
_PGM_MUTANTS = _mutants(
    _PGM, [b"P2", b"P6", b"Pf", b""],
    [b"255", b"65536", b"0", b"-65535", b"65535.0", b"max"],
    lambda t: _parses(t, int, lambda v: v == 65535), 2)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding a sensor config, a 4 x 3 pilot capture and a
    calibrate manifest over six dark frames: the files a command of
    ``_commands`` reads besides the one a test writes."""
    d = tmp_path_factory.mktemp("malformed")
    config = SensorConfig()
    (d / "sensor.json").write_text(config.to_json())
    scene = RadianceMap(data=np.full((HEIGHT, WIDTH), 100.0))
    save_capture(d / "pilot", simulate_capture(scene, 1.0, None, config, 1))
    rng = np.random.default_rng(0)
    frames = []
    for i in range(6):
        frames.append(str(d / f"dark{i}.pgm"))
        write_pgm16(frames[-1], rng.integers(190, 220, (HEIGHT, WIDTH)))
    (d / "manifest.json").write_text(json.dumps({"gains": [
        {"gain": g, "frames": frames[2 * i:2 * i + 2]}
        for i, g in enumerate((1.0, 2.0, 4.0))]}))
    return d


def _commands(d, kind):
    """(file, argument list) of each command that reads a PFM scene or
    transmission map, or a PGM pilot capture's digits or dark frame."""
    common = ["--config", str(d / "sensor.json")]
    if kind == "pfm":
        return [(d / "scene.pfm", [
                    "simulate", str(d / "scene.pfm"), *common, "--seed", "1",
                    "--output", str(d / "out")]),
                (d / "scene.pfm", [
                    "plan-gain", "--vignetting", str(d / "scene.pfm"),
                    *common, "--roi-size", "1", "--output",
                    str(d / "plan.json")])]
    return [(d / "pilot.pgm", [
                "plan-gain", "--pilot", str(d / "pilot"), *common,
                "--roi-size", "8", "--output", str(d / "plan.json")]),
            (d / "dark0.pgm", [
                "calibrate", "--manifest", str(d / "manifest.json"),
                *common, "--output", str(d / "profile.json")])]


def _check(d, kind, data, code):
    """Read ``data`` as a ``kind`` file, by its reader and by each command
    in turn, which must exit ``code``: 0 without a word, or else with one
    ``error:`` line.  The reader must return a 4 x 3 image for exit 0 and
    raise DataError otherwise."""
    read = read_pfm if kind == "pfm" else read_pgm16
    path = d / f"read.{kind}"
    path.write_bytes(data)
    if code == 0:
        assert read(path).shape == (HEIGHT, WIDTH)
    else:
        with pytest.raises(DataError):
            read(path)
    for target, argv in _commands(d, kind):
        original = target.read_bytes() if target.exists() else None
        target.write_bytes(data)
        try:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == code, (argv[0], data, err.getvalue())
            lines = err.getvalue().splitlines()
            assert (lines == [] if code == 0 else
                    len(lines) == 1 and lines[0].startswith("error: "))
        finally:
            if original is not None:
                target.write_bytes(original)


@pytest.mark.parametrize("kind, valid", [("pfm", _PFM), ("pgm", _PGM)])
def test_valid_files_read(inputs, kind, valid):
    # the unmutated files pass every reader and command, so that each
    # mutant below fails on its one changed field
    _check(inputs, kind, _file(*valid), 0)


@given(data=_PFM_MUTANTS)
def test_mutated_pfm_is_a_data_error(inputs, data):
    _check(inputs, "pfm", data, 3)


@given(data=_PGM_MUTANTS)
def test_mutated_pgm_is_a_data_error(inputs, data):
    _check(inputs, "pgm", data, 3)


@pytest.mark.parametrize("kind, data", [
    ("pfm", _file(b"Pf", b"4 3", b"nan", _PFM[3])),
    ("pfm", _file(b"Pf", b"4 3", b"0", _PFM[3])),
    ("pfm", _file(b"Pf", b"4 3", b"inf", _PFM[3])),
    ("pfm", _file(*_PFM) + bytes(1)),
    ("pgm", _file(*_PGM) + bytes(1)),
    ("pgm", _file(b"P5", b"0 3", *_PGM[2:])),
], ids=["pfm-scale-nan", "pfm-scale-0", "pfm-scale-inf", "pfm-long-payload",
        "pgm-long-payload", "pgm-zero-width"])
def test_reader_refuses_what_it_once_read(inputs, kind, data):
    # a PFM scale that is not finite and nonzero, and payload bytes past
    # the width x height samples, were read as an image
    _check(inputs, kind, data, 3)
