"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, lists the
``svsensor`` command lines of one pass, and checks the outputs of a pass.
The checks parse images with the small netpbm/PFM readers below, not with
the program's own readers, and read capture sidecars only through
``svsensor.fileio.load_capture`` so that a change of the sidecar format
needs no edit here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from svsensor import SceneSpec, SensorConfig, load_and_normalize
from svsensor import fileio

MEAN_FRAC = 0.05
ETA = 2.0


# ------------------------------------------------------------ image readers

def _header_fields(fh, count):
    """Read ``count`` whitespace-separated header fields of a netpbm/PFM
    file; the single whitespace byte after the last one ends the header."""
    fields, token = [], b""
    while len(fields) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated header")
        if ch.isspace():
            if token:
                fields.append(token)
                token = b""
        else:
            token += ch
    return fields


def read_pgm(path) -> np.ndarray:
    """Binary 16-bit PGM ('P5', maxval 65535, big-endian samples)."""
    with open(path, "rb") as fh:
        magic, w, h, maxval = _header_fields(fh, 4)
        if magic != b"P5" or int(maxval) != 65535:
            raise ValueError(f"{path}: not a 16-bit binary PGM")
        w, h = int(w), int(h)
        data = np.frombuffer(fh.read(), dtype=">u2")
    if data.size != w * h:
        raise ValueError(f"{path}: payload size mismatch")
    return data.reshape(h, w).astype(np.int64)


def read_pfm(path) -> np.ndarray:
    """Single-channel PFM ('Pf'); rows are stored bottom-up and a negative
    scale marks little-endian samples."""
    with open(path, "rb") as fh:
        magic, w, h, scale = _header_fields(fh, 4)
        if magic != b"Pf":
            raise ValueError(f"{path}: not a single-channel PFM")
        w, h, scale = int(w), int(h), float(scale)
        data = np.frombuffer(fh.read(), dtype="<f4" if scale < 0 else ">f4")
    if data.size != w * h:
        raise ValueError(f"{path}: payload size mismatch")
    return np.flipud(data.reshape(h, w)).astype(np.float64)


# ------------------------------------------------------------ sensor model

class Model:
    """The documented pixel model, computed from the sensor config fields
    (not from ``SensorConfig``'s derived properties)."""

    def __init__(self, doc: dict):
        self.well = float(doc["well_capacity"])
        self.sigma_pre = float(doc["sigma_pre"])
        self.sigma_post = float(doc["sigma_post"])
        self.gmin = float(doc["gain_min"])
        self.gmax = float(doc["gain_max"])
        self.qe = float(doc["quantum_efficiency"])
        self.dmax = (1 << int(doc["bit_depth"])) - 1
        self.black = int(np.rint(doc["black_level_frac"] * self.dmax))
        self.slope = (self.dmax - self.black) / self.well

    def estimate(self, digits, gain):
        return (digits - self.black) / self.slope / gain

    def gain_rule(self, level, eta):
        """Largest gain keeping ``level`` eta shot-noise deviations below
        full well; dark levels get the maximum gain."""
        level = np.asarray(level, dtype=np.float64)
        safe = np.maximum(level, 0.0)
        with np.errstate(divide="ignore"):
            g = self.well / (safe + eta * np.sqrt(safe))
        return np.clip(np.where(safe > 0, g, self.gmax), self.gmin, self.gmax)

    def variance(self, m, gain):
        """Estimator variance of one unit pixel."""
        return self.qe * m + self.sigma_pre ** 2 + self.sigma_post ** 2 / gain ** 2

    def safe(self, m, gain):
        """Pixels whose amplified signal stays 6 deviations below the clip
        point; selecting on the true level keeps the bias test unbiased."""
        sd = np.sqrt(gain ** 2 * (self.qe * m + self.sigma_pre ** 2)
                     + self.sigma_post ** 2)
        return gain * self.qe * m + 6 * sd < self.well - 1.0 / self.slope


def bias_z(err, var) -> float:
    """Summed estimate error in units of its standard error."""
    return float(np.sum(err) / math.sqrt(np.sum(var)))


def roi_blocks(shape, r):
    h, w = shape
    for i in range(0, h, r):
        for j in range(0, w, r):
            yield (i // r, j // r), (slice(i, i + r), slice(j, j + r))


def block_mean(a, k):
    h, w = a.shape
    return a.reshape(h // k, k, w // k, k).mean(axis=(1, 3))


def block_constant(a, k) -> bool:
    h, w = a.shape
    b = a.reshape(h // k, k, w // k, k)
    return bool(np.all(b == b[:, :1, :, :1]))


# ---------------------------------------------------------------- workloads

class Workload:
    """Base: ``work`` holds ``in/`` (set-up inputs) and ``out/`` (pass
    outputs)."""

    name = ""
    key = 0

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.inp = work / "in"
        self.out = work / "out"
        state = np.random.SeedSequence([seed, self.key]).generate_state(8)
        self.seeds = [int(s) for s in state]
        self.config = SensorConfig()
        self.model = Model(json.loads(self.config.to_json()))

    def prepare(self) -> None:
        """Write every input file; called several times to time set-up."""
        self.inp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.inp / "sensor.json").write_text(self.config.to_json())

    def scene(self, seed: int, size: int):
        spec = SceneSpec(source="hdr_blobs", seed=seed, width=size,
                         height=size, mean_level_frac=MEAN_FRAC)
        return load_and_normalize(spec, self.config)

    def truth(self, path) -> np.ndarray:
        """Scene as the CLI sees it after --mean-frac normalization."""
        data = np.clip(read_pfm(path), 0.0, None)
        return data * (MEAN_FRAC * self.model.well / data.mean())

    def steps(self) -> list:
        raise NotImplementedError

    def outputs(self) -> list:
        """Output files of one pass, digested after every pass."""
        raise NotImplementedError

    def check(self) -> list:
        """Return a list of failed checks (empty when all hold)."""
        raise NotImplementedError


class Protocol(Workload):
    """Four-method evaluation on several scenes."""

    name = "protocol_512"
    key = 2
    roi = 32
    methods = ("const_gain_no_bin", "vary_gain_no_bin",
               "const_gain_vary_bin", "vary_gain_vary_bin")

    def __init__(self, seed, work, quick=False):
        super().__init__(seed, work)
        self.size = 128 if quick else 512
        self.n_scenes = 1 if quick else 3

    def prepare(self):
        super().prepare()
        for n in range(self.n_scenes):
            scene = self.scene(self.seeds[n], self.size)
            fileio.write_pfm(self.inp / f"scene_{n}.pfm", scene.data)

    def steps(self):
        return [["evaluate", str(self.inp / f"scene_{n}.pfm"),
                 "--config", str(self.inp / "sensor.json"),
                 "--roi-size", str(self.roi), "--mean-frac", str(MEAN_FRAC),
                 "--seed", str(self.seeds[4 + n]),
                 "--output", str(self.out / f"report_{n}.json")]
                for n in range(self.n_scenes)]

    def outputs(self):
        return [self.out / f"report_{n}.json" for n in range(self.n_scenes)]

    def check(self):
        bad = []
        for n in range(self.n_scenes):
            doc = json.loads((self.out / f"report_{n}.json").read_text())
            scores = doc["methods"]
            if set(scores) != set(self.methods):
                bad.append(f"scene {n}: methods {sorted(scores)}")
                continue
            worst = {k: v["worst_ssim"] for k, v in scores.items()}
            for k, v in scores.items():
                grid = np.asarray(v["ssim_grid"], dtype=float)
                vals = np.concatenate([grid.ravel(), [v["worst_ssim"], v["mean_ssim"]]])
                if np.any(vals < -1) or np.any(vals > 1):
                    bad.append(f"scene {n} {k}: SSIM outside [-1, 1]")
                if v["worst_ssim"] > v["mean_ssim"]:
                    bad.append(f"scene {n} {k}: worst SSIM above mean")
            # combined >= const_gain_vary_bin is left out: it fails on
            # about 1 scene in 25 (see README.md, "Output checks")
            both, base = worst["vary_gain_vary_bin"], worst["const_gain_no_bin"]
            if not (both >= worst["vary_gain_no_bin"] >= base
                    and worst["const_gain_vary_bin"] >= base):
                bad.append(f"scene {n}: worst-ROI SSIM ordering fails: {worst}")
        return bad


class StackAdaptive(Workload):
    """Gain stack + compose, the README walkthrough (bin plan and a capture
    with both maps), per-pixel adaptive capture, dark-frame calibration."""

    name = "stack_adaptive_512"
    key = 3
    ladder = (1, 2, 4, 8, 16)
    dark_gains = (1, 3, 9, 27)
    dark_frames = 3
    adaptive_eta = 4.0

    def __init__(self, seed, work, quick=False):
        super().__init__(seed, work)
        self.size = 128 if quick else 512
        self.dark_size = 64 if quick else 256
        self.roi = 32 if quick else 64

    def prepare(self):
        super().prepare()
        scene = self.scene(self.seeds[0], self.size)
        fileio.write_pfm(self.inp / "scene.pfm", scene.data)
        fileio.write_pfm(self.inp / "dark.pfm",
                         np.zeros((self.dark_size, self.dark_size)))
        stack = self.out / "stack"
        stack.mkdir(parents=True, exist_ok=True)
        frames = [{"gain": float(g), "base": f"gain_{g}"} for g in self.ladder]
        (stack / "manifest.json").write_text(json.dumps({"frames": frames}))
        darks = [{"gain": float(g),
                  "frames": [str(self.out / "dark" / f"g{g}_{n}.pgm")
                             for n in range(self.dark_frames)]}
                 for g in self.dark_gains]
        (self.inp / "darks.json").write_text(json.dumps({"gains": darks}))
        (self.out / "dark").mkdir(exist_ok=True)

    def steps(self):
        i, o = self.inp, self.out
        cfg = ["--config", str(i / "sensor.json")]
        ladder = ",".join(str(g) for g in self.ladder)
        steps = [["simulate", str(i / "scene.pfm"), *cfg, "--gain", str(g),
                  "--mean-frac", str(MEAN_FRAC),
                  "--seed", str(self.seeds[1] + n),
                  "--output", str(o / "stack" / f"gain_{g}")]
                 for n, g in enumerate(self.ladder)]
        steps += [
            ["plan-gain", *cfg, "--pilot", str(o / "stack" / "gain_1"),
             "--roi-size", str(self.roi), "--eta", str(ETA),
             "--ladder", ladder, "--output", str(o / "plan.json")],
            ["compose", *cfg, "--stack", str(o / "stack"),
             "--gain-map", str(o / "plan.json"), "--snap",
             "--output", str(o / "composed")],
            ["plan-gain", *cfg, "--pilot", str(o / "stack" / "gain_1"),
             "--roi-size", str(self.roi), "--eta", str(ETA),
             "--output", str(o / "gains.json")],
            ["plan-bin", *cfg, "--pilot", str(o / "stack" / "gain_1"),
             "--roi-size", str(self.roi), "--mode", "digital",
             "--output", str(o / "bins.json")],
            ["capture", str(i / "scene.pfm"), *cfg,
             "--gain-map", str(o / "gains.json"),
             "--bin-map", str(o / "bins.json"),
             "--mean-frac", str(MEAN_FRAC), "--seed", str(self.seeds[4]),
             "--output", str(o / "capture"),
             "--estimate", str(o / "estimate.pfm")],
            ["capture", str(i / "scene.pfm"), *cfg,
             "--per-pixel-eta", str(self.adaptive_eta),
             "--mean-frac", str(MEAN_FRAC), "--seed", str(self.seeds[2]),
             "--output", str(o / "adaptive")],
        ]
        n = 0
        for g in self.dark_gains:
            for f in range(self.dark_frames):
                steps.append(["simulate", str(i / "dark.pfm"), *cfg,
                              "--gain", str(g), "--seed", str(self.seeds[3] + n),
                              "--output", str(o / "dark" / f"g{g}_{f}")])
                n += 1
        steps.append(["calibrate", *cfg, "--manifest", str(i / "darks.json"),
                      "--electrons", "--output", str(o / "profile.json")])
        return steps

    def outputs(self):
        names = [f"stack/gain_{g}.pgm" for g in self.ladder]
        names += ["composed.pgm", "capture.pgm", "estimate.pfm", "adaptive.pgm"]
        names += [f"dark/g{g}_{f}.pgm" for g in self.dark_gains
                  for f in range(self.dark_frames)]
        return [self.out / n for n in names]

    def check(self):
        md, o, r = self.model, self.out, self.roi
        bad = []

        frames = {g: read_pgm(o / "stack" / f"gain_{g}.pgm") for g in self.ladder}
        pilot = frames[1]
        est = md.estimate(pilot, 1.0)
        valid = pilot < md.dmax
        composed = read_pgm(o / "composed.pgm")
        plan = json.loads((o / "plan.json").read_text())
        planned = np.asarray(plan["values"], dtype=float).reshape(plan["shape"])
        ladder = np.asarray(self.ladder, dtype=float)
        for (i, j), sl in roi_blocks(pilot.shape, r):
            ok = valid[sl]
            g = (md.gain_rule(max(float(est[sl][ok].max()), 0.0), ETA)
                 if ok.any() else md.gmin)
            snapped = float(ladder[ladder <= g].max())
            if planned[i, j] != snapped:
                bad.append(f"ROI {i},{j}: planned {planned[i, j]}, "
                           f"expected ladder gain {snapped}")
            if not np.array_equal(composed[sl], frames[int(snapped)][sl]):
                bad.append(f"ROI {i},{j}: composite is not the gain-{snapped} frame")
        if bad:
            bad = bad[:3] + ([f"... {len(bad) - 3} more"] if len(bad) > 3 else [])
        bad += self.check_walkthrough(pilot)

        digits = read_pgm(o / "adaptive.pgm").ravel()
        gains = fileio.load_capture(o / "adaptive", self.config).gain.ravel()
        prev_d, prev_g = digits[:-1], gains[:-1]
        level = md.estimate(prev_d, prev_g)
        want = np.where(prev_d >= md.dmax, 1.0,
                        md.gain_rule(level, self.adaptive_eta))
        if gains[0] != 1.0:
            bad.append(f"adaptive first gain {gains[0]} != 1")
        if not np.allclose(gains[1:], want, rtol=1e-12, atol=0):
            k = int(np.argmax(~np.isclose(gains[1:], want, rtol=1e-12, atol=0)))
            bad.append(f"adaptive gain {k + 1} is {gains[k + 1]}, rule gives {want[k]}")
        sat = float(np.mean(digits >= md.dmax))
        if sat > 0.06:
            bad.append(f"adaptive saturated fraction {sat:.4f} > 0.06")

        prof = json.loads((o / "profile.json").read_text())
        for key, ref in (("sigma_pre", md.sigma_pre), ("sigma_post", md.sigma_post)):
            if abs(prof[key] - ref) > 0.10 * ref:
                bad.append(f"calibrated {key} {prof[key]:.4f} vs config {ref}")
        return bad

    def check_walkthrough(self, d_pilot):
        """Pilot bias, the gain and bin plans, and the capture made with
        them (the README walkthrough)."""
        md, o, r = self.model, self.out, self.roi
        bad = []
        m = self.truth(self.inp / "scene.pfm")
        est = md.estimate(d_pilot, 1.0)
        keep = md.safe(m, 1.0)
        z = bias_z(est[keep] - md.qe * m[keep], md.variance(m[keep], 1.0))
        if abs(z) > 5:
            bad.append(f"pilot estimate biased: z={z:.2f}")

        valid = d_pilot < md.dmax
        plan = json.loads((o / "gains.json").read_text())
        gains = np.asarray(plan["values"], dtype=float).reshape(plan["shape"])
        doc = json.loads((o / "bins.json").read_text())
        ks = np.asarray(doc["values"], dtype=np.int64).reshape(doc["shape"])
        levels = np.zeros(ks.shape)
        want = np.empty(gains.shape)
        for (i, j), sl in roi_blocks(m.shape, r):
            ok = valid[sl]
            if ok.any():
                peak = max(float(est[sl][ok].max()), 0.0)
                want[i, j] = md.gain_rule(peak, ETA)
                levels[i, j] = float(np.clip(est[sl][ok], 0, None).mean())
            else:
                want[i, j] = md.gmin
        if not np.allclose(gains, want, rtol=1e-12, atol=0):
            bad.append("planned ROI gains differ from the eta rule "
                       f"(max diff {np.abs(gains - want).max():.3g})")
        factors = ks * ks
        if not set(np.unique(factors).tolist()) <= {1, 4, 16, 64}:
            bad.append(f"bin factors outside the ladder: {np.unique(factors)}")
        order = np.argsort(levels.ravel(), kind="stable")
        if np.any(np.diff(factors.ravel()[order]) > 0):
            bad.append("bin factor increases with ROI level")

        d_cap = read_pgm(o / "capture.pgm")
        cap = fileio.load_capture(o / "capture", self.config)
        est_file = read_pfm(o / "estimate.pfm")
        if not np.allclose(est_file, md.estimate(d_cap, cap.gain),
                           rtol=1e-6, atol=1e-6):
            bad.append("estimate.pfm does not decode capture.pgm")
        err, var = [], []
        constant = True
        for (i, j), sl in roi_blocks(m.shape, r):
            k = int(ks[i, j])
            g = float(gains[i, j])
            if not np.all(cap.gain[sl] == g):
                bad.append(f"capture gain of ROI {i},{j} is not the plan's {g}")
                break
            constant &= block_constant(d_cap[sl], k) and block_constant(est_file[sl], k)
            m_blk = m[sl]
            sup_ok = block_mean(md.safe(m_blk, g).astype(float), k) == 1.0
            m_sup = block_mean(m_blk, k)
            e_sup = est_file[sl][::k, ::k]
            err.append((e_sup - md.qe * m_sup)[sup_ok])
            var.append(md.variance(m_sup[sup_ok], g) / (k * k))
        if not constant:
            bad.append("digital superpixel not constant over its footprint")
        z = bias_z(np.concatenate(err), np.concatenate(var))
        if abs(z) > 5:
            bad.append(f"capture estimate biased: z={z:.2f}")
        sat = float(cap.saturation_mask.mean())
        if sat > 0.027:
            bad.append(f"capture saturated fraction {sat:.4f} > 0.027")
        return bad


WORKLOADS = {w.name: w for w in (Protocol, StackAdaptive)}
