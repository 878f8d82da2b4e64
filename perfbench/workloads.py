"""Seeded op streams for the three benchmark workloads, with reference checks.

An op is one CLI experiment config plus what its CSV must show.  The mixes
are cut into cycles: each cycle holds every op kind in its fixed
proportion, in a seeded order.  The parameters that set an op's cost
(epsilon for Young, T and lambda for the Euler sews, path and net sizes)
come from low-discrepancy sequences with seeded starts, so two seeds give
streams of the same cost profile and their figures can be compared.  The
reasons for each mix are in README.md next to this file.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

TAU = 2.0 * math.pi

#: closed forms of int_0^T y(s) x'(s) ds for the CLI's Young drivers and integrands
_YOUNG_INTEGRALS = {
    ("linear", "linear"): lambda T: T * T / 2.0,
    ("linear", "sin"): lambda T: 1.0 - math.cos(T),
    ("linear", "quadratic"): lambda T: T**3 / 3.0,
    ("sin", "linear"): lambda T: T * math.sin(T) + math.cos(T) - 1.0,
    ("sin", "sin"): lambda T: math.sin(T) ** 2 / 2.0,
    ("sin", "quadratic"): lambda T: T * T * math.sin(T) + 2.0 * T * math.cos(T) - 2.0 * math.sin(T),
    ("quadratic", "linear"): lambda T: 2.0 * T**3 / 3.0,
    ("quadratic", "sin"): lambda T: 2.0 * (math.sin(T) - T * math.cos(T)),
    ("quadratic", "quadratic"): lambda T: T**4 / 2.0,
}
_YOUNG_FNS = ("linear", "sin", "quadratic")

#: ops whose CSV is checked against a reference: the row name that carries the value
_VALUE_ROW = {"sew": "limit", "holonomy": "angle"}


@dataclass(frozen=True)
class Op:
    """One CLI config and the check its result must pass.

    ``check`` is "value" (the named CSV row's value lies within ``tol`` of
    ``ref``), "knit" (every row's note is ``pass``) or "exit" (exit code 0
    only).  Every op must also exit 0.
    """

    kind: str
    config: dict
    check: str
    ref: float | None = None
    tol: float = 0.0


def check_csv(op: Op, text: str) -> str | None:
    """Return None when the CSV meets the op's reference, else the reason."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if op.check == "exit":
        return None
    if op.check == "knit":
        notes = [r[4] for r in rows]
        return None if notes and all(n == "pass" for n in notes) else f"knit rows {notes}"
    name = _VALUE_ROW[op.config["experiment"]]
    values = [r[4] for r in rows if r[0] == name]
    if len(values) != 1 or values[0] == "":
        return f"no {name} row"
    err = abs(float(values[0]) - op.ref)
    return None if err <= op.tol else f"{name} {values[0]} misses {op.ref!r} by {err:.3e} > tol {op.tol:g}"


class _Weyl:
    """Low-discrepancy sequence frac(x0 + n * step) in [0, 1) with a seeded start.

    Any stretch of the stream covers [0, 1) evenly, so runs with different
    seeds draw the cost-setting parameters from the same spread, while no
    value repeats.
    """

    def __init__(self, rng: random.Random, step: float):
        self.x = rng.random()
        self.step = step

    def uniform(self, lo: float, hi: float) -> float:
        self.x = (self.x + self.step) % 1.0
        return lo + (hi - lo) * self.x

    def pick(self, options: tuple):
        return options[int(self.uniform(0.0, len(options)))]


#: steps linearly independent over the rationals, one per parameter of a stream
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (5, 2, 3, 7, 11, 13, 17))


def _weyls(rng: random.Random, n: int) -> list[_Weyl]:
    return [_Weyl(rng, step) for step in _STEPS[:n]]


def _sew(model: dict, T: float, tol: float, ref: float) -> Op:
    cfg = {"experiment": "sew", "model": model, "interval": [0.0, T], "tol": tol,
           "max_level": 20, "seed": 0}
    return Op(model["name"], cfg, "value", ref, tol)


# ---------------------------------------------------------------------------
# sew-smooth: one-step Euler models

_TOLS = (1e-7, 1e-8)
#: tol 1e-7 twice as often as 1e-8: the median and p90 latencies then fall
#: inside classes of equal work (k x dimension) rather than on a boundary
#: between two, where they would jump between runs
_SMOOTH_TOLS = (1e-7, 1e-8, 1e-7)
#: cap on the spectral norm of A*T; the Euler matrix sews then need at most
#: 2^17 intervals, as many as the heaviest linear sew of the mix
_MAX_GROWTH = 1.25


def _smooth_stream(rng: random.Random) -> Iterator[Op]:
    # Every stream opens with the heaviest linear sew of the mix (2^17
    # intervals), so each run's peak memory includes the largest sew, rather
    # than depending on whether a rare one falls within the run.
    yield _sew({"name": "euler_linear", "lam": 1.5}, 1.0, 1e-8, math.exp(1.5))
    t_seq, lam_seq, *a_seqs = _weyls(rng, 6)
    while True:
        cycle = []
        for tol in _SMOOTH_TOLS:
            T, lam = t_seq.uniform(0.5, 1.0), lam_seq.uniform(0.5, 1.5)
            cycle.append(_sew({"name": "euler_linear", "lam": lam}, T, tol, math.exp(lam * T)))
            T = t_seq.uniform(0.5, 1.0)
            ref = 2.0 * math.atan(math.tan(0.5) * math.exp(T))
            cycle.append(_sew({"name": "euler_sin"}, T, tol, ref))
            T = t_seq.uniform(0.5, 1.0)
            a = _matrix(a_seqs, T)
            cycle.append(_sew({"name": "euler_matrix", "a": a}, T, tol, _expm00(a, T)))
        rng.shuffle(cycle)
        yield from cycle


def _matrix(seqs: list[_Weyl], T: float) -> list[list[float]]:
    """Entries spread over [-1, 1], redrawn until |A T|_2 <= _MAX_GROWTH."""
    import numpy as np  # imported here, so that set-up imports numpy through sewkit

    while True:
        e = [seq.uniform(-1.0, 1.0) for seq in seqs]
        a = [e[:2], e[2:]]
        if np.linalg.norm(np.array(a) * T, 2) <= _MAX_GROWTH:
            return a


def _expm00(a: list[list[float]], T: float) -> float:
    """[exp(A T)]_00 through the eigen-decomposition of A."""
    import numpy as np

    w, v = np.linalg.eig(np.array(a) * T)
    return float((v @ np.diag(np.exp(w)) @ np.linalg.inv(v))[0, 0].real)


# ---------------------------------------------------------------------------
# sew-rough: translation models, every Young op with its own epsilon

def _young_model(rng: random.Random, eps: float) -> tuple[dict, str, str]:
    driver, integrand = rng.choice(_YOUNG_FNS), rng.choice(_YOUNG_FNS)
    alpha = rng.uniform(eps, 1.0)
    model = {"name": "young", "driver": driver, "integrand": integrand,
             "alpha": alpha, "beta": 1.0 + eps - alpha}
    return model, driver, integrand


def _rough_stream(rng: random.Random) -> Iterator[Op]:
    # Opens with the sew that holds the most memory (2^15 intervals), for the
    # same reason as the sew-smooth stream.
    yield _sew({"name": "additive_sin"}, 1.0, 1e-9, 1.0 - math.cos(1.0))
    eps_seq, t_seq = _weyls(rng, 2)
    while True:
        cycle = []
        for j in range(9):
            model, driver, integrand = _young_model(rng, eps_seq.uniform(0.5, 1.0))
            T, tol = t_seq.uniform(0.5, 1.0), _TOLS[j % 2]
            cycle.append(_sew(model, T, tol, _YOUNG_INTEGRALS[driver, integrand](T)))
        for tol in (1e-8, 1e-9, 1e-8, 1e-9, 1e-8):
            T = t_seq.uniform(0.5, 1.0)
            cycle.append(_sew({"name": "additive_sin"}, T, tol, 1.0 - math.cos(T)))
        for _ in range(6):
            model, _, _ = _young_model(rng, rng.uniform(0.5, 1.0))
            cfg = {"experiment": "certify", "model": model, "mode": "three_point",
                   "samples": 48, "seed": rng.randrange(1000)}
            cycle.append(Op("three_point", cfg, "exit"))
        rng.shuffle(cycle)
        yield from cycle


# ---------------------------------------------------------------------------
# knit-holonomy: flat-connection knitting, holonomy and four-point certification

_VARIANTS = ("exact-segment", "midpoint")
_SEGMENTS = (32, 64, 128)
#: sample seeds in [0, 1000) on which strong_four_point certification of the
#: midpoint connection raises ValueError from _check_sample_spread at the seed
#: commit (the annulus gap products span less than four decades).  The
#: workload holds only ops that succeed, so its stream skips these seeds;
#: run.py runs FOUR_POINT_PROBE_SEEDS of them once per run, outside the
#: measured ops, and prints how many still raise.
FOUR_POINT_RAISES = frozenset((
    55, 60, 61, 96, 110, 174, 180, 208, 217, 247, 285, 366, 373, 426, 447, 504, 524,
    531, 555, 568, 586, 590, 636, 642, 660, 745, 774, 792, 805, 809, 845, 884, 929,
    937, 956, 962, 974, 990))
FOUR_POINT_PROBE_SEEDS = (55, 60, 61, 96, 110)
_FOUR_POINT_SEEDS = tuple(s for s in range(1000) if s not in FOUR_POINT_RAISES)


def _holonomy(variant: str, path: dict, ref: float, tol: float) -> Op:
    cfg = {"experiment": "holonomy", "model": {"name": "flat_connection", "variant": variant},
           "path": path, "tol": tol, "max_level": 20, "seed": 0}
    return Op(f"holonomy_{path['kind']}", cfg, "value", ref, tol)


def _knit_stream(rng: random.Random) -> Iterator[Op]:
    ry_seq, r_seq, turns_seq, seg_seq = _weyls(rng, 4)
    while True:
        cycle = []
        for variant in _VARIANTS:
            for j, kmax in enumerate((32, 64, 128, 128)):
                cfg = {"experiment": "knit",
                       "model": {"name": "flat_connection", "variant": variant},
                       "homotopy": {"kind": "semicircle_to_ellipse",
                                    "ry": ry_seq.uniform(1.2, 2.0)},
                       "ks": [k for k in (8, 16, 32, 64, 128) if k <= kmax],
                       "class_separation": j % 2 == 0, "tol": 1e-8, "seed": 0}
                cycle.append(Op("knit", cfg, "knit"))
        for variant in _VARIANTS:
            for tol in _TOLS:
                turns = turns_seq.pick((1.0, 2.0, -1.0))
                path = {"kind": "circle", "radius": r_seq.uniform(0.8, 2.0), "turns": turns,
                        "segments": seg_seq.pick(_SEGMENTS)}
                cycle.append(_holonomy(variant, path, TAU * turns, tol))
            cycle.append(_holonomy(variant, {"kind": "square"}, 0.0, _TOLS[0]))
            sign = rng.choice((1.0, -1.0))
            path = {"kind": "arc", "radius": r_seq.uniform(0.8, 2.0), "angle0": 0.0,
                    "angle1": sign * math.pi, "segments": seg_seq.pick(_SEGMENTS)}
            cycle.append(_holonomy(variant, path, sign * math.pi, _TOLS[1]))
        for _ in range(4):
            cycle.append(four_point_op(rng.choice(_FOUR_POINT_SEEDS)))
        rng.shuffle(cycle)
        yield from cycle


def four_point_op(sample_seed: int) -> Op:
    cfg = {"experiment": "certify", "model": {"name": "flat_connection", "variant": "midpoint"},
           "mode": "strong_four_point", "samples": 48, "seed": sample_seed}
    return Op("strong_four_point", cfg, "exit")


@dataclass(frozen=True)
class Workload:
    stream: Callable[[random.Random], Iterator[Op]]
    #: roughly the ops per second at the seed commit on a 2-vCPU x86
    #: VM; seconds x rate is the nominal op count, which fixes the tail
    #: percentile, the config pool of a timed run and the ops of a traced run
    nominal_rate: float


WORKLOADS = {
    "sew-smooth": Workload(_smooth_stream, 5.0),
    "sew-rough": Workload(_rough_stream, 10.0),
    "knit-holonomy": Workload(_knit_stream, 18.0),
}


def generate(workload: str, seed: int, n: int) -> list[Op]:
    """The first n ops of the workload's stream for this seed."""
    return list(islice(WORKLOADS[workload].stream(random.Random(seed)), n))


def write_config(op: Op, index: int, out_dir: Path) -> Path:
    """Write the op's config as JSON, with its CSV output next to it; return its path."""
    path = out_dir / f"op{index:05d}.json"
    path.write_text(json.dumps(dict(op.config, output=str(path.with_suffix(".csv")))))
    return path
