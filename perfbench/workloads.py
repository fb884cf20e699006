"""Inputs, operations and correctness gates of the three workloads.

Every workload is closed-loop: one operation at a time, the next starting
when the previous one returns. Each operation builds its own MotionPath,
because ``cached_regularize`` and ``RegularizedCurve._cache`` are keyed on
object identity and a shared path would turn later operations into cache
hits that no real caller gets.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

# operations call through the module objects (motion.build_path, not a
# name imported here), so the traced run's rebinding reaches them too
from geophase import cli, motion, phases
from geophase import Radii, is_simple, regularize
from geophase.phases import METHOD_NAMES, Tolerances

PI = math.pi
TWO_PI = 2.0 * PI

RANDOM_POOL = 32            # accepted motions generated per run
GALLERY_METHODS = ("line", "area", "curvature", "monopole", "berry")
GALLERY_RADII = ((2.0, 1.0), (1.0, 1.0))
BETA0_IV = PI / 3.0

# name -> (delta_d factor of a/b, A_plus, 2 pi I_plus, delta_g, winding n);
# the closed forms of the stock motions, radius-free except delta_d.
FROZEN = {
    "i":   (2.0 * PI,  4.0 * PI, 2.0 * PI,  2.0 * PI,  1),
    "ii":  (2.0 * PI,  2.0 * PI, 2.0 * PI,  0.0,       1),
    "iii": (2.0 * PI,  0.0,      2.0 * PI, -2.0 * PI,  1),
    "iv":  (2.0 * PI,  3.0 * PI, 2.0 * PI,  PI,        1),
    "v":   (0.0,       0.5 * PI, 0.0,       0.5 * PI,  0),
    "vi":  (-2.0 * PI, 0.5 * PI, 2.0 * PI, -1.5 * PI, -1),
}
FROZEN_TOL = 1e-3


def random_motion_desc(rng) -> dict:
    """One closed motion in build_path's description format.

    Same distribution as ``random_closed_motion`` in the acceptance tests:
    3 to 8 affine segments, one full azimuthal lap in a random direction,
    tilt kept in [0.35, pi - 0.35] so the curve stays clear of the poles,
    random radii.
    """
    n_seg = int(rng.integers(3, 9))
    widths = rng.dirichlet(np.ones(n_seg)) * 0.5 + 0.5 / n_seg
    knots = np.concatenate([[0.0], np.cumsum(widths)])
    knots = knots / knots[-1]
    direction = 1.0 if rng.random() < 0.5 else -1.0
    fracs = rng.dirichlet(np.ones(n_seg)) * 0.5 + 0.5 / n_seg
    theta_vals = np.concatenate([[0.0], np.cumsum(direction * TWO_PI * fracs)])
    beta_vals = rng.uniform(0.35, PI - 0.35, n_seg + 1)
    beta_vals[-1] = beta_vals[0]
    segments = []
    for i in range(n_seg):
        t0, t1 = float(knots[i]), float(knots[i + 1])
        segments.append({
            "t0": t0, "t1": t1,
            "theta": {"kind": "affine", "start": float(theta_vals[i]),
                      "slope": float((theta_vals[i + 1] - theta_vals[i]) / (t1 - t0))},
            "beta": {"kind": "affine", "start": float(beta_vals[i]),
                     "slope": float((beta_vals[i + 1] - beta_vals[i]) / (t1 - t0))},
        })
    radii = {"a": float(rng.uniform(0.6, 2.5)), "b": float(rng.uniform(0.6, 2.5))}
    return {"radii": radii, "segments": segments}


def random_pool(seed: int, size: int = RANDOM_POOL) -> list:
    """Accepted motion descriptions; non-simple curves are rejected, as in
    the acceptance test."""
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < size:
        desc = random_motion_desc(rng)
        if is_simple(regularize(motion.build_path(desc))):
            pool.append(desc)
    return pool


def gallery_cycle() -> list:
    """The twelve (motion, radii) operations of one gallery cycle."""
    return [(name, radii) for radii in GALLERY_RADII for name in FROZEN]


def cli_cycle() -> list:
    """argv lists of one cli-cold cycle: six line-only runs, then vi with
    every method."""
    runs = []
    for name in FROZEN:
        argv = ["compute", "--example", name, "--radii", "2,1",
                "--methods", "line", "--format", "json"]
        if name == "iv":
            argv += ["--beta0", repr(BETA0_IV)]
        runs.append(argv)
    runs.append(["compute", "--example", "vi", "--radii", "2,1",
                 "--methods", ",".join(METHOD_NAMES), "--format", "json"])
    return runs


def shuffled_cycles(rng, cycle):
    """The cycle's ops forever, in a fresh seeded order each time round."""
    while True:
        for k in rng.permutation(len(cycle)):
            yield cycle[k]


def _example_name(argv) -> str:
    return argv[argv.index("--example") + 1]


def is_all_methods(argv) -> bool:
    return argv[argv.index("--methods") + 1] != "line"


# ---------------------------------------------------------------------------
# correctness gates: each returns a list of failure reasons, empty when ok


def _route_tolerance(name: str, tol: Tolerances) -> float:
    return tol.oracle if name == "oracle" else tol.analytic


def check_against_line(values: dict, methods, tol: Tolerances) -> list:
    """Every route within the package's own tolerance of the line route."""
    problems = []
    line = values.get("line")
    if line is None or not math.isfinite(line):
        return [f"line route missing or not finite: {line!r}"]
    for name in methods:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"{name}: missing or not finite: {value!r}")
            continue
        diff = abs(value - line)
        if diff > _route_tolerance(name, tol):
            problems.append(f"{name} differs from line by {diff:.3e}")
    return problems


def check_against_frozen(values: dict, frozen_delta_g: float) -> list:
    problems = []
    for name, value in values.items():
        if value is None or not math.isfinite(value) \
                or abs(value - frozen_delta_g) > FROZEN_TOL:
            problems.append(f"{name} = {value!r}, closed form {frozen_delta_g!r}")
    return problems


def check_gallery_result(result, name: str, radii, shift: float = 0.0) -> list:
    """Routes, delta_d, winding and region against the closed forms; shift
    moves the delta_g reference (the self-check's deliberately wrong one)."""
    swept, a_plus, two_pi_ip, delta_g, winding = FROZEN[name]
    problems = check_against_frozen(dict(result.delta_g_by_method), delta_g + shift)
    missing = set(GALLERY_METHODS) - set(result.delta_g_by_method)
    if missing:
        problems.append(f"routes missing: {sorted(missing)}")
    if abs(result.delta_d - swept * radii[0] / radii[1]) > FROZEN_TOL:
        problems.append(f"delta_d = {result.delta_d!r}")
    if result.n != winding:
        problems.append(f"winding {result.n}, closed form {winding}")
    region = result.region
    if region is None or abs(region.A_plus - a_plus) > FROZEN_TOL \
            or abs(TWO_PI * region.I_plus - two_pi_ip) > FROZEN_TOL:
        problems.append(f"region {region!r} misses A_plus={a_plus!r}, "
                        f"2 pi I_plus={two_pi_ip!r}")
    return problems


def check_cli_report(code: int, stdout: str, argv, validator, tol: Tolerances,
                     shift: float = 0.0) -> list:
    """Exit code 0, a report valid under the shipped schema, and values
    that pass the gates."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = [f"schema: {err.message}" for err in validator.iter_errors(doc)]
    if problems:
        return problems
    methods = doc["input"]["methods"]
    values = {name: doc["delta_g"].get(name, {}).get("value") for name in methods}
    problems = check_against_line(values, methods, tol)
    delta_g = FROZEN[_example_name(argv)][3] + shift
    problems += check_against_frozen({"line": values.get("line")}, delta_g)
    return problems


# ---------------------------------------------------------------------------
# workloads


class RandomCrosscheck:
    """Seeded random closed motions, all seven routes at their defaults."""

    name = "random-crosscheck"

    def __init__(self, seed: int):
        self.pool = random_pool(seed)
        self.tol = Tolerances()

    def inputs(self):
        while True:
            yield from self.pool

    def run(self, desc):
        return phases.total_rotation(motion.build_path(desc), methods=METHOD_NAMES)

    def check(self, result, desc, shift: float = 0.0) -> list:
        values = dict(result.delta_g_by_method)
        values["line"] += shift
        return check_against_line(values, METHOD_NAMES, self.tol)


class GalleryClamped:
    """The six stock motions at radii 2,1 and 1,1, five analytic routes."""

    name = "gallery-clamped"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.cycle = gallery_cycle()

    def inputs(self):
        return shuffled_cycles(self.rng, self.cycle)

    def run(self, op):
        name, (a, b) = op
        beta0 = BETA0_IV if name == "iv" else None
        path = motion.example_gallery(name, beta0=beta0, radii=Radii(a, b))
        return phases.total_rotation(path, methods=GALLERY_METHODS)

    def check(self, result, op, shift: float = 0.0) -> list:
        name, radii = op
        return check_gallery_result(result, name, radii, shift)


class CliCold:
    """Cold ``geophase compute`` subprocesses, one after another.

    ``run`` starts a fresh interpreter with this process's environment,
    which run.py pins; ``run_in_process`` calls cli.main with stdout
    captured, which is how the traced run reaches the CLI layer.
    """

    name = "cli-cold"

    def __init__(self, seed: int):
        import jsonschema   # only this workload's set-up pays for it

        self.rng = np.random.default_rng(seed)
        self.cycle = cli_cycle()
        self.tol = Tolerances()
        with open(os.path.join("src", "geophase", "data", "report_schema.json"),
                  encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))

    def inputs(self):
        return shuffled_cycles(self.rng, self.cycle)

    def run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "geophase.cli", *argv],
                              capture_output=True, text=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    def run_in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, result, argv, shift: float = 0.0) -> list:
        return check_cli_report(*result, argv, self.validator, self.tol, shift)


WORKLOADS = {w.name: w for w in (RandomCrosscheck, GalleryClamped, CliCold)}

