"""Command line surface.

Subcommands:

* ``compute``: run ``total_rotation`` on a motion and emit its result as
  a report (text, json, or csv).
* ``trace``: emit the sampled regularized curve as CSV (plot-ready).
* ``foucault``: pendulum drift for a waypoint track file or a stationary
  latitude.
* ``examples``: list the stock motions.

Exit codes: 0 success, 2 validation error, 3 method disagreement,
4 I/O error. Output is deterministic: every route is a fixed computation
on the motion, with no random draw to seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .errors import GeophaseError, MethodDisagreement
from .motion import (DEFAULT_EPSILON, GALLERY_NAMES, MotionPath, Radii,
                     build_path, example_gallery, topology_report)
from .phases import DEFAULT_STEPS, METHOD_NAMES, Tolerances, total_rotation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_IO = 4

_EXAMPLE_BLURBS = {
    "i": "full lap with the rim laid flat against the fixed disc (tilt 0)",
    "ii": "full lap standing upright (tilt pi/2, equator trace)",
    "iii": "full lap flipped flat the other way (tilt pi)",
    "iv": "full lap at constant tilt beta0 (pass --beta0)",
    "v": "quarter lap laid flat, rise upright, roll back; net winding 0",
    "vi": "three-quarter lap backward laid flat, rise, return; net winding -1",
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _add_motion_flags(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--example", choices=GALLERY_NAMES,
                     help="use a stock motion from the gallery")
    src.add_argument("--motion", metavar="FILE",
                     help="load a motion description (JSON) from FILE")
    p.add_argument("--beta0", type=float, default=None,
                   help="constant tilt for example iv (radians)")
    p.add_argument("--radii", default="1,1", metavar="A,B",
                   help="fixed and rolling disc radii (default 1,1)")


def _parse_radii(text: str) -> Radii:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--radii expects two comma-separated numbers, got {text!r}")
    return Radii(float(parts[0]), float(parts[1]))


def _load_motion(args) -> tuple[MotionPath, dict]:
    """The motion, and its source and segment count for the report."""
    radii = _parse_radii(args.radii)
    if args.example is not None:
        path = example_gallery(args.example, beta0=args.beta0, radii=radii)
        label = f"example {args.example}"
        if args.beta0 is not None:
            label += f" (beta0={_fmt(args.beta0)})"
        # each stock segment is a single affine piece
        return path, {"source": label, "segments": len(path.theta.rates)}
    if args.beta0 is not None:
        raise ValueError("--beta0 only applies to --example iv, not to --motion")
    text = _read_text(args.motion)
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.motion}: invalid JSON: {exc}") from exc
    if isinstance(desc, dict):
        desc.setdefault("radii", {"a": radii.a, "b": radii.b})
    return build_path(desc), {"source": f"file {args.motion}",
                              "segments": len(desc["segments"])}


class _IOFailure(Exception):
    pass


def _read_text(name: str) -> str:
    """The contents of the file name; _IOFailure if it cannot be read."""
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {name}: {exc}") from exc


# ---------------------------------------------------------------------------
# compute


def _route_record(result, name: str) -> dict:
    if name in result.errors:
        exc = result.errors[name]
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"value": result.delta_g_by_method[name]}


def _report(result, path: MotionPath, source: dict, args, methods) -> dict:
    rr = result.region
    region = None if rr is None else {
        "I_plus": rr.I_plus, "I_minus": rr.I_minus,
        "A_plus": rr.A_plus, "A_minus": rr.A_minus}
    return {
        "input": {
            **source,
            "radii": {"a": path.radii.a, "b": path.radii.b},
            "epsilon": args.epsilon,
            "beta0": args.beta0,
            "methods": list(methods),
            "tolerances": asdict(Tolerances()),
            "steps": args.steps,
            "samples": args.samples,
        },
        "n": result.n,
        "closed": topology_report(path).closed,
        "delta_d": result.delta_d,
        "delta_g": {name: _route_record(result, name) for name in METHOD_NAMES
                    if name in result.delta_g_by_method or name in result.errors},
        "delta_total": result.delta_total,
        "region": region,
        "discrepancies": list(result.discrepancies),
        "max_discrepancy": result.max_discrepancy,
        "warnings": list(result.warnings),
    }


def run_compute(args) -> int:
    path, source = _load_motion(args)
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    if not methods:
        raise ValueError(f"--methods names no method; choose from {METHOD_NAMES}")
    disagreement = None
    try:
        result = total_rotation(
            path, methods, eps=args.epsilon, baumkuchen_n=args.samples,
            oracle_steps=args.steps)
    except MethodDisagreement as exc:
        result, disagreement = exc.result, exc

    _emit_report(_report(result, path, source, args, methods), args.format)
    if disagreement is not None:
        print(f"error: MethodDisagreement: {disagreement}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _finite_or_null(x):
    """x with every non-finite float replaced by None: JSON has no NaN."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {key: _finite_or_null(value) for key, value in x.items()}
    if isinstance(x, list):
        return [_finite_or_null(value) for value in x]
    return x


def _emit_report(doc, fmt: str):
    if fmt == "json":
        print(json.dumps(_finite_or_null(doc), sort_keys=True, indent=2,
                         allow_nan=False))
        return
    if fmt == "csv":
        lines = ["quantity,method,value,error"]
        lines.append(f"n,,{doc['n']},")
        lines.append(f"delta_d,,{_fmt(doc['delta_d'])},")
        for name, rec in doc["delta_g"].items():
            if "value" in rec:
                lines.append(f"delta_g,{name},{_fmt(rec['value'])},")
            else:
                lines.append(f"delta_g,{name},,{rec['error']}")
        lines.append(f"delta_total,,{_fmt(doc['delta_total'])},")
        if doc["region"] is not None:
            for key in ("I_plus", "I_minus", "A_plus", "A_minus"):
                val = doc["region"][key]
                val = _fmt(val) if isinstance(val, float) else str(val)
                lines.append(f"{key},,{val},")
        print("\n".join(lines))
        return

    inp = doc["input"]
    print(f"motion: {inp['source']}   radii: a={_fmt(inp['radii']['a'])} "
          f"b={_fmt(inp['radii']['b'])}   epsilon={_fmt(inp['epsilon'])}")
    print(f"windings n: {doc['n']}   closed: {'yes' if doc['closed'] else 'no'}")
    print(f"delta_d     {_fmt(doc['delta_d'])}")
    width = max(len(m) for m in doc["delta_g"])
    for name, rec in doc["delta_g"].items():
        if "value" in rec:
            print(f"delta_g     {name:<{width}}  {_fmt(rec['value'])}")
        else:
            print(f"delta_g     {name:<{width}}  failed: {rec['error']}: {rec['message']}")
    print(f"delta_total {_fmt(doc['delta_total'])}")
    if doc["region"] is not None:
        r = doc["region"]
        print(f"region: I+={r['I_plus']} I-={r['I_minus']} "
              f"A+={_fmt(r['A_plus'])} A-={_fmt(r['A_minus'])}")
    if doc["max_discrepancy"] is not None:
        print(f"max pairwise discrepancy: {doc['max_discrepancy']:.3e}")
    for w in doc["warnings"]:
        print(f"warning: {w}")


# ---------------------------------------------------------------------------
# trace


def run_trace(args) -> int:
    import numpy as np

    from .sphere import regularize

    if args.samples is not None and args.samples < 0:
        raise ValueError(f"--samples must not be negative, got {args.samples}")
    path, _ = _load_motion(args)
    curve = regularize(path, eps=args.epsilon)
    m = len(curve)
    if args.samples is None or args.samples >= m:
        idx = np.arange(m)
    else:
        idx = np.round(np.linspace(0, m - 1, args.samples)).astype(int)
    print("t,s,gx,gy,gz,phi,kappa_g")
    for k in idx:
        g = curve.g[k]
        print(",".join(_fmt(v) for v in
                       (curve.t[k], curve.s[k], g[0], g[1], g[2],
                        curve.phi[k], curve.kappa_g[k])))
    return EXIT_OK


# ---------------------------------------------------------------------------
# foucault


def run_foucault(args) -> int:
    import numpy as np

    from .foucault import RouteTrack, ingest_track, route_foucault

    if (args.track is None) == (args.lat is None):
        raise ValueError("give exactly one of --track FILE or --lat DEG")
    if args.track is not None:
        track = ingest_track(_read_text(args.track))
        label = f"track {args.track}"
    else:
        phi = float(np.radians(args.lat))
        track = RouteTrack(t_days=np.array([0.0, args.days]),
                           lon=np.zeros(2), lat=np.full(2, phi))
        label = f"stationary at latitude {_fmt(args.lat)} deg for {_fmt(args.days)} days"
    result = route_foucault(track)
    degrees = math.degrees(result.delta_fou)
    if not math.isfinite(degrees):
        raise ValueError("the drift in degrees overflows the float range")

    if args.format == "json":
        doc = {"input": label,
               "delta_fou": result.delta_fou,
               "delta_fou_deg": degrees,
               "legs": [float(x) for x in result.accumulation]}
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif args.format == "csv":
        print("leg,drift")
        for i, x in enumerate(result.accumulation):
            print(f"{i},{_fmt(x)}")
        print(f"total,{_fmt(result.delta_fou)}")
    else:
        print(f"route: {label}")
        print(f"swing-plane drift: {_fmt(result.delta_fou)} rad "
              f"({_fmt(degrees)} deg)")
    return EXIT_OK


def run_examples(_args) -> int:
    for name in GALLERY_NAMES:
        print(f"{name:<4} {_EXAMPLE_BLURBS[name]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geophase",
        description="rotation-angle decomposition for a disc rolling on a disc")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="run phase methods and emit a report")
    _add_motion_flags(c)
    c.add_argument("--methods", default="line,area",
                   help="comma-separated subset of " + ",".join(METHOD_NAMES))
    c.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="pole clamp parameter (default pi/16)")
    c.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help="oracle rate evaluations per radian of the body's "
                        "rotation bound, three per Magnus interval")
    c.add_argument("--samples", type=int, default=1_000_000,
                   help="mesh size for the bounds method")
    c.add_argument("--format", choices=("text", "json", "csv"), default="text")
    c.set_defaults(func=run_compute)

    t = sub.add_parser("trace", help="emit the regularized curve as CSV")
    _add_motion_flags(t)
    t.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    t.add_argument("--samples", type=int, default=None,
                   help="number of rows (default: every sample)")
    t.set_defaults(func=run_trace)

    f = sub.add_parser("foucault", help="pendulum drift along a route")
    f.add_argument("--track", metavar="FILE", default=None,
                   help="waypoint CSV (t_days,lon_deg,lat_deg)")
    f.add_argument("--lat", type=float, default=None,
                   help="stationary latitude in degrees")
    f.add_argument("--days", type=float, default=1.0,
                   help="duration for --lat (sidereal days, default 1)")
    f.add_argument("--format", choices=("text", "json", "csv"), default="text")
    f.set_defaults(func=run_foucault)

    e = sub.add_parser("examples", help="list the stock motions")
    e.set_defaults(func=run_examples)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error it raises maps to an exit code here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GeophaseError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
