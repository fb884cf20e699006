"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import geophase
from geophase import GeophaseError, Tolerances, build_path
from geophase.cli import main
from geophase.data import load_report_schema

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples_subcommand_lists_the_gallery(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("i", "ii", "iii", "iv", "v", "vi"):
        assert f"{name}:" in out or f"{name} " in out


def test_compute_text_report(capsys):
    code, out, _ = run(capsys, "compute", "--example", "iv",
                       "--beta0", "1.0471975512", "--radii", "1,1",
                       "--methods", "line,area")
    assert code == 0
    assert "delta_d" in out and "delta_g" in out and "delta_total" in out
    assert f"{PI:.6f}"[:6] in out       # the line value is pi


def test_compute_all_methods_agree(capsys):
    code, out, _ = run(capsys, "compute", "--example", "vi", "--radii", "1,1",
                       "--methods",
                       "line,baumkuchen,area,curvature,monopole,berry,oracle",
                       "--steps", "20000", "--samples", "100000",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for method, entry in doc["delta_g"].items():
        assert entry["value"] == pytest.approx(-1.5 * PI, abs=1e-3), method
    assert doc["delta_total"] == pytest.approx(-3.5 * PI, abs=1e-9)
    assert doc["n"] == -1
    assert doc["max_discrepancy"] < 1e-3


def test_compute_output_is_deterministic(capsys):
    argv = ("compute", "--example", "vi", "--methods",
            "line,baumkuchen,area,curvature,monopole,berry,oracle",
            "--format", "json")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


def test_json_report_validates_against_the_shipped_schema(capsys):
    code, out, _ = run(capsys, "compute", "--example", "v",
                       "--methods", "line,area,oracle", "--steps", "20000",
                       "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_report_schema())


def test_json_report_is_deterministic(capsys):
    args = ("compute", "--example", "ii", "--methods", "line,area",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_csv_report_round_trips(capsys):
    code, out, _ = run(capsys, "compute", "--example", "v", "--format", "csv")
    assert code == 0
    rows = {(r["quantity"], r["method"]): r
            for r in csv.DictReader(io.StringIO(out))}
    assert float(rows[("delta_g", "line")]["value"]) == pytest.approx(PI / 2.0)
    assert int(rows[("I_minus", "")]["value"]) == 2


def test_compute_rejects_unknown_method(capsys):
    code, _, err = run(capsys, "compute", "--example", "ii",
                       "--methods", "line,psychic")
    assert code == 2
    assert "psychic" in err


def test_compute_rejects_bad_radii(capsys):
    code, _, err = run(capsys, "compute", "--example", "ii",
                       "--radii", "1,0")
    assert code == 2
    assert "radii" in err or "radius" in err


def test_compute_requires_beta0_for_the_parameterized_example(capsys):
    code, _, err = run(capsys, "compute", "--example", "iv")
    assert code == 2
    assert "beta0" in err


def test_compute_reports_broken_motion_files(tmp_path, capsys):
    bad = {"radii": {"a": 1.0, "b": 1.0},
           "segments": [
               {"t0": 0.0, "t1": 0.4,
                "theta": {"kind": "affine", "start": 0.0, "slope": 2 * PI},
                "beta": {"kind": "const", "value": PI / 2.0}},
               {"t0": 0.6, "t1": 1.0,
                "theta": {"kind": "const", "value": 2 * PI},
                "beta": {"kind": "const", "value": PI / 2.0}}]}
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(bad))
    code, _, err = run(capsys, "compute", "--motion", str(target))
    assert code == 2
    assert "GapOrOverlap" in err


def test_compute_reports_unreadable_files(capsys):
    code, _, err = run(capsys, "compute", "--motion", "/no/such/file.json")
    assert code == 4
    assert "cannot read" in err


def test_compute_motion_file_happy_path(tmp_path, capsys):
    desc = {"radii": {"a": 2.0, "b": 1.0},
            "segments": [
                {"t0": 0.0, "t1": 1.0,
                 "theta": {"kind": "affine", "start": 0.0, "slope": 2 * PI},
                 "beta": {"kind": "const", "value": PI / 2.0}}]}
    target = tmp_path / "motion.json"
    target.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "compute", "--motion", str(target),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_d"] == pytest.approx(4.0 * PI)
    assert doc["delta_g"]["line"]["value"] == pytest.approx(0.0, abs=1e-12)


def test_method_failure_is_reported_not_fatal(tmp_path, capsys):
    # two azimuthal laps with a tilt tent self-intersect once; the area
    # route refuses but the report survives with the error recorded
    desc = {"radii": {"a": 1.0, "b": 1.0},
            "segments": [
                {"t0": 0.0, "t1": 0.5,
                 "theta": {"kind": "affine", "start": 0.0, "slope": 4 * PI},
                 "beta": {"kind": "affine", "start": PI / 2.0, "slope": 1.0}},
                {"t0": 0.5, "t1": 1.0,
                 "theta": {"kind": "affine", "start": 2 * PI, "slope": 4 * PI},
                 "beta": {"kind": "affine", "start": PI / 2.0 + 0.5,
                          "slope": -1.0}}]}
    target = tmp_path / "spiral.json"
    target.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "compute", "--motion", str(target),
                       "--methods", "line,area", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "value" in doc["delta_g"]["line"]
    assert doc["delta_g"]["area"]["error"] == "CurveNotSimple"


def test_report_states_the_radii_the_motion_file_supplies(tmp_path, capsys):
    desc = {"radii": {"a": 2.0, "b": 1.0},
            "segments": [
                {"t0": 0.0, "t1": 1.0,
                 "theta": {"kind": "affine", "start": 0.0, "slope": 2 * PI},
                 "beta": {"kind": "const", "value": PI / 2.0}}]}
    target = tmp_path / "motion.json"
    target.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "compute", "--motion", str(target),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["radii"] == {"a": 2.0, "b": 1.0}
    assert doc["delta_d"] == pytest.approx(4.0 * PI)


def test_report_states_the_sample_counts(tmp_path, capsys):
    # two laps under a tilt tent cross themselves: the area route fails and
    # the report has no region, so only the input block says how it ran
    desc = {"radii": {"a": 1.0, "b": 1.0},
            "segments": [
                {"t0": 0.0, "t1": 0.5,
                 "theta": {"kind": "affine", "start": 0.0, "slope": 4 * PI},
                 "beta": {"kind": "affine", "start": PI / 2.0, "slope": 1.0}},
                {"t0": 0.5, "t1": 1.0,
                 "theta": {"kind": "affine", "start": 2 * PI, "slope": 4 * PI},
                 "beta": {"kind": "affine", "start": PI / 2.0 + 0.5,
                          "slope": -1.0}}]}
    target = tmp_path / "spiral.json"
    target.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "compute", "--motion", str(target),
                       "--methods", "line,area", "--steps", "20000",
                       "--samples", "50000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_report_schema())
    assert doc["region"] is None
    assert doc["delta_g"]["area"]["error"] == "CurveNotSimple"
    inp = doc["input"]
    assert (inp["steps"], inp["samples"]) == (20000, 50000)

    code, out, _ = run(capsys, "compute", "--example", "ii", "--format", "json")
    assert code == 0
    inp = json.loads(out)["input"]
    assert (inp["steps"], inp["samples"]) == (4000, 1_000_000)
    # the report states the inputs the run used and nothing else
    assert set(inp) == {"source", "radii", "epsilon", "beta0", "methods",
                        "tolerances", "segments", "steps", "samples"}
    assert set(inp["tolerances"]) == {"analytic", "oracle"}


def test_motion_file_that_is_not_an_object_is_a_validation_error(tmp_path,
                                                                  capsys):
    target = tmp_path / "list.json"
    target.write_text("[1, 2]")
    code, _, err = run(capsys, "compute", "--motion", str(target))
    assert code == 2
    assert "ValueError" in err and "object" in err


def test_line_route_always_anchors_the_report(capsys):
    code, out, _ = run(capsys, "compute", "--example", "vi",
                       "--methods", "curvature", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["methods"] == ["curvature"]
    assert set(doc["delta_g"]) == {"line", "curvature"}
    assert doc["delta_total"] == pytest.approx(
        doc["delta_d"] + doc["delta_g"]["line"]["value"], abs=0.0)
    assert [(r["first"], r["second"]) for r in doc["discrepancies"]] == [
        ("line", "curvature")]


# one lap under a tilt tent, pi/3 up to pi/3 + 2/3 and back
TENT_DESC = {"radii": {"a": 1.0, "b": 1.0},
             "segments": [
                 {"t0": 0.0, "t1": 0.5,
                  "theta": {"kind": "affine", "start": 0.0, "slope": 2 * PI},
                  "beta": {"kind": "affine", "start": PI / 3.0,
                           "slope": 4.0 / 3.0}},
                 {"t0": 0.5, "t1": 1.0,
                  "theta": {"kind": "affine", "start": PI, "slope": 2 * PI},
                  "beta": {"kind": "affine", "start": PI / 3.0 + 2.0 / 3.0,
                           "slope": -4.0 / 3.0}}]}


def test_disagreement_exits_3_after_printing_the_report(tmp_path, capsys):
    # a one-interval mesh leaves the bounds route 4.352e-2 off the line
    target = tmp_path / "tent.json"
    target.write_text(json.dumps(TENT_DESC))
    code, out, err = run(capsys, "compute", "--motion", str(target),
                         "--methods", "line,baumkuchen", "--samples", "1",
                         "--format", "json")
    assert code == 3
    doc = json.loads(out)
    jsonschema.validate(doc, load_report_schema())
    bad = [row for row in doc["discrepancies"] if not row["ok"]]
    assert [(r["first"], r["second"]) for r in bad] == [("line", "baumkuchen")]
    assert bad[0]["difference"] == pytest.approx(4.352e-2, abs=1e-5)
    assert bad[0]["tolerance"] == 1e-4
    assert "MethodDisagreement" in err


def test_a_nan_route_fails_reconciliation_and_exits_3(capsys, monkeypatch):
    # NaN compares False both ways, so the checks are written to fail on it
    monkeypatch.setattr(geophase.phases, "geometric_phase_area",
                        lambda path, eps: float("nan"))
    code, out, err = run(capsys, "compute", "--example", "ii",
                         "--methods", "line,area,curvature", "--format", "json")
    assert code == 3
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["delta_g"]["area"]["value"] is None
    assert doc["max_discrepancy"] is None
    assert [(r["first"], r["second"]) for r in doc["discrepancies"]
            if not r["ok"]] == [("line", "area"), ("area", "curvature")]
    assert [r["difference"] for r in doc["discrepancies"]][::2] == [None, None]
    jsonschema.validate(doc, load_report_schema())
    assert "MethodDisagreement: line vs area differ by nan" in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_at_huge_equal_radii_exits_0(capsys):
    # the constraints are solved in units of the rolling radius, so no b^2
    # overflows; the routes do not depend on the radius scale
    code, out, err = run(capsys, "compute", "--example", "ii",
                         "--radii", "1e200,1e200", "--methods", "line,oracle",
                         "--format", "json")
    assert code == 0, err
    doc = json.loads(out, parse_constant=_refuse_constant)
    oracle = doc["delta_g"]["oracle"]["value"]
    assert abs(oracle - doc["delta_g"]["line"]["value"]) <= Tolerances().oracle


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radii_whose_ratio_overflows_exit_2(capsys):
    code, out, err = run(capsys, "compute", "--example", "ii",
                         "--radii", "1e308,1e-308", "--methods", "line,oracle",
                         "--format", "json")
    assert code == 2
    assert "ValueError" in err and "ratio a/b" in err
    assert "Traceback" not in err and out == ""


def test_trace_equator_samples(capsys):
    code, out, _ = run(capsys, "trace", "--example", "ii", "--samples", "8")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    for row in rows:
        assert abs(float(row["gz"])) < 1e-12
        assert abs(float(row["kappa_g"])) < 1e-9


def test_trace_clamped_motion_stays_near_the_south_pole(capsys):
    code, out, _ = run(capsys, "trace", "--example", "i", "--samples", "64")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    eps = PI / 16.0
    for row in rows:
        g = [float(row[k]) for k in ("gx", "gy", "gz")]
        angle = math.acos(max(-1.0, min(1.0, -g[2])))
        assert angle <= eps + 1e-9


def test_trace_keeps_clear_of_the_poles(capsys):
    code, out, _ = run(capsys, "trace", "--example", "v", "--samples", "200")
    assert code == 0
    eps = PI / 16.0
    for row in csv.DictReader(io.StringIO(out)):
        gz = float(row["gz"])
        pole_distance = PI / 2.0 - math.asin(min(1.0, abs(gz)))
        assert pole_distance >= eps / 2.0 - 1e-9


def test_foucault_stationary(capsys):
    code, out, _ = run(capsys, "foucault", "--lat", "48.85", "--days", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    expected = 2 * PI * math.sin(math.radians(48.85))
    assert doc["delta_fou"] == pytest.approx(expected, abs=1e-12)


def test_foucault_track_file(tmp_path, capsys):
    target = tmp_path / "track.csv"
    target.write_text("t_days,lon_deg,lat_deg\n0,0,10\n0.5,180,20\n1,360,10\n")
    code, out, _ = run(capsys, "foucault", "--track", str(target),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["legs"]) == 2


def test_foucault_rejects_bad_latitudes(tmp_path, capsys):
    target = tmp_path / "track.csv"
    target.write_text("t_days,lon_deg,lat_deg\n0,0,95\n")
    code, _, err = run(capsys, "foucault", "--track", str(target))
    assert code == 2
    assert "LatitudeOutOfRange" in err


def _lap_desc(beta_value, slope=repr(2 * PI)):
    """One lap at constant tilt as JSON text; the numbers are spliced in
    verbatim so the file can hold JSON's null, NaN and Infinity."""
    return ('{"radii": {"a": 1.0, "b": 1.0}, "segments": [{"t0": 0.0, "t1": 1.0, '
            f'"theta": {{"kind": "affine", "start": 0.0, "slope": {slope}}}, '
            f'"beta": {{"kind": "const", "value": {beta_value}}}}}]}}')


def _sampled_lap_desc(schedule, t, values):
    """One lap with the named schedule sampled at (t, values), the other the
    plain lap's: theta at rate 2 pi, beta constant 1."""
    plain = {"theta": {"kind": "affine", "start": 0.0, "slope": 2 * PI},
             "beta": {"kind": "const", "value": 1.0}}
    plain[schedule] = {"kind": "samples", "t": t, "values": values}
    return {"radii": {"a": 1.0, "b": 1.0},
            "segments": [{"t0": 0.0, "t1": 1.0, **plain}]}


# theta overflows mid-lap and comes back: theta(1) = 0 is fine, but float
# spacing at the peak cannot tell a closed lap
_MID_LAP_OVERFLOW = _sampled_lap_desc("theta", [0.0, 0.5, 1.0], [0.0, 1e308, 0.0])
# knots a subnormal step apart: the first piece's slope is infinite
_SUBNORMAL_STEP = {
    name: _sampled_lap_desc(name, [0.0, 5e-324, 1.0], values)
    for name, values in (("theta", [0.0, 1.0, 2 * PI]), ("beta", [1.0, 1.2, 1.0]))}


@pytest.mark.parametrize("text,field", [
    (_lap_desc("null"), "beta value"),
    (_lap_desc("1.0", slope="Infinity"), "theta slope"),
    (_lap_desc("NaN"), "beta value"),
    (json.dumps(_SUBNORMAL_STEP["theta"]), "theta slope is inf"),
    (json.dumps(_SUBNORMAL_STEP["beta"]), "beta slope is inf"),
])
def test_non_finite_motion_numbers_exit_2(tmp_path, capsys, text, field):
    target = tmp_path / "motion.json"
    target.write_text(text)
    code, out, err = run(capsys, "compute", "--motion", str(target))
    assert code == 2
    assert "ValueError" in err and field in err
    assert "Traceback" not in err and out == ""


def test_nan_beta0_exits_2(capsys):
    code, out, err = run(capsys, "compute", "--example", "iv", "--beta0", "nan")
    assert code == 2
    assert "BetaOutOfRange" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,error", [
    (("--lat", "nan"), "LatitudeOutOfRange"),
    (("--lat", "45", "--days", "nan"), "NonMonotoneTime"),
    # a drift past the float range, in radians and, at 1e306, in degrees
    (("--lat", "45", "--days", "1e308", "--format", "json"), "ValueError"),
    (("--lat", "45", "--days", "1e306", "--format", "json"), "ValueError"),
])
def test_foucault_rejects_non_finite_flags(capsys, argv, error):
    code, out, err = run(capsys, "foucault", *argv)
    assert code == 2
    assert error in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("row,column", [("0.5,nan,20", 2), ("0.5,180,nan", 3)])
def test_foucault_track_with_non_finite_field_exits_2(tmp_path, capsys,
                                                      row, column):
    target = tmp_path / "track.csv"
    target.write_text(f"t_days,lon_deg,lat_deg\n0,0,10\n{row}\n1,360,10\n")
    code, out, err = run(capsys, "foucault", "--track", str(target))
    assert code == 2
    assert "ParseError" in err and f"line 3, column {column}" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv,bound", [
    (("--methods", "line,baumkuchen", "--samples", str(10**24)), "2**53"),
    (("--methods", "line,oracle", "--steps", str(10**11)), "MAX_PIECE_SAMPLES"),
    (("--methods", "line,oracle", "--steps", str(10**400)), "MAX_PIECE_SAMPLES"),
])
def test_mesh_and_oracle_sizes_past_their_caps_exit_2(capsys, monkeypatch,
                                                      argv, bound):
    # past 2**53 the mesh nodes k / N are no longer distinct floats; 10**11
    # steps would be hundreds of GiB of oracle interval arrays, which start
    # with np.repeat, so the cap must refuse them before that; 10**400 steps
    # are past the float range
    def refuse(*args, **kwargs):
        raise AssertionError("the interval arrays were allocated")

    monkeypatch.setattr(np, "repeat", refuse)
    code, out, err = run(capsys, "compute", "--example", "vi", *argv)
    assert code == 2
    assert "ValueError" in err and bound in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command", ["compute", "trace"])
def test_beta0_with_a_motion_file_exits_2(tmp_path, capsys, command):
    # the file fixes the tilt, so a --beta0 would be reported but not used
    target = tmp_path / "tent.json"
    target.write_text(json.dumps(TENT_DESC))
    code, out, err = run(capsys, command, "--motion", str(target),
                         "--beta0", "0.3")
    assert code == 2
    assert "ValueError" in err and "--beta0" in err
    assert "Traceback" not in err and out == ""


def test_negative_trace_samples_exit_2(capsys):
    code, out, err = run(capsys, "trace", "--example", "v", "--samples", "-3")
    assert code == 2
    assert "ValueError" in err and "--samples" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("code", [
    'import geophase, sys; print("scipy" in sys.modules)',
    'import sys; from geophase import cli; '
    'cli.main(["compute", "--example", "vi", '
    '"--methods", "line,area,curvature,berry,oracle"]); '
    'print("scipy" in sys.modules)',
], ids=["import", "compute"])
def test_a_fresh_interpreter_never_imports_scipy(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(geophase.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("methods", ["line", "line,area"])
@pytest.mark.parametrize("eps", ["0", "-1", "nan", repr(PI / 8.0), "0.5",
                                 "1e-200", "1e-300"])
def test_epsilon_outside_the_clamp_range_exits_2(capsys, eps, methods):
    code, out, err = run(capsys, "compute", "--example", "vi",
                         "--epsilon", eps, "--methods", methods)
    assert code == 2
    assert "EpsilonOutOfRange" in err
    assert "Traceback" not in err and out == ""


# the raw tilt of v and vi meets a tiny eps within 1e-14 of a piece end;
# the clamped curve still keeps off the poles, and every route either
# returns a value or records its GeophaseError
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps", ["1e-20", "1e-100"])
@pytest.mark.parametrize("name", ["v", "vi"])
def test_tiny_epsilon_on_the_meridian_motions_exits_0(capsys, name, eps):
    code, out, err = run(capsys, "compute", "--example", name, "--epsilon", eps,
                         "--methods", "line,area,curvature,monopole,berry",
                         "--format", "json")
    assert code == 0, err
    assert "Traceback" not in err
    report = json.loads(out)
    jsonschema.validate(report, load_report_schema())
    assert report["input"]["epsilon"] == float(eps)
    assert set(report["delta_g"]) == {"line", "area", "curvature", "monopole",
                                      "berry"}


@pytest.mark.parametrize("steps", ["-5", "0"])
def test_oracle_steps_below_one_exit_2(capsys, steps):
    code, out, err = run(capsys, "compute", "--example", "vi",
                         "--methods", "line,oracle", "--steps", steps)
    assert code == 2
    assert "ValueError" in err and "steps" in err
    assert "Traceback" not in err and out == ""


# sweeps so large that float spacing at theta(1) exceeds the closure
# tolerance are refused when the motion file is read, before any route
@pytest.mark.parametrize("command,slope", [
    ("compute", "1e308"), ("trace", "1e308"), ("trace", "1e12")])
def test_absurd_sweep_exits_2(tmp_path, capsys, command, slope):
    target = tmp_path / "motion.json"
    target.write_text(_lap_desc("1.0", slope=slope))
    code, out, err = run(capsys, command, "--motion", str(target))
    assert code == 2
    assert "SweepTooLarge" in err and "spacing" in err
    assert "Traceback" not in err and out == ""


def test_unresolvable_closure_exits_2_on_the_line_route(tmp_path, capsys):
    # the line route samples nothing, so no sample cap stops this sweep
    target = tmp_path / "motion.json"
    target.write_text(_lap_desc("1.0", slope="1e308"))
    code, out, err = run(capsys, "compute", "--motion", str(target),
                         "--methods", "line")
    assert code == 2
    assert "SweepTooLarge" in err and "1e+308" in err and "spacing" in err
    assert "Traceback" not in err and out == ""


def test_theta_overflow_mid_lap_exits_2(tmp_path, capsys):
    target = tmp_path / "motion.json"
    target.write_text(json.dumps(_MID_LAP_OVERFLOW))
    code, out, err = run(capsys, "compute", "--motion", str(target),
                         "--methods", "line")
    assert code == 2
    assert "SweepTooLarge" in err and "1e+308" in err and "spacing" in err
    assert "Traceback" not in err and out == ""


# sweeps that float spacing still resolves but no sampled curve can follow:
# ten thousand closed laps for compute's clamped routes; trace samples any
# motion
@pytest.mark.parametrize("command,slope", [
    ("compute", repr(2e4 * PI)), ("trace", "1e5")])
def test_sweep_past_the_sample_cap_exits_2(tmp_path, capsys, command, slope):
    target = tmp_path / "motion.json"
    target.write_text(_lap_desc("1.0", slope=slope))
    code, out, err = run(capsys, command, "--motion", str(target))
    assert code == 2
    assert "ValueError" in err and "MAX_PIECE_SAMPLES" in err
    assert "Traceback" not in err and out == ""


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def _mostly(valid, wild=_JSON_LEAVES):
    """valid nine times in ten, wild otherwise, so that most draws get past
    the first check and reach the deeper ones."""
    return st.integers(0, 9).flatmap(lambda k: wild if k == 9 else valid)


_NUMBER = _mostly(st.sampled_from(
    [0.0, 0.5, 1.0, 2.0, -1.0, 2.0 * PI, 1e12, 1e308, 10 ** 400]))


def _schedule(value):
    return _mostly(
        st.fixed_dictionaries({"kind": st.just("const"), "value": value})
        | st.fixed_dictionaries({"kind": st.just("affine"), "start": value,
                                 "slope": _NUMBER})
        | st.fixed_dictionaries({"kind": st.just("samples"),
                                 "t": st.lists(_NUMBER, max_size=4),
                                 "values": st.lists(value, max_size=4)}),
        _JSON)


def _segments(count):
    """count segments that tile [0, 1] unless a wild value breaks them."""
    return st.tuples(*(st.fixed_dictionaries({
        "t0": _mostly(st.just(i / count)),
        "t1": _mostly(st.just((i + 1) / count)),
        "theta": _schedule(_mostly(st.just(0.0), _NUMBER)),
        "beta": _schedule(_NUMBER)}) for i in range(count))).map(list)


_MOTION = _mostly(st.fixed_dictionaries({
    "radii": _mostly(st.fixed_dictionaries({
        "a": _mostly(st.sampled_from([0.5, 1.0, 2.0])),
        "b": _mostly(st.sampled_from([0.5, 1.0, 2.0]))}), _JSON),
    "segments": _mostly(st.integers(1, 3).flatmap(_segments), _JSON)}), _JSON)


@settings(max_examples=60, deadline=None)
@given(desc=_MOTION)
@example(desc=json.loads(_lap_desc("10" + "0" * 400)))
@example(desc=json.loads(_lap_desc("1.0", slope="1e308")))
@example(desc=_MID_LAP_OVERFLOW)
@example(desc=_SUBNORMAL_STEP["theta"])
@example(desc=_SUBNORMAL_STEP["beta"])
def test_arbitrary_json_fails_only_with_documented_errors(tmp_path_factory,
                                                         desc):
    try:
        build_path(desc)
    except (GeophaseError, ValueError):
        pass
    target = tmp_path_factory.mktemp("fuzz") / "motion.json"
    target.write_text(json.dumps(desc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", "--motion", str(target), "--methods", "line"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:   # a report that exits 0 states finite angles
        for row in out.getvalue().splitlines():
            if row.startswith("delta_"):
                assert math.isfinite(float(row.split()[-1])), row


def test_lap_with_a_sampled_dip_to_the_pole_exits_0(tmp_path, capsys):
    desc = {"radii": {"a": 1.0, "b": 1.0},
            "segments": [
                {"t0": 0.0, "t1": 1.0,
                 "theta": {"kind": "affine", "start": 0.0, "slope": 2 * PI},
                 "beta": {"kind": "samples", "t": [0.0, 0.5, 1.0],
                          "values": [1.0, 0.0, 1.0]}}]}
    target = tmp_path / "dip.json"
    target.write_text(json.dumps(desc))
    code, out, err = run(capsys, "compute", "--motion", str(target),
                         "--methods", "line,area,curvature,monopole,berry",
                         "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    line = doc["delta_g"]["line"]["value"]
    for entry in doc["delta_g"].values():
        assert entry["value"] == pytest.approx(line, abs=1e-4)
