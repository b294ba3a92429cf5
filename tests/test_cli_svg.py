"""Scenario runner, report reproducibility, SVG rendering."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greencurves import GridSpec, index_field, integration, make_curve
from greencurves.cli import _green_cfg, canonical_json, cmd_gallery, main, run_scenario
from greencurves.errors import KindMismatch, ParseError
from greencurves.mainlemma import Disc, geometry_dump
from greencurves.svg import render_svg

SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "greencurves" / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"


def test_bundled_circle_scenario(tmp_path):
    report, code = run_scenario(str(SCEN_DIR / "circle_zbar.json"), out_dir=str(tmp_path))
    assert code == 0
    assert report["status"] == "ok"
    assert report["checks"]["green"]["rel_residual"] <= 1e-3
    assert (tmp_path / "report.json").exists()


def test_bundled_bowtie_scenario(tmp_path):
    report, code = run_scenario(str(SCEN_DIR / "bowtie_green.json"), out_dir=str(tmp_path))
    assert code == 0
    assert report["checks"]["decompose"]["n_loops"] == 2
    assert report["checks"]["green"]["rel_residual"] <= 2e-3


# sha256 of report.json bytes: the two bundled scenarios (as the benchmark
# records them), a small cut-off conj z localization scenario, the star
# that runs every check (the only one here that runs mainlemma) and a sweep
# on the bowtie, whose horizontal edges put contour nodes on cell edges
_PINNED_REPORTS = {
    "circle_zbar.json": "418861cec20d36386b01f940a01096143c86d6a4364c0e97bd96b23989da33d0",
    "bowtie_green.json": "3afe395b8b807c23c3b5bedfb72987c3435dfa8bf64882f77b47bff8ba47b931",
    "cutoff_localize": "1f98e61574bd96f6ba172c8aec2ff2399df84602cb1ae2f9a705a231cd6c38ba",
    "star_every_check.json": "b7eb6f688879a580bb4e50cf3c72007ca0c268000bdcac90e0eb87b647636eb6",
    "bowtie_vitushkin.json": "2b932e6a6d89040157635dcdd1806322a0df2a36fcac6b7854e606b9483d7a66",
}
_CUTOFF_LOCALIZE = {
    "schema": 1, "seed": 7,
    "curve": {"family": "circle", "params": {"n": 64, "radius": 0.57}},
    "function": {"family": "monomial", "params": {"a": 0, "b": 1},
                 "cutoff": {"r_inner": 1.8, "r_outer": 2.2}},
    "deltas": [0.4, 0.2, 0.1],
    "square": {"center": [0.55, 0.1], "half": 0.125, "depth": 5},
    "mollifier": {"z": [0.2, -0.1], "eps": 0.05},
    "checks": ["vitushkin", "square", "mollifier"],
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_report_bytes_pinned(tmp_path, name):
    path = (DATA_DIR if (DATA_DIR / name).exists() else SCEN_DIR) / name
    if name == "cutoff_localize":
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_CUTOFF_LOCALIZE))
    _, code = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert code == 0
    data = (tmp_path / "out" / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _PINNED_REPORTS[name]


def test_malformed_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    nofile = main(["run", str(tmp_path / "missing.json")])
    assert nofile == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"schema": 2, "curve": {}, "checks": []}))
    assert main(["run", str(bad2)]) == 2
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"schema": 1, "curve": {"family": "circle"},
                                "checks": ["nonsense"]}))
    assert main(["run", str(bad3)]) == 2
    # bytes that are not UTF-8, -16 or -32 text
    bad4 = tmp_path / "bad4.json"
    bad4.write_bytes(b"\x80\x81")
    assert main(["run", str(bad4)]) == 2


def test_unknown_family_exit_2(tmp_path):
    doc = {"schema": 1, "seed": 1, "curve": {"family": "dodo"}, "checks": ["decompose"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2



_CIRCLE = {"family": "circle", "params": {"n": 16}}


def test_mollifier_check_builds_its_disc_rule_once_per_reader_and_check(tmp_path, monkeypatch):
    # the reader's input check builds the disc rule, and the check integrates
    # on the rule its own input check returns
    builds = []
    rule = integration._polar_disc_rule
    monkeypatch.setattr(integration, "_polar_disc_rule", lambda *a: builds.append(a) or rule(*a))
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"schema": 1, "seed": 1, "curve": _CIRCLE, "checks": ["mollifier"]}))
    report, code = run_scenario(str(p))
    assert code == 0 and report["checks"]["mollifier"]["rel_residual"] <= 1e-6
    assert len(builds) == 2


# numbers given as booleans or strings, and integer family parameters that are
# not integers, each with the key its error line names
_NOT_NUMBERS = [
    ({"deltas": [True, 0.5], "checks": ["vitushkin"]}, "deltas"),
    ({"discs": [{"center": [1.0, 0.0], "radius": "0.5"}], "checks": ["mainlemma"]}, "disc radius"),
    ({"discs": [{"center": [1.0, 0.0], "radius": True}], "checks": ["mainlemma"]}, "disc radius"),
    ({"discs": [{"center": [True, False], "radius": 0.5}], "checks": ["mainlemma"]}, "disc center"),
    ({"square": {"center": [0.0, 0.0], "half": "0.125", "depth": 2}, "checks": ["square"]},
     "square half"),
    ({"mollifier": {"z": [0.3, 0.1], "eps": "0.05"}, "checks": ["mollifier"]}, "mollifier eps"),
    ({"mollifier": {"z": [0.3, 0.1], "eps": True}, "checks": ["mollifier"]}, "mollifier eps"),
    ({"function": {"family": "monomial", "params": {"a": 1.7}}, "checks": ["decompose"]},
     "function a"),
    ({"function": {"family": "monomial", "params": {"a": True}}, "checks": ["decompose"]},
     "function a"),
    ({"function": {"family": "poly", "params": {"terms": [[1.0, 1, 0.5]]}},
     "checks": ["decompose"]}, "function terms"),
    ({"curve": {"family": "star", "params": {"n": 16, "seed": 1.5}}, "checks": ["decompose"]},
     "curve seed"),
    ({"curve": {"family": "kfold", "params": {"n": 16, "k": 2.5}}, "checks": ["decompose"]},
     "curve k"),
    ({"curve": {"family": "circle", "params": {"n": 16, "radius": True}}, "checks": ["decompose"]},
     "curve radius"),
    ({"function": {"family": "monomial", "params": {"a": 0, "b": 1},
                   "cutoff": {"r_inner": "1.8", "r_outer": 2.2}}, "checks": ["vitushkin"]},
     "cutoff r_inner"),
]

# inputs that ended in a traceback or ran with another meaning, each with the
# key its error line names: a poly of no terms, a check listed twice, and a
# cutoff that is not an object with both radii
_MISREAD = [
    ({"function": {"family": "poly", "params": {"terms": []}}, "deltas": [0.4],
      "checks": ["vitushkin"]}, "poly terms"),
    ({"checks": ["green", "green"]}, "checks"),
    *(({"function": {"family": "monomial", "params": {"a": 0, "b": 1}, "cutoff": cut},
        "checks": ["decompose"]}, "cutoff") for cut in ({}, 0, False, [])),
]

# a key that no section documents, which ran at the default of the key meant,
# with the section and key its error line names
_UNKNOWN_KEYS = [
    ({"grid": {"resolutoin": 64}, "checks": ["green"]}, "grid has an unknown key 'resolutoin'"),
    ({"grid": {"resolution": 32}, "quadrature": {"refien": 1}, "checks": ["green"]},
     "quadrature has an unknown key 'refien'"),
    ({"square": {"center": [0.0, 0.0], "half": 0.25, "depht": 2}, "checks": ["square"]},
     "square has an unknown key 'depht'"),
    ({"mollifier": {"z": [0.3, 0.1], "eps": 0.05, "epsilon": 0.01}, "checks": ["mollifier"]},
     "mollifier has an unknown key 'epsilon'"),
    ({"discs": [{"center": [1.0, 0.0], "radius": 0.5, "radios": 0.7}], "checks": ["mainlemma"]},
     "disc has an unknown key 'radios'"),
    ({"curve": {"family": "circle", "params": {"n": 16}, "parmas": {"n": 64}},
      "checks": ["decompose"]}, "curve has an unknown key 'parmas'"),
    ({"function": {"family": "monomial", "paramz": {"a": 2}}, "checks": ["decompose"]},
     "function has an unknown key 'paramz'"),
    ({"function": {"family": "monomial", "params": {"a": 0, "b": 1},
                   "cutoff": {"r_inner": 1.8, "r_outer": 2.2, "extra": 1}},
      "checks": ["decompose"]}, "cutoff has an unknown key 'extra'"),
    ({"sed": 3, "checks": ["decompose"]}, "scenario has an unknown key 'sed'"),
]


@pytest.mark.parametrize("fields", [
    {"curve": {"family": "circle", "params": {"nn": 16}}, "checks": ["decompose"]},
    {"function": {"family": "monomial", "params": {"q": 1}}, "checks": ["decompose"]},
    {"curve": {"family": "circle", "params": {"n": 16, "radius": float("nan")}},
     "checks": ["decompose"]},
    {"discs": [{"center": [1.0, 0.0], "radius": float("nan")}], "checks": ["mainlemma"]},
    {"square": {"center": [0.0, 0.0], "half": 0, "depth": 2}, "checks": ["decompose", "square"]},
    {"grid": {"resolution": 0}, "checks": ["green"]},
    {"mollifier": {"z": [0.3, 0.1], "eps": 0}, "checks": ["mollifier"]},
    {"deltas": [0.1, 0.2], "checks": ["vitushkin"]},
    {"discs": [{"center": [1.0, 0.0], "radius": -1}], "checks": ["mainlemma"]},
    {"checks": "green"},
    {"function": {"family": "reciprocal", "params": {"pole": [0.3, 0.1]}},
     "mollifier": {"z": [0.3, 0.1], "eps": 0.05}, "checks": ["mollifier"]},
    # non-finite numbers: Python's json reads NaN and Infinity unless told not to
    {"function": {"family": "reciprocal", "params": {"pole": [float("nan"), 0]}},
     "checks": ["mollifier"]},
    {"function": {"family": "monomial", "params": {"a": 0, "b": 1},
                  "cutoff": {"r_inner": 1.8, "r_outer": 2.2, "center": [float("nan"), 0]}},
     "checks": ["vitushkin"]},
    {"mollifier": {"z": [float("nan"), 0.1], "eps": 0.05}, "checks": ["mollifier"]},
    {"square": {"center": [float("nan"), 0.0], "half": 0.25, "depth": 2}, "checks": ["square"]},
    {"square": {"center": [0.0, 0.0], "half": float("inf"), "depth": 2}, "checks": ["square"]},
    {"grid": {"resolution": 32, "dilate": -float("inf")}, "checks": ["green"]},
    # an integer too large for float()
    {"square": {"center": [0.0, 0.0], "half": 10 ** 400, "depth": 2}, "checks": ["square"]},
    # the grid dilation, the band and the contour order each have one value
    {"grid": {"resolution": 32, "dilate": 1.0}, "checks": ["green"]},
    {"grid": {"resolution": 32, "dilate": 2.0}, "checks": ["green"]},
    {"grid": {"resolution": 32, "band_diagonals": -1}, "checks": ["green"]},
    {"grid": {"resolution": 32, "band_diagonals": 3.0}, "checks": ["green"]},
    {"grid": {"resolution": 32}, "quadrature": {"contour_order": 16}, "checks": ["green"]},
    # integer settings are JSON integers, never truncated or coerced
    {"grid": {"resolution": 64.9}, "checks": ["green"]},
    {"grid": {"resolution": "64"}, "checks": ["green"]},
    {"grid": {"resolution": True}, "checks": ["green"]},
    {"grid": {"resolution": 32}, "quadrature": {"refine": 2.5}, "checks": ["green"]},
    # refine past its limit, 12 at resolution 16 (refine 14 there peaked at 231 MB)
    {"grid": {"resolution": 16}, "quadrature": {"refine": 14}, "checks": ["green"]},
    {"square": {"center": [0.0, 0.0], "half": 0.25, "depth": 3.7}, "checks": ["square"]},
    {"seed": 1.5, "checks": ["decompose"]},
    {"seed": "7", "checks": ["decompose"]},
    # sizes that no memory holds: 10^10 grid cells, 4^40 sub-squares, ~10^15 bumps
    {"grid": {"resolution": 100000}, "checks": ["green"]},
    {"deltas": [1e-7], "checks": ["vitushkin"]},
    {"square": {"center": [0.0, 0.0], "half": 0.25, "depth": 40}, "checks": ["square"]},
    # the bump count is taken while parsing: deltas given as strings, and a delta
    # whose half underflows to zero
    {"deltas": ["0.4", "0.2"], "checks": ["vitushkin"]},
    {"deltas": [5e-324], "checks": ["vitushkin"]},
    # an empty sweep
    {"deltas": [], "checks": ["vitushkin"]},
    # a piece's multipole powers (delta/sqrt(2))^96 overflow from delta ~2,299 up
    {"deltas": [3000.0], "checks": ["vitushkin"]},
    {"deltas": [1e300], "checks": ["vitushkin"]},
    # the mollifier's eps^4 overflows, and its eps^2 underflows to zero
    {"mollifier": {"z": [0.3, 0.1], "eps": 1e300}, "checks": ["mollifier"]},
    {"mollifier": {"z": [0.3, 0.1], "eps": 1e-320}, "checks": ["mollifier"]},
    # a node z - u of the disc rule rounds onto z
    {"mollifier": {"z": [0.3, 0.1], "eps": 1e-15}, "checks": ["mollifier"]},
    {"mollifier": {"z": [0.3, 0.1], "eps": 1e-50}, "checks": ["mollifier"]},
    # vertex counts that no memory holds, and one that is not an integer
    {"curve": {"family": "circle", "params": {"n": 10 ** 15}}, "checks": ["decompose"]},
    {"curve": {"family": "spiral", "params": {"n": 2 * 10 ** 12}}, "checks": ["decompose"]},
    {"curve": {"family": "circle", "params": {"n": 2.5}}, "checks": ["decompose"]},
    *(fields for fields, _ in _NOT_NUMBERS),
    # a bump of radius 0 or below: its gradient bound would be 1/0 or negative
    *({"function": {"family": "bump", "params": {"radius": r}},
       "square": {"center": [0.95, 0.1], "half": 0.125, "depth": 3}, "checks": ["square"]}
      for r in (-0.5, 0)),
    *(fields for fields, _ in _MISREAD),
    # a check name that is not a string: a list ended in a TypeError traceback
    {"checks": [["green"]]},
    *(fields for fields, _ in _UNKNOWN_KEYS),
])
def test_invalid_section_exit_2(tmp_path, capsys, fields):
    text = json.dumps({"schema": 1, "seed": 1, "curve": _CIRCLE, **fields})
    p = tmp_path / "s.json"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # rejected before any check runs, so nothing is written
    assert main(["run", str(p), "--out", str(tmp_path / "out"), "--svg"]) == 2
    assert not (tmp_path / "out").exists()
    if fields["checks"] == "green":
        assert "checks must be a list" in err
    for bad, key in _NOT_NUMBERS + _MISREAD:
        if fields == bad:
            assert f"{key} must be" in err
    for bad, line in _UNKNOWN_KEYS:
        if fields == bad:
            assert line in err
    if "NaN" in text or "Infinity" in text:
        assert "every number must be finite" in err
    else:  # a fixed setting with another value is named
        for key in ("dilate", "band_diagonals", "contour_order"):
            assert (f"{key} is fixed at" in err) == (key in text)


@pytest.mark.parametrize("res, top", [(16, 12), (512, 7), (1448, 5)])
def test_refine_limit_follows_the_resolution(res, top):
    # resolution * 2^refine stays within _MAX_ITEMS / 32; the shipped and
    # benchmark scenarios reach refine 4 at resolution 512
    doc = lambda refine: {"grid": {"resolution": res}, "quadrature": {"refine": refine}}
    assert _green_cfg(doc(top), None, None) == (res, top)
    with pytest.raises(ValueError, match=f"at grid.resolution {res} must be an integer from 0 to {top}: {top + 1}"):
        _green_cfg(doc(top + 1), None, None)


@pytest.mark.parametrize("fields", [
    # the contour integral of conj z overflows on a circle of radius 1e200: a NaN residual
    {"curve": {"family": "circle", "params": {"n": 16, "radius": 1e200}}, "checks": ["decompose"]},
    # the pole at 2 lies in the disc the sweep's modulus bound is taken over: an infinite bound
    {"function": {"family": "reciprocal", "params": {}}, "deltas": [0.4, 0.2],
     "checks": ["vitushkin"]},
    # the pole inside the square: an infinite modulus bound times no meeting sub-square is NaN
    {"function": {"family": "reciprocal", "params": {"pole": [0.5, 0]}},
     "square": {"center": [0.4, 0], "half": 0.3, "depth": 2}, "checks": ["square"]},
    # z^(10^12) conj z overflows: complex abs of the residual would raise
    {"function": {"family": "monomial", "params": {"a": 10 ** 12}}, "checks": ["green"]},
])
def test_non_finite_report_exit_2(tmp_path, capsys, fields):
    # a report is strict JSON: a check that gives NaN or an infinity ends with
    # exit 2, one error line naming it, and nothing written
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"schema": 1, "seed": 1, "curve": _CIRCLE, **fields}))
    with np.errstate(all="ignore"):
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: check {fields['checks'][0]!r} gives a number that is not finite"] * 2
    assert not (tmp_path / "out").exists()


def test_numpy_overflow_with_warnings_as_errors_exit_2(tmp_path, capsys):
    # z^(10^12) overflows in numpy's power on a circle of radius 2; with warnings
    # as errors, as under python -W error, the run still ends at the non-finite
    # check with exit 2, not in a RuntimeWarning traceback
    path = DATA_DIR / "monomial_overflow_green.json"
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: check 'green' gives a number that is not finite"]
    assert not (tmp_path / "out").exists()


def test_overflowing_float_exit_2(tmp_path, capsys):
    # json reads the literal 1e999 as inf; json.dumps cannot write it
    p = tmp_path / "s.json"
    p.write_text('{"schema": 1, "curve": {"family": "circle", "params": {"n": 16}}, '
                 '"square": {"center": [0, 0], "half": 1e999, "depth": 2}, "checks": ["square"]}')
    assert main(["run", str(p)]) == 2
    assert "every number must be finite" in capsys.readouterr().err


def test_python_m_greencurves(tmp_path):
    src = str(SCEN_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "greencurves", "gallery"],
                          env=env, capture_output=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert b"curve families:" in proc.stdout


def test_python_m_greencurves_cli():
    src = str(SCEN_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "greencurves.cli", "gallery"],
                          env=env, capture_output=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == cmd_gallery()


def test_collinear_curve_green_terminates(tmp_path):
    # spiral with zero turns: every vertex on one line, so the curve's box has
    # zero area; the green probe sampler must still end, with a verdict or an
    # input error
    doc = {"schema": 1, "seed": 3, "curve": {"family": "spiral", "params": {"turns": 0, "n": 32}},
           "grid": {"resolution": 64}, "checks": ["green"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    src = str(SCEN_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", "from greencurves.cli import entry; entry()",
                           "run", str(p), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, timeout=10)
    assert proc.returncode in (0, 2), proc.stderr


@pytest.mark.parametrize("check", ["green", "decompose"])
def test_collinear_curve_exit_2(tmp_path, capsys, check):
    # every vertex on one line: an input error before any check runs
    doc = {"schema": 1, "seed": 3, "curve": {"family": "spiral", "params": {"turns": 0, "n": 32}},
           "grid": {"resolution": 64}, "checks": [check]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "collinear" in err[0], err


# every check but the vitushkin sweep, whose default deltas take seconds
_FUZZ_CHECKS = ("green", "decompose", "square", "mollifier", "mainlemma")
_FUZZ_SMALL = {"resolution": st.integers(-2, 40), "n": st.integers(-1, 24),
               "depth": st.integers(-1, 3)}
_FUZZ_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-4.0, 4.0),
                       st.text(max_size=3), st.lists(st.floats(-2.0, 2.0), max_size=3),
                       st.just({}))


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_cli_fuzz_bundled_scenarios(data):
    # a bundled scenario with small sizes, then up to three keys deleted or
    # replaced: the CLI ends with a documented exit code and no traceback
    name = data.draw(st.sampled_from(sorted(p.name for p in SCEN_DIR.glob("*.json"))))
    doc = json.loads((SCEN_DIR / name).read_text())
    doc["checks"] = data.draw(st.lists(st.sampled_from(_FUZZ_CHECKS), min_size=1, max_size=3,
                                       unique=True))
    doc["grid"]["resolution"] = data.draw(_FUZZ_SMALL["resolution"])
    if "n" in doc["curve"]["params"]:
        doc["curve"]["params"]["n"] = data.draw(_FUZZ_SMALL["n"])
    doc["square"] = {"center": [0.3, -0.4], "half": 0.1, "depth": data.draw(_FUZZ_SMALL["depth"])}
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_key_paths(doc))))
        parent = reduce(getitem, path[:-1], doc)
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_FUZZ_SMALL.get(path[-1], _FUZZ_JUNK))
    src = str(SCEN_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "s.json"
        p.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "greencurves", "run", str(p),
                               "--out", str(Path(tmp) / "o")],
                              env=env, capture_output=True, timeout=60)
    assert proc.returncode in (0, 1, 2), (doc, proc.stderr)
    assert b"Traceback" not in proc.stderr, (doc, proc.stderr)


def test_green_probe_exhaustion_exit_2(tmp_path, monkeypatch):
    # the probe sampler draws one bounded batch; if no draw clears the curve
    # the scenario is an input error rather than a hang
    import greencurves.cli as climod
    monkeypatch.setattr(climod, "distance_to_curve",
                        lambda curve, zs, cap=float("inf"): np.zeros(np.shape(zs)))
    doc = {"schema": 1, "seed": 1, "curve": {"family": "circle", "params": {"n": 32}},
           "grid": {"resolution": 32}, "checks": ["green"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2


def test_scenario_reproducible_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(str(SCEN_DIR / "circle_zbar.json"), out_dir=str(out1))
    run_scenario(str(SCEN_DIR / "circle_zbar.json"), out_dir=str(out2))
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_full_scenario_all_checks(tmp_path):
    doc = {
        "schema": 1, "seed": 7,
        "curve": {"family": "circle", "params": {"n": 128}},
        "function": {"family": "monomial", "params": {"a": 0, "b": 1},
                     "cutoff": {"r_inner": 1.8, "r_outer": 2.2}},
        "grid": {"resolution": 128},
        "quadrature": {"refine": 2},
        "deltas": [0.4, 0.2],
        "discs": [{"center": [1.0, 0.0], "radius": 0.45}],
        "square": {"center": [0.2, 0.1], "half": 0.15, "depth": 4},
        "mollifier": {"z": [0.3, 0.1], "eps": 0.05},
        "checks": ["green", "decompose", "vitushkin", "mainlemma", "square", "mollifier"],
    }
    p = tmp_path / "full.json"
    p.write_text(json.dumps(doc))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        report, code = run_scenario(str(p), out_dir=str(out), svg=True)
        assert code == 0
        assert set(report["checks"]) == set(doc["checks"])
        assert report["checks"]["vitushkin"]["s_ii_decreasing"] is True
        assert report["checks"]["mainlemma"]["discs"][0]["abs_residual"] <= 1e-6
        outs.append((out / "report.json").read_bytes())
        assert (out / "sweep.svg").exists()
        assert (out / "mainlemma_0.svg").exists()
        assert (out / "mainlemma_0.json").exists()
    assert outs[0] == outs[1]
    # the geometry dump file renders on its own, and the report renders a sweep plot
    assert main(["render", str(out / "mainlemma_0.json"), "--kind", "mainlemma-diagram",
                 "--out", str(tmp_path / "ml.svg")]) == 0
    assert main(["render", str(out / "report.json"), "--kind", "sweep-plot",
                 "--out", str(tmp_path / "sw.svg")]) == 0
    assert (tmp_path / "sw.svg").read_text().count("polyline") >= 1


def test_verbose_timing_lines(tmp_path, capsys):
    # one [timing] line per check on stderr, in listed order; the benchmark
    # parses these lines, and they never change the report
    doc = {"schema": 1, "seed": 2, "curve": {"family": "circle", "params": {"n": 32}},
           "grid": {"resolution": 32}, "square": {"center": [0.2, 0.1], "half": 0.15, "depth": 2},
           "checks": ["square", "decompose", "green"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path / "v"), "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    timed = [re.fullmatch(r"\[timing\] (\w+): [0-9]+\.[0-9]{3}s", ln) for ln in lines]
    assert all(timed) and [m.group(1) for m in timed] == doc["checks"]
    assert main(["run", str(p), "--out", str(tmp_path / "q")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "v" / "report.json").read_bytes() == (tmp_path / "q" / "report.json").read_bytes()


def test_gallery_listing():
    text = cmd_gallery()
    assert "circle" in text
    assert "bowtie" in text
    assert sum(1 for ln in text.splitlines() if ln.startswith("  ")) >= 11
    assert main(["gallery"]) == 0


def test_report_hard_fail_exit_code(tmp_path, monkeypatch):
    # force a hard invariant failure through the runner to check exit wiring
    import greencurves.cli as climod
    monkeypatch.setitem(climod._CHECKS, "decompose",
                        (lambda doc, curve, f: None,
                         lambda spec, curve, f, seed: {"report": {}, "hard_fail": True}))
    doc = {"schema": 1, "seed": 1, "curve": {"family": "bowtie"}, "checks": ["decompose"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1


def test_svg_curve_deterministic():
    c = make_curve("trefoil")
    pts = [[z.real, z.imag] for z in c.vertices]
    doc1 = render_svg(pts, "curve")
    doc2 = render_svg(pts, "curve")
    assert doc1 == doc2
    assert doc1.startswith("<?xml")
    assert "<path" in doc1


def test_svg_heatmap_two_tone_circle():
    c = make_curve("circle", n=64)
    grid = GridSpec.cover(c, 48)
    fld = index_field(c, grid, 2 * grid.cell_diag)
    doc = render_svg(fld.to_json_dict(), "index-heatmap")
    assert doc.count("<rect") > 100
    palette = {ln.split('fill="')[1][:7] for ln in doc.splitlines() if 'fill="#' in ln}
    assert palette == {"#fcae91"}  # single interior tone; exterior cells left blank
    assert 'stroke="#444"' in doc  # grid frame


def test_svg_mainlemma_diagram():
    from test_mainlemma import NESTED, UNIT
    dump = geometry_dump(NESTED, UNIT)
    doc = render_svg(dump, "mainlemma-diagram")
    assert "G0" in doc and "G1" in doc and "G2" in doc
    assert doc == render_svg(dump, "mainlemma-diagram")


def test_svg_sweep_plot():
    table = [{"delta": 0.4, "s_ii_abs": 1.2, "bound": 8.0},
             {"delta": 0.2, "s_ii_abs": 0.7, "bound": 4.0},
             {"delta": 0.1, "s_ii_abs": 0.33, "bound": 2.0}]
    doc = render_svg({"table": table}, "sweep-plot")
    assert "polyline" in doc
    assert "|S_II|" in doc


def test_render_kind_mismatch():
    with pytest.raises(KindMismatch):
        render_svg({"table": []}, "sweep-plot")
    with pytest.raises(KindMismatch):
        render_svg({"nope": 1}, "index-heatmap")
    with pytest.raises(KindMismatch):
        render_svg({"kind": "other"}, "mainlemma-diagram")
    with pytest.raises(KindMismatch):
        render_svg({}, "hexagon")


def test_render_cli_roundtrip(tmp_path):
    c = make_curve("circle", n=32)
    payload = {"vertices": [[z.real, z.imag] for z in c.vertices]}
    src = tmp_path / "curve.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "curve.svg"
    assert main(["render", str(src), "--kind", "curve", "--out", str(out)]) == 0
    assert out.read_text().startswith("<?xml")


_RENDER_KINDS = ("curve", "index-heatmap", "mainlemma-diagram", "sweep-plot")


@pytest.mark.parametrize("kind, text", [
    *(pytest.param(k, "{not json", id=f"{k}-not-json") for k in _RENDER_KINDS),
    pytest.param("curve", json.dumps({"vertices": [[0, 0], [1, "x"], [0, 1]]}),
                 id="curve-non-numeric-vertex"),
    pytest.param("sweep-plot", json.dumps({"table": [{"delta": 0, "s_ii_abs": 1.0, "bound": 2.0}]}),
                 id="sweep-plot-zero-delta"),
    pytest.param("index-heatmap", json.dumps({"grid": {"lo": [0, 0], "hi": [1, 1]},
                                              "values": [[0, 1], [1]]}),
                 id="index-heatmap-ragged-values"),
    # render reads JSON as the scenario loader does: every number finite
    pytest.param("curve", "[[NaN, 0], [1, 1], [0, 1]]", id="curve-nan-vertex"),
    pytest.param("sweep-plot", '{"table": [{"delta": 0.4, "s_ii_abs": NaN, "bound": 2.0}]}',
                 id="sweep-plot-nan-row"),
])
def test_render_bad_input_exit_2(tmp_path, capsys, kind, text):
    src = tmp_path / "in.json"
    src.write_text(text)
    assert main(["render", str(src), "--kind", kind, "--out", str(tmp_path / "o.svg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "o.svg").exists()


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=12)


def _render_payload(kind):
    """A small valid input of each render kind."""
    if kind == "curve":
        return {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
    if kind == "index-heatmap":
        return {"grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "values": [[0, 1], [2, -1]]}
    if kind == "sweep-plot":
        return {"table": [{"delta": 0.4, "s_ii_abs": 0.5, "bound": 2.0},
                          {"delta": 0.2, "s_ii_abs": 0.2, "bound": 1.0}]}
    from test_mainlemma import NESTED, UNIT
    return json.loads(json.dumps(geometry_dump(NESTED, UNIT)))


def _json_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_render_fuzz(data):
    # a valid input with up to three values deleted or replaced, an arbitrary
    # JSON document, or bytes: render ends with exit 0, or 2 and one error
    # line, never a traceback
    kind = data.draw(st.sampled_from(_RENDER_KINDS))
    doc = _render_payload(kind)
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc)) or [None]))
        if path is None:
            break
        parent = reduce(getitem, path[:-1], doc)
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
    raw = json.dumps(doc).encode()
    other = data.draw(st.integers(0, 4))  # mostly the edited valid input
    if other == 1:
        raw = json.dumps(data.draw(_JSON)).encode()
    elif other == 2:
        raw = data.draw(st.binary(max_size=12))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        src = Path(tmp) / "in.json"
        src.write_bytes(raw)
        code = main(["render", str(src), "--kind", kind, "--out", str(Path(tmp) / "o.svg")])
    assert code in (0, 2), (raw, err.getvalue())
    assert err.getvalue().count("\n") == (code == 2), (raw, err.getvalue())


def test_canonical_json_stable():
    obj = {"b": 1.5, "a": [1e-9, 2.25]}
    assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj).decode()))
