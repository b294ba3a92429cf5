"""Exit 1 means a broken hard invariant: planted faults, and the known defects as strict xfails.

Each planted fault monkeypatches one library function so that exactly one
check's hard invariant breaks.  The scenario first runs clean (exit 0), then
with the fault, where it must end in exit 1, status "fail" and that check's
``hard_fail``.  The strict xfails assert the correct outcome on valid input
that the library still gets wrong; each names the ROADMAP item that mends it.
"""

import dataclasses
import json
import random

import pytest

import greencurves.cli as climod
import greencurves.mainlemma as mlmod
from greencurves.curves import jordan_decompose
from greencurves.functions import FunctionDescriptor, truncated_cauchy
from greencurves.mainlemma import ENTER, LEAVE, circle_crossings
from greencurves.winding import winding_numbers


def _run(tmp_path, monkeypatch, doc, check, name):
    """Exit code, report and ``check``'s ``hard_fail`` of one CLI run of ``doc``."""
    seen = {}
    reader, run = climod._CHECKS[check]

    def spy(spec, curve, f, seed):
        seen.update(run(spec, curve, f, seed))
        return seen

    with monkeypatch.context() as m:
        m.setitem(climod._CHECKS, check, (reader, spy))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = climod.main(["run", str(path), "--out", str(tmp_path / name)])
    report = json.loads((tmp_path / name / "report.json").read_text())
    return code, report, seen["hard_fail"]


def _off_by_one_probe(curve, zs):
    out = winding_numbers(curve, zs).copy()
    out[0] += 1
    return out


def _one_crossing_flipped(curve, disc):
    out = circle_crossings(curve, disc)
    out[0] = dataclasses.replace(out[0], kind=ENTER if out[0].kind == LEAVE else LEAVE)
    return out


def _understated_bounds(center, radius):
    h = truncated_cauchy(center, radius)
    sup, lip = h.bounds(center, radius)  # constant: radius and 1
    return dataclasses.replace(h, bounds=lambda c, r: (1e-3 * sup, lip))


def _loop_repeated(curve):
    dec = jordan_decompose(curve)
    return dataclasses.replace(dec, loops=dec.loops + dec.loops[:1])


def _disc_error(text):
    return lambda rep: text in rep["discs"][0]["error"]


_CIRCLE = {"family": "circle", "params": {"n": 64}}
_BOWTIE = {"family": "bowtie"}
# check, scenario sections, (owner, name, fault), and what the check's report shows of it
_FAULTS = {
    "green_winding": ("green", {"curve": _CIRCLE, "grid": {"resolution": 32}},
                      (climod, "winding_numbers", _off_by_one_probe), lambda rep: True),
    "mainlemma_nesting": ("mainlemma", {"curve": _CIRCLE},
                          (mlmod, "circle_crossings", _one_crossing_flipped),
                          _disc_error("do not alternate")),
    "mainlemma_bound": ("mainlemma", {"curve": _CIRCLE},
                        (climod, "truncated_cauchy", _understated_bounds), _disc_error("exceeds")),
    "decompose_simple": ("decompose", {"curve": _BOWTIE}, (climod, "is_jordan", lambda c: False),
                         lambda rep: rep["loops_simple"] is False),
    "decompose_length": ("decompose", {"curve": _BOWTIE},
                         (climod, "jordan_decompose", _loop_repeated),
                         lambda rep: rep["loops_simple"] is True and rep["n_loops"] == 3),
    "square_remainder": ("square", {"curve": _CIRCLE,
                                    "square": {"center": [1.0, 0.0], "half": 0.25, "depth": 3}},
                         (FunctionDescriptor, "modulus", lambda self, delta, box: 0.0),
                         lambda rep: all(g["n_meeting"] > 0 and g["remainder"] > 0
                                         for g in rep["extras"]["generations"][1:])),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_planted_fault_exit_1(tmp_path, monkeypatch, fault):
    check, sections, (owner, name, planted), shows = _FAULTS[fault]
    doc = {"schema": 1, "seed": 1, "checks": [check], **sections}
    code, report, hard_fail = _run(tmp_path, monkeypatch, doc, check, "clean")
    assert (code, report["status"], hard_fail) == (0, "ok", False)
    monkeypatch.setattr(owner, name, planted)
    code, report, hard_fail = _run(tmp_path, monkeypatch, doc, check, "fault")
    assert (code, report["status"], hard_fail) == (1, "fail", True)
    assert shows(report["checks"][check])


def _exit_code(tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return climod.main(["run", str(path), "--out", str(tmp_path / "o")])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the disc geometry runs on the whole self-intersecting curve, not on its "
    "Jordan loops, and exits 1 with \"child interval does not oppose its parent's orientation\""))
@pytest.mark.parametrize("curve, center, radius", [
    ({"family": "spiral"}, [0.6, 0.0], 0.3),
    ({"family": "kfold", "params": {"k": 2, "n": 64}}, [0.732, 0.739], 0.436),
    ({"family": "kfold", "params": {"k": 3, "n": 96}}, [-0.514, -1.071], 0.338),
], ids=["spiral", "kfold2", "kfold3"])
def test_mainlemma_on_self_intersecting_curves(tmp_path, curve, center, radius):
    doc = {"schema": 1, "seed": 0, "curve": curve,
           "discs": [{"center": center, "radius": radius}], "checks": ["mainlemma"]}
    assert _exit_code(tmp_path, doc) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: with no sub-square meeting the curve the remainder bound is 0, and the "
    "tensor rule's own error (1.1e-7 to 3.3e-6 here) exits 1"))
def test_square_clear_of_the_curve(tmp_path):
    doc = {"schema": 1, "seed": 0, "curve": {"family": "star", "params": {"n": 48, "seed": 1}},
           "function": {"family": "monomial", "params": {"a": 0, "b": 1},
                        "cutoff": {"r_inner": 0.6, "r_outer": 0.9}},
           "square": {"center": [0.633, 0.596], "half": 0.055, "depth": 3}, "checks": ["square"]}
    assert _exit_code(tmp_path, doc) == 0


# the square check on 4 curves x 4 functions x 8 seeded squares at depth 3; of
# these 128 runs, the 24 in _SQUARE_SWEEP_FAILS exit 1, each with no sub-square
# meeting the curve at any generation (the other 104 exit 0)
_SWEEP_CURVES = {
    "star": {"family": "star", "params": {"n": 48, "seed": 1}},
    "kfold2": {"family": "kfold", "params": {"k": 2, "n": 64}},
    "circle": {"family": "circle", "params": {"n": 64}},
    "bowtie": {"family": "bowtie"},
}
_SWEEP_FUNCTIONS = {
    "bump": {"family": "bump", "params": {"center": [0.2, 0.1], "radius": 0.8}},
    "zbar_cut": {"family": "monomial", "params": {"a": 0, "b": 1},
                 "cutoff": {"r_inner": 0.6, "r_outer": 0.9}},
    "zzbar_cut": {"family": "monomial", "params": {"a": 1, "b": 1},
                  "cutoff": {"r_inner": 1.2, "r_outer": 1.6}},
    "zbar_absz": {"family": "zbar_absz"},
}
_SQUARE_SWEEP_FAILS = [  # (curve, function, index into _sweep_squares())
    ("star", "bump", 4), ("star", "zbar_cut", 0), ("star", "zbar_cut", 7),
    ("star", "zzbar_cut", 4), ("star", "zbar_absz", 0),
    ("kfold2", "bump", 3), ("kfold2", "zbar_cut", 0), ("kfold2", "zbar_cut", 3),
    ("kfold2", "zbar_cut", 5), ("kfold2", "zbar_cut", 7), ("kfold2", "zbar_absz", 0),
    ("circle", "bump", 3), ("circle", "zbar_cut", 0), ("circle", "zbar_cut", 3),
    ("circle", "zbar_cut", 5), ("circle", "zbar_cut", 7), ("circle", "zbar_absz", 0),
    ("bowtie", "bump", 3), ("bowtie", "bump", 4), ("bowtie", "zbar_cut", 0),
    ("bowtie", "zbar_cut", 3), ("bowtie", "zbar_cut", 7), ("bowtie", "zzbar_cut", 4),
    ("bowtie", "zbar_absz", 0),
]


def _sweep_squares() -> list:
    """8 squares: center uniform in [-1.1, 1.1]^2, half uniform in [0.03, 0.25], 3 places."""
    rng = random.Random(29)
    return [{"center": [round(rng.uniform(-1.1, 1.1), 3), round(rng.uniform(-1.1, 1.1), 3)],
             "half": round(rng.uniform(0.03, 0.25), 3), "depth": 3} for _ in range(8)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: no sub-square meets the curve, so the remainder bound is 0 and the "
    "tensor rule's own error exits 1"))
@pytest.mark.parametrize("curve, function, k", _SQUARE_SWEEP_FAILS,
                         ids=[f"{c}-{f}-{k}" for c, f, k in _SQUARE_SWEEP_FAILS])
def test_square_sweep_clear_of_the_curve(tmp_path, curve, function, k):
    doc = {"schema": 1, "seed": 0, "curve": _SWEEP_CURVES[curve],
           "function": _SWEEP_FUNCTIONS[function], "square": _sweep_squares()[k],
           "checks": ["square"]}
    assert _exit_code(tmp_path, doc) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the sweep's bound takes the modulus over a disc about the whole box, which "
    "reaches reciprocal's pole, and exits 2 with \"check 'vitushkin' gives a number that is not "
    "finite\""))
def test_vitushkin_on_reciprocal(tmp_path):
    doc = {"schema": 1, "seed": 0, "curve": _CIRCLE, "function": {"family": "reciprocal"},
           "deltas": [0.4, 0.2], "checks": ["vitushkin"]}
    assert _exit_code(tmp_path, doc) == 0
