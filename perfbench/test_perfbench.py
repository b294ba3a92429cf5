"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402
import verdict  # noqa: E402
from greencurves import cli  # noqa: E402
from greencurves.curves import make_curve  # noqa: E402

SCEN_DIR = ROOT / "src" / "greencurves" / "scenarios"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = scenarios.make_batch(workload, 7, SCEN_DIR)
    b = scenarios.make_batch(workload, 7, SCEN_DIR)
    c = scenarios.make_batch(workload, 8, SCEN_DIR)
    assert [(s.name, s.data) for s in a] == [(s.name, s.data) for s in b]
    assert scenarios.batch_digest(a) == scenarios.batch_digest(b)
    assert scenarios.batch_digest(a) != scenarios.batch_digest(c)
    assert [s.name for s in a] == [s.name for s in c]  # same slots, other geometry


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_gate_formulas_match_the_library_curves(workload):
    for sc in scenarios.make_batch(workload, scenarios.DEV_SEED, SCEN_DIR):
        spec = sc.doc["curve"]
        params = dict(spec.get("params", {}))
        if isinstance(params.get("center"), list):
            params["center"] = complex(*params["center"])
        lib = make_curve(spec["family"], **params).vertices
        np.testing.assert_allclose(scenarios.vertices(spec), lib, rtol=0, atol=1e-12)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def _write(tmp_path, name, doc):
    data = (json.dumps(doc) + "\n").encode()
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    return scenarios.Scenario(name, data), path


def test_fault_injected_scenario_counts_as_failed(tmp_path):
    # an unknown family parameter escapes run_scenario as a TypeError
    bad, bad_path = _write(tmp_path, "bad", {
        "schema": 1, "curve": {"family": "circle", "params": {"nn": 16}}, "checks": ["green"]})
    good_path = SCEN_DIR / "bowtie_green.json"
    good = scenarios.Scenario("bowtie", good_path.read_bytes(), scenarios.BUNDLED["bowtie_green.json"])
    runs = run.run_pass(cli, [bad, good], [bad_path, good_path], tmp_path / "out", svg=False)
    assert [r.verdict.ok for r in runs] == [False, True]
    assert "TypeError" in runs[0].verdict.reasons[0]


def test_gate_rejects_a_wrong_green_value(tmp_path):
    sc, path = _write(tmp_path, "circle", {
        "schema": 1, "seed": 3, "curve": {"family": "circle", "params": {"n": 64}},
        "function": scenarios.CONJ, "grid": {"resolution": 64}, "checks": ["green"]})
    report, code = cli.run_scenario(str(path))
    assert verdict.judge(sc, report, code, b"").ok
    report["checks"]["green"]["lhs"][1] *= 1.01
    v = verdict.judge(sc, report, code, b"")
    assert not v.ok and v.worst > 1


def _namespaces():
    from greencurves.vitushkin import PieceSet
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if m is not None and (n == "greencurves" or n.startswith("greencurves."))}
    return mods, dict(vars(PieceSet))


def test_traced_run_restores_modules_and_keeps_report_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("GC_THREADS", "1")
    sc, path = _write(tmp_path, "all", {
        "schema": 1, "seed": 7, "curve": {"family": "circle", "params": {"n": 48}},
        "function": {"family": "monomial", "params": {"a": 0, "b": 1},
                     "cutoff": {"r_inner": 1.8, "r_outer": 2.2}},
        "grid": {"resolution": 64}, "quadrature": {"refine": 2}, "deltas": [0.4, 0.2],
        "discs": [{"center": [1.0, 0.0], "radius": 0.45}],
        "square": {"center": [0.95, 0.1], "half": 0.125, "depth": 3},
        "checks": ["green", "decompose", "vitushkin", "mainlemma", "square", "mollifier"]})
    before = _namespaces()
    plain = run.run_pass(cli, [sc], [path], tmp_path / "plain", svg=True)
    tr = tracer.Tracer()
    with tr.installed():
        traced = run.run_pass(cli, [sc], [path], tmp_path / "traced", svg=True)
    after = _namespaces()
    assert before[1] == after[1]
    assert before[0].keys() == after[0].keys()
    for name in before[0]:
        assert before[0][name] == after[0][name], name
    assert plain[0].verdict.ok and traced[0].verdict.ok
    assert plain[0].report == traced[0].report
    m = tracer.layer_metrics(tr.spans)
    assert m["winding.index_field.cells"] == 2 * 64 * 64  # verify_green and index.svg
    assert m["integration.area_integral_weighted.level1.subcells"] > 0
    assert m["integration.area_integral_weighted.level3.subcells"] == 0  # refine 2
    assert m["mainlemma.exterior_components.calls_per_disc"] == 3
    assert m["vitushkin.PieceSet.eval.calls"] == m["vitushkin.PieceSet.contour_integrals.pieces"]
    assert m["svg.render_svg.bytes"] > 0 and m["curves.jordan_decompose.loops"] == 1
    assert {n for n, _ in tracer.PER_LAYER} - set(m) == {
        *(f"cli.check.{c}_s" for c in tracer.CHECKS), "cli.report_bytes", "trace.overhead_ratio"}
