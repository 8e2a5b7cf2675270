"""Tests of the benchmark itself: python3 -m pytest ctbench"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ctpow  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, Span  # noqa: E402


def test_self_times_on_synthetic_tree():
    spans = [
        Span("operation", "bench", 0.0, 10.0, None),
        Span("exact_coefficient", "recurrence", 1.0, 9.0, 0),
        Span("coefficient_mod_prime", "engine", 2.0, 5.0, 1),
        Span("inverse_vandermonde_row", "interp", 3.0, 4.0, 2),
        Span("reconstruct", "rns", 6.0, 8.0, 1),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.0, 1.0, 2.0]
    by_layer = tracing.self_by(spans, lambda sp: sp.layer)
    assert sum(by_layer.values()) == pytest.approx(10.0)
    assert by_layer["engine"] == 2.0


def test_overlapping_children_are_not_counted_twice():
    spans = [
        Span("root", "bench", 0.0, 10.0, None),
        Span("a", "engine", 2.0, 5.0, 0),
        Span("b", "engine", 4.0, 6.0, 0),
        Span("c", "engine", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_self_times_add_up_to_the_traced_call():
    rec = Recorder(spans=[
        Span("operation", "bench", 0.0, 7.0, None),
        Span("constant_term_series", "recurrence", 0.5, 6.0, 0),
        Span("normalize", "laurent", 0.6, 0.7, 1),
        Span("select_primes", "rns", 0.8, 1.0, 1),
        Span("coefficient_mod_prime", "engine", 1.0, 5.0, 1),
        Span("inverse_vandermonde_row", "interp", 1.5, 2.5, 4),
        Span("reconstruct", "rns", 5.0, 5.5, 1),
        Span("fit_recurrence", "recurrence", 6.2, 6.8, 0),
    ])
    m = tracing.layer_metrics(rec)
    assert sum(m[k] for k in run.SELF_KEYS) == pytest.approx(m["trace.solve_s"])
    assert m["engine.self_s"] == pytest.approx(3.0)
    assert m["interp.row_s"] == pytest.approx(1.0)
    assert m["rns.select_primes_s"] + m["rns.reconstruct_s"] == pytest.approx(0.7)
    assert m["recurrence.fit_s"] == pytest.approx(0.6)
    assert m["trace.other_s"] == pytest.approx(0.9)


@pytest.mark.parametrize("workload, seed", [("walk2d", 3), ("coeff39", 1),
                                            ("series39", 2)])
def test_wrong_value_makes_failed_frac_positive(workload, seed):
    spec = workloads.inputs(workload, seed)
    ref = workloads.reference(ctpow, workload, spec)
    if workload == "series39":
        terms = ref["terms"][:spec["power"] + 1]
        right = {"terms": [str(t) for t in terms], "hits": []}
        wrong = dict(right, terms=right["terms"][:-1] + [str(terms[-1] + 1)])
    else:
        right, wrong = str(ref["value"]), str(ref["value"] - 1)
    ops = [{"error": workloads.check(ctpow, workload, spec, ref, r),
            "solve_s": 1.0, "setup_s": 0.1, "cpu_s": 1.0, "peak_rss_mib": 30.0}
           for r in (right, right, wrong)]
    assert [op["error"] is None for op in ops] == [True, True, False]
    metrics = run.end_to_end(ops)
    assert metrics["failed_frac"] == pytest.approx(1 / 3)
    assert metrics["ok_frac"] == pytest.approx(2 / 3)


def test_walk_closed_form_matches_the_oracle():
    h = ctpow.parse_laurent(workloads.WALK)
    for p in (4, 5):
        for a in range(-p - 1, p + 2):
            for b in range(-p - 1, p + 2):
                assert (workloads.walk_coefficient(p, a, b)
                        == ctpow.naive_power_coeff(h, p, (a, b)))


@pytest.mark.parametrize("sample", workloads.SAMPLES)
def test_operator_series_extends_a_short_prefix_correctly(sample):
    h = ctpow.sample_polynomial(sample)
    oracle = [ctpow.naive_power_coeff(h, p) for p in range(8)]
    polys = ctpow.operator_to_recurrence(ctpow.sample_operator(sample)).polys
    assert workloads.operator_series(polys, oracle[:3], 8) == oracle
    with pytest.raises(ValueError):
        workloads.operator_series(polys, [1, 0, oracle[2] + 1], 4)


def test_seeds_pick_inputs_with_the_same_code_path():
    assert workloads.inputs("coeff39", 0)["sample"] == "39"
    for seed in range(200):
        a, b = workloads.inputs("walk2d", seed)["index"]
        p = workloads.WALK_POWER
        assert a != 0 and a != b and (a + b + p) % 2 == 0
        assert workloads.walk_coefficient(p, a, b) != 0
        for w in ("coeff39", "series39"):
            assert workloads.inputs(w, seed)["sample"] in workloads.SAMPLES


def test_declared_metrics_match_what_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == [HERE.name]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = run.end_to_end([{"error": None, "solve_s": 1.0, "setup_s": 0.1,
                               "cpu_s": 1.0, "peak_rss_mib": 30.0}])
    del emitted["failed_frac"]
    assert set(e2e) == set(emitted)
    rec = Recorder(spans=[Span("operation", "bench", 0.0, 1.0, None)])
    names = set(tracing.layer_metrics(rec))
    names |= {"recurrence.idle_frac", "trace.overhead_frac"}
    assert set(layer) == names
    for name, u in {**e2e, **layer}.items():
        assert run.unit(name) == u, name
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def _cold(spec):
    spec = dict(spec, root=str(ROOT), spawned=time.monotonic())
    out = subprocess.run([sys.executable, str(HERE / "cold.py"),
                          json.dumps(spec)], capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_traced_call_counts_repeat_and_self_times_add_up():
    spec = {"workload": "walk2d", "threads": 1, "trace": True,
            "setup_only": False,
            "inputs": {"poly": workloads.WALK, "power": 12, "index": [2, -4]}}
    first, second = _cold(spec), _cold(spec)
    assert first["error"] is None
    assert int(first["result"]) == workloads.walk_coefficient(12, 2, -4)
    m = first["layers"]
    assert sum(m[k] for k in run.SELF_KEYS) == pytest.approx(m["trace.solve_s"])
    for key in run.EXACT_KEYS:
        assert m[key] == second["layers"][key], key
    assert m["interp.rows_built"] == 2 * m["engine.calls"] > 0
    assert m["engine.calls"] == m["rns.primes"] == m["recurrence.tasks"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "walk2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
