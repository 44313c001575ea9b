"""Self-tests of the benchmark's inputs, metric list and tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
import workloads  # noqa: E402
from gtsingular import CLASSICAL, QUANTUM, exactalg  # noqa: E402
from test_action import singular_spec_n3 as fixture_spec  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
def test_seed_zero_is_the_fixture(mode):
    got, want = workloads.singular_spec_n3(0, mode), fixture_spec(mode)
    assert got.base == want.base
    assert got.relations == want.relations
    assert got.singular == want.singular
    assert got.qscale == want.qscale


@pytest.mark.parametrize("seed", range(40))
def test_every_seed_keeps_qscale_and_one_row_two_pair(seed):
    spec = workloads.singular_spec_n3(seed, QUANTUM)
    assert spec.qscale == 462
    assert spec.singular.row == 2
    assert workloads.singular_spec_n3(seed, CLASSICAL).singular == spec.singular


def test_seeds_vary_the_spec():
    assert len({workloads.singular_n3_numerators(s) for s in range(10)}) == 10


def test_benchmark_file_matches_the_code():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracing.per_layer_metrics()
    ]


def test_every_workload_exercises_something():
    for name in workloads.WHY:
        assert any(name in layer.exercised for layer in tracing.LAYERS), name


def test_tracer_rebinds_every_import_site_and_restores_them():
    original = exactalg.fe_sum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from gtsingular import action

        assert action.fe_sum is exactalg.fe_sum is not original
        # test_action, imported above for the fixture, holds its own references
        sites = tracer.unwrapped_sites()
        assert [s for s in sites if not s.endswith("module test_action")] == []
        spec = workloads.singular_spec_n3(0, QUANTUM)
        action.act(action.gen_f(2), spec.window(0)[0], spec)
        assert tracer.calls["action.act"] == 1
        assert tracer.calls["action.ModuleSpec._pieces"] >= 1
    finally:
        tracer.uninstall()
    assert exactalg.fe_sum is original


def test_tracer_reports_a_missed_holder():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        holder = (tracer._originals["exactalg.fe_sum"],)
        assert any(s.startswith("exactalg.fe_sum:") for s in tracer.unwrapped_sites())
        del holder
    finally:
        tracer.uninstall()
