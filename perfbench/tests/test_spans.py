import json
import os

import pytest

import spans
import workloads
from polarkit import forms, gf, group, polar


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pass": 0, "attrs": {}}


def test_self_time_subtracts_direct_children_only():
    tree = [_span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 1, 2.0, 3.0),
            _span(3, 0, 5.0, 9.0),
            _span(4, None, 11.0, 12.0)]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(11.0)


def test_pass_metrics_fold_constructions_and_ratio():
    tree = [_span(0, None, 0.0, 2.0, "group.orbits"),
            _span(1, 0, 0.5, 1.0, "group.multiplier"),
            _span(2, None, 3.0, 4.0, "constructions.adjoint_sl3"),
            _span(3, None, 4.0, 4.5, "constructions.monomial_map")]
    tree[0]["attrs"] = {"images": 40, "useful": 30}
    m = spans.pass_metrics(tree, {"gf.scalar_ops": 7})
    assert m["group.orbits.calls"] == 1
    assert m["group.orbits.self_s"] == pytest.approx(1.5)
    assert m["group.multiplier.self_s"] == pytest.approx(0.5)
    assert m["group.orbits.useful_ratio"] == pytest.approx(0.75)
    assert m["constructions.self_s"] == pytest.approx(1.5)
    assert m["gf.scalar_ops"] == 7
    assert set(m) == set(spans.LAYER_METRICS)


def test_traced_orbits_are_counted_and_wrappers_removed():
    F = gf.field(3)
    gens = group.classical_generators("Sp", 4, F, self_check=False)
    sp = polar.build(forms.standard_form("W", 4, F))
    before = (group.orbits, gf.FiniteField.__dict__["mul"])
    rec = spans.Recorder()
    with spans.spanning(rec):
        group.orbits(sp, gens)
        with workloads.Clock(rec).untimed():
            group.orbits(sp, gens)      # input generation: not recorded
    rec.end_pass()
    with spans.counting(rec):
        group.orbits(sp, gens)
    assert (group.orbits, gf.FiniteField.__dict__["mul"]) == before
    m = spans.layer_metrics(rec, 1)
    assert m["group.orbits.calls"] == 1
    assert m["group.orbits.images"] == 40 * len(gens)
    assert m["group.orbits.useful_ratio"] == pytest.approx(39 / (40 * len(gens)))
    assert m["group.multiplier.calls"] == len(gens)
    assert m["gf.scalar_ops"] > 0


def test_layer_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert declared == [*spans.LAYER_METRICS.items(), ("trace.overhead_s", "s")]
