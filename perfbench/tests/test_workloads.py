from types import SimpleNamespace

import pytest

import reference
import run
import worker
import workloads
from polarkit import manifest


@pytest.mark.parametrize("entry", manifest.SPACE_CORPUS)
def test_closed_forms_match_manifest_corpus(entry):
    (kind, pdim, q), (points, rank, theta) = entry
    assert workloads.rank_theta(kind, pdim + 1, q) == (rank, theta)
    assert workloads.point_count(kind, pdim + 1, q) == points


def test_same_seed_same_inputs_other_seed_same_reports():
    a = workloads.orbit_job("W", 4, 5, seed=1)
    b = workloads.orbit_job("W", 4, 5, seed=1)
    c = workloads.orbit_job("W", 4, 5, seed=2)
    assert a.isometry == b.isometry
    assert a.isometry.matrix != c.isometry.matrix
    exp_a, got_a = a.run(workloads.Clock())
    exp_c, got_c = c.run(workloads.Clock())
    assert exp_a == exp_c == got_a == got_c


def test_desk_corpus_seed_only_reorders_targets():
    one = [j.name for j in workloads.desk_corpus(1)]
    assert one == [j.name for j in workloads.desk_corpus(1)]
    assert sorted(one) == sorted(j.name for j in workloads.desk_corpus(2))
    assert len(one) == 13


def _boom(clock):
    raise AssertionError("self-check failed")


def test_wrong_output_and_raise_are_counted_not_fatal():
    jobs = [workloads.Job("ok", lambda clock: ({"x": 1}, {"x": 1})),
            workloads.Job("wrong", lambda clock: ({"x": 1}, {"x": 2})),
            workloads.Job("raises", _boom)]
    passes = workloads.run_passes(jobs, 0)
    assert [o.status for o in passes[0]] == ["ok", "wrong", "raised"]
    res = {"outcomes": worker.outcomes(passes),
           "job_walls": [[o.wall for o in p] for p in passes],
           "job_refs": [[o.ref for o in p] for p in passes],
           "setup_samples": [[0.5, 0.01]], "peak_rss_kib": 1024}
    line = run.summarize(SimpleNamespace(trace=0), res)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 2)


def test_raise_alone_keeps_outputs_correct():
    jobs = [workloads.Job("ok", lambda clock: ({}, {})),
            workloads.Job("raises", _boom)]
    res = {"outcomes": worker.outcomes(workloads.run_passes(jobs, 0)),
           "job_walls": [[1.0, 1.0]], "job_refs": [[0.01, 0.01]],
           "setup_samples": [[0.5, 0.01]], "peak_rss_kib": 1024}
    line = run.summarize(SimpleNamespace(trace=0), res)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 2, 1)


def test_untimed_input_generation_is_left_out_of_the_pass():
    def job(clock):
        with clock.untimed():
            sum(range(200_000))
        return {}, {}
    (out,), = workloads.run_passes([workloads.Job("gen", job)], 0)
    assert 0 <= out.wall < 0.005


def test_command_lists_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_times_are_scaled_by_the_nearest_reference_times():
    ref = reference.REFERENCE_S
    assert reference.scaled([1.0, 2.0], [ref, ref]) == [1.0, 2.0]
    # a slow stretch doubles both the job and the reference loop
    times = [1.0] * 4 + [2.0] * 4
    refs = [ref] * 4 + [2 * ref] * 4
    assert reference.scaled(times, refs, half=0) == [1.0] * 8
    # the median of the neighbours ignores one stray reference time
    assert reference.scaled([1.0] * 3, [ref, 9 * ref, ref], half=1)[1] == 1.0


def test_wall_is_the_sum_of_per_job_medians():
    ref = reference.REFERENCE_S
    walls = [[1.0, 0.1], [3.0, 0.2], [2.0, 0.9]]
    refs = [[ref, ref]] * 3
    assert run.wall_s(walls, refs) == pytest.approx(2.0 + 0.2)
    assert run.setup_s([[0.4, ref], [0.5, 2 * ref], [0.9, ref]]) == 0.4
