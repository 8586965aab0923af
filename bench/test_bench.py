"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

import math
import os
import sys
import time

import run

run.import_padicells()

import tracer  # noqa: E402
import workloads  # noqa: E402

INF = math.inf


def test_percentile_counts_failures_as_infinitely_slow():
    latencies = [0.3, 0.1, INF, 0.2, INF]
    assert run.percentile(latencies, 50) == 0.3
    assert run.percentile(latencies, 60) == 0.3
    assert run.percentile(latencies, 61) == INF
    assert run.percentile(latencies, 90) == INF
    # a failure is slower than every success, so it can only raise a percentile
    assert run.percentile([5.0] * 9 + [INF], 90) == 5.0
    assert run.percentile([5.0] * 8 + [INF] * 2, 90) == INF
    assert run.finite_ms(INF) == run.INF_MS
    assert run.finite_ms(0.25) == 250.0


def test_tail_percentile_keeps_ten_operations_beyond_it():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(5000) == 90
    assert run.tail_percentile(99) == 89
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(21) == 52
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(3) == 50
    for n in range(21, 200):
        q = run.tail_percentile(n)
        assert n - math.ceil(q * n / 100) >= 10
        assert q == 90 or n - math.ceil((q + 1) * n / 100) < 10


def test_self_time_subtracts_child_spans_and_counted_calls():
    spans = [
        tracer.Span("a", 0.0, 10.0, None, 0, leaf_s=0.5),
        tracer.Span("b", 1.0, 4.0, 0, 0, leaf_s=0.25),
        tracer.Span("c", 5.0, 6.0, 0, 0),
        tracer.Span("d", 2.0, 3.0, 1, 0),
    ]
    assert tracer.self_times(spans) == [10 - 3 - 1 - 0.5, 3 - 1 - 0.25, 1.0, 1.0]


def test_traced_operation_accounts_for_all_its_time():
    """Self times of spans and counted calls add up to the root spans'
    durations, and patching reaches calls made between padicells modules."""
    op = workloads.univariate_ops(3)[1]
    t = tracer.Tracer()
    t.install()
    try:
        op.run()
    finally:
        t.uninstall()
    from padicells import cells

    assert not hasattr(cells.fiber_membership, "__wrapped__")
    own = sum(tracer.self_times(t.spans)) + sum(e[2] for e in t.counts.values())
    roots = sum(s.end - s.start for s in t.spans if s.parent is None)
    roots += sum(e[1] for (_, parent), e in t.counts.items() if parent is None)
    assert math.isclose(own, roots, rel_tol=1e-9)
    layers = tracer.layer_metrics(t)
    assert layers["cells.fiber_membership.calls"] > 0
    assert layers["padic.in_coset.calls"] > 0
    assert op.label.startswith("univariate p=3 N=6 ")
    assert layers["decompose.verify_prepared.classes"] == 3**6
    assert layers["oracle.calls"] == 0


def test_generators_are_deterministic(tmp_path):
    for make in (workloads.oracle_ops, workloads.univariate_ops, workloads.engine_ops):
        first = [op.label for op in make(7)]
        assert first == [op.label for op in make(7)]
        assert first != [op.label for op in make(8)]

    def cli_labels(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        launch = workloads.Launcher(sys.executable, run.child_env(), str(workdir))
        return [op.label for op in workloads.cli_ops(seed, launch)], sorted(os.listdir(workdir))

    first = cli_labels(7, "a")
    assert first == cli_labels(7, "b")
    assert first[0] != cli_labels(8, "c")[0]


def test_oracle_corpus_is_large_and_univariate_keeps_the_conjugate_pairs():
    assert len(workloads.oracle_ops(1)) >= 100
    for seed in (1, 2):
        labels = [op.label for op in workloads.univariate_ops(seed)]
        assert "univariate p=2 N=10 f=[-17,0,1]" in labels
        assert "univariate p=2 N=10 f=[7,0,1]" in labels


def test_screen_takes_known_defects_out_of_the_loop():
    ops = workloads.univariate_ops(1)
    kept, known = workloads.screen(ops)
    assert [op.label for op in known] == [
        "univariate p=2 N=10 f=[-17,0,1]", "univariate p=2 N=10 f=[7,0,1]"]
    assert kept == [op for op in ops if op not in known]
    oracle = workloads.oracle_ops(1)
    assert workloads.screen(oracle) == (oracle, [])


def test_deepest_n_stops_at_the_cpu_budget():
    def burn(n):
        end = time.process_time() + 0.01 * 3 ** (n - 1)
        while time.process_time() < end:
            pass

    assert run.deepest_n(burn, 0.2, 10) == 3
    assert run.deepest_n(burn, 0.2, 2) == 2


def test_rescale_to_the_calibration_speed():
    slow, fast = 2 * run.CALIBRATION_S, run.CALIBRATION_S / 2
    assert run.rescale([0.1, 0.1, INF], [slow, fast, slow]) == [0.05, 0.2, INF]
    assert run.rescale([0.3], [run.CALIBRATION_S]) == [0.3]
    assert run.rescale([0.1], [4 * run.CALIBRATION_S], 0.5) == [0.05]
