"""Tests for the benchmark's own logic: span arithmetic, derived ratios, the
verdict gate, and complete, side-effect-free tracing of the program."""

from __future__ import annotations

import json

import pytest

import run as bench
import svtrace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def play(events):
    """Drive a tracer with ("enter", t, name, layer[, key]) / ("exit", t)."""
    clock = FakeClock()
    tracer = svtrace.Tracer(clock)
    for kind, t, *rest in events:
        clock.now = t
        if kind == "enter":
            tracer.enter(*rest)
        else:
            tracer.exit()
    return tracer


def test_self_time_on_nested_span_tree():
    tracer = play([
        ("enter", 0, "cli.run", "cli"),
        ("enter", 1, "vertex_core.transfer", "vertex_core"),
        ("enter", 2, "vertex_core.monodromy", "vertex_core"),
        ("exit", 3),
        ("exit", 4),
        ("enter", 5, "functional_system.f_n", "functional_system"),
        ("enter", 6, "vertex_core.b_operator", "vertex_core"),
        ("enter", 6.5, "vertex_core.monodromy", "vertex_core"),
        ("exit", 7.5),
        ("exit", 8),
        ("exit", 9),
        ("exit", 10),
    ])
    assert tracer.self_time["cli"] == pytest.approx(3.0)
    assert tracer.self_time["vertex_core"] == pytest.approx(5.0)
    assert tracer.self_time["functional_system"] == pytest.approx(2.0)
    assert sum(tracer.self_time.values()) == pytest.approx(10.0)
    assert tracer.calls("vertex_core.monodromy") == 2
    assert tracer.busy("vertex_core.monodromy") == pytest.approx(2.0)
    assert tracer.busy("vertex_core.transfer") == pytest.approx(3.0)


def test_recursive_span_counts_busy_once():
    tracer = play([
        ("enter", 0, "prefix_oracle.parse", "prefix_oracle"),
        ("enter", 2, "prefix_oracle.parse", "prefix_oracle"),
        ("exit", 5),
        ("exit", 10),
    ])
    assert tracer.calls("prefix_oracle.parse") == 2
    assert tracer.busy("prefix_oracle.parse") == pytest.approx(10.0)
    assert tracer.self_time["prefix_oracle"] == pytest.approx(10.0)
    # The oracle layer is entered once, from outside it.
    assert tracer.oracle_calls == 1
    assert tracer.oracle_busy == pytest.approx(10.0)


def test_unique_frac():
    tracer = play([
        ("enter", 0, "vertex_core.transfer", "vertex_core", (0.5j, "p")),
        ("exit", 1),
        ("enter", 1, "vertex_core.transfer", "vertex_core", (0.5j, "p")),
        ("exit", 2),
        ("enter", 2, "vertex_core.transfer", "vertex_core", (0.7j, "p")),
        ("exit", 3),
    ])
    assert tracer.unique_frac("vertex_core.transfer") == pytest.approx(2 / 3)
    assert tracer.unique_frac("vertex_core.monodromy") == 0.0


def test_fits_per_state_and_bytes_computed():
    events = []
    for t in range(2):
        events.append(("enter", t, "zeros.extract_zeros", "zeros"))
        events += [("enter", t, "zeros.poly_in_x", "zeros"), ("exit", t)] * 11
        events.append(("exit", t))
    events += [("enter", 3, "vertex_core.monodromy", "vertex_core"),
               ("exit", 3)] * 3
    bench.import_program()
    metrics = svtrace.layer_metrics(play(events), L=2, records=7)
    assert metrics["zeros.fits_per_state"] == (11.0, "ratio")
    assert metrics["vertex_core.monodromy.bytes_computed"] == (
        3 * 4 * 16 * 16, "bytes")
    assert metrics["cli.records"] == (7, "count")
    empty = svtrace.layer_metrics(svtrace.Tracer(), L=2, records=0)
    assert empty["zeros.fits_per_state"] == (0.0, "ratio")


def test_mismatch_counter_on_one_flipped_verdict():
    expected = bench.load_expected("rou_L6_l4")
    reference = bench.expected_verdicts(expected, expected["default_seed"])
    flipped = [list(item) for item in reference]
    flipped[5][1] = "pass" if flipped[5][1] == "fail" else "fail"
    assert bench.count_mismatches(reference, reference) == 0
    assert bench.count_mismatches(flipped, reference) == 1
    assert bench.count_mismatches(flipped[:-2], reference) == 3


def test_expected_verdicts_applies_seed_deviations():
    expected = {"verdicts": [["a", "pass"], ["b", "pass"]],
                "recorded_seeds": {"1": [], "4": [[1, "fail"]]}}
    assert bench.expected_verdicts(expected, 1) == [["a", "pass"], ["b", "pass"]]
    assert bench.expected_verdicts(expected, 4) == [["a", "pass"], ["b", "fail"]]
    assert bench.expected_verdicts(expected, 9) is None


def test_gate_counts_runs_that_differ():
    expected = {"verdicts": [["a", "pass"], ["b", "fail"]],
                "recorded_seeds": {"1": []}}
    ok = (1.0, [["a", "pass"], ["b", "fail"]], "text")
    flipped = (1.0, [["a", "pass"], ["b", "pass"]], "text")
    other_text = (1.0, ok[1], "other text")
    assert bench.gate([ok, ok], expected, 1) == (0, 0.0)
    assert bench.gate([flipped, ok], expected, 1) == (1, 0.5)
    assert bench.gate([ok, other_text], expected, 1) == (1, 0.0)
    # An unrecorded seed is gated on the check names only.
    assert bench.gate([flipped], expected, 7) == (0, 0.0)


def test_benchmark_json_matches_reported_metrics():
    bench.import_program()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    layer = svtrace.layer_metrics(svtrace.Tracer(), L=2, records=0)
    layer["trace_overhead_s"] = (0.0, "s")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "setup_s", "peak_rss_mb"}


def test_tracing_covers_every_binding_and_changes_no_report(tmp_path):
    cli = bench.import_program()
    import sixvertex.functional_system as fs
    import sixvertex.vertex_core as vc

    transfer = vc.transfer
    argv = ["--size", "3", "--seed", "2", "--out", str(tmp_path / "r.txt")]
    _, _, plain = bench.timed_run(cli, cli.build_config(argv))
    tracer = svtrace.Tracer()
    with svtrace.traced(tracer):
        assert fs.transfer is vc.transfer is not transfer
        assert fs.EigenState.lam.__wrapped__ is not None
        _, _, traced = bench.timed_run(cli, cli.build_config(argv))
    assert vc.transfer is transfer and fs.transfer is transfer
    assert not hasattr(fs.EigenState.lam, "__wrapped__")
    assert traced == plain
    assert tracer.calls("functional_system.EigenState.lam") > 0
    assert tracer.calls("vertex_core.transfer") > 0
    assert tracer.busy("cli.suite.zeros") > 0
