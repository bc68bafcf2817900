"""The claim rule of ``tools/ab_pairs.py`` on synthetic paired samples."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", ROOT / "tools" / "ab_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_wins_and_a_gap_beyond_the_parent_spread_claim():
    tool = load_tool()
    change = [x - 0.1 for x in PARENT]
    change[3] = 1.2  # one loss of ten
    got = tool.decide(PARENT, change, "lower")
    assert (got["wins"], got["losses"]) == (9, 1)
    assert got["verdict"] == "claim"
    assert got["parent"]["samples"] == PARENT
    first, median, third = got["parent"]["quartiles"]
    assert first <= median == got["parent"]["median"] <= third
    # 18 of 20 pairs is nine tenths too
    faster = [x - 0.1 for x in PARENT * 2]
    faster[0] = faster[1] = 1.2
    assert tool.decide(PARENT * 2, faster, "lower")["verdict"] == "claim"


def test_eight_wins_or_a_gap_inside_the_spread_claim_nothing():
    tool = load_tool()
    change = [x - 0.1 for x in PARENT]
    change[3] = change[5] = 1.2
    assert tool.decide(PARENT, change, "lower")["verdict"] == "no claim"
    # ten wins, but by less than the parent's interquartile range
    small = [x - 0.005 for x in PARENT]
    got = tool.decide(PARENT, small, "lower")
    assert got["wins"] == 10 and got["verdict"] == "no claim"
    # the share, not the count: 17 of 20 pairs is short
    faster = [x - 0.1 for x in PARENT * 2]
    faster[0] = faster[1] = faster[2] = 1.2
    assert tool.decide(PARENT * 2, faster, "lower")["verdict"] == "no claim"


def test_ties_count_for_neither_side_and_direction_is_respected():
    tool = load_tool()
    got = tool.decide(PARENT, PARENT, "lower")
    assert (got["wins"], got["losses"], got["verdict"]) == (0, 0, "no claim")
    higher = [x + 0.1 for x in PARENT]
    assert tool.decide(PARENT, higher, "higher")["verdict"] == "claim"
    assert tool.decide(PARENT, higher, "lower")["losses"] == 10


def test_a_change_that_fails_the_gate_claims_nothing():
    tool = load_tool()
    metric = [{"name": "run_s", "unit": "s", "better": "lower"}]
    runs = [{"side": side, "correct": side == "parent" or pair != 4,
             "metrics": {"run_s": {"value": x - 0.1 * (side == "change")}}}
            for pair, x in enumerate(PARENT) for side in ("parent", "change")]
    got = tool.summarize(runs, metric)
    assert got["incorrect_runs"] == {"parent": 0, "change": 1}
    assert got["metrics"]["run_s"]["wins"] == 10
    assert got["metrics"]["run_s"]["verdict"] == "no claim"
    for run in runs:
        run["correct"] = True
    assert tool.summarize(runs, metric)["metrics"]["run_s"]["verdict"] == "claim"
