"""Run the benchmark of two checkouts in alternating pairs and decide a claim.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N \\
        [--seconds S] [--seed SEED] --out OUT.json

PARENT and CHANGE are the roots of two source checkouts.  Both ``src``
trees are compiled first (``python -m compileall -q``): where
``PYTHONDONTWRITEBYTECODE`` is set, a missing or stale ``.pyc`` is compiled
again by every interpreter that imports the module, and ``setup_s`` would
count that.  Then each pair runs ``svbench/run.py --workload W --seconds S
--seed SEED`` once in each checkout, each a fresh process with the checkout
as its working directory.  The parent runs first in even pairs (0, 2, ...)
and the change first in odd ones, so a drift of the machine's speed falls
on both sides alike.  The tool reads ``svbench/`` and writes nothing there;
svbench itself writes its ``.svbench_out/`` in each checkout.

``OUT.json`` holds every run's metrics and gate result, and per end-to-end
metric of ``BENCHMARK.json`` (next to this tool): per side the median, the
quartiles and every sample; the pairs the change wins and loses, ties
counting for neither; and a verdict.  The verdict is ``claim`` only when
the change wins at least nine tenths of the pairs, the gap between the
medians, taken in the metric's better direction, exceeds the parent's
interquartile range, and no run of the change reads ``correct: false``
while every parent run reads it true; otherwise it is ``no claim``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# a claim needs wins in at least CLAIM_WINS of every CLAIM_OF pairs run
CLAIM_WINS, CLAIM_OF = 9, 10


def quartiles(samples) -> list:
    """First quartile, median and third quartile (``inclusive`` method)."""
    return statistics.quantiles(samples, n=4, method="inclusive")


def decide(parent, change, better: str) -> dict:
    """The claim rule on one metric's paired samples: ``parent[i]`` and
    ``change[i]`` are pair i.  `better` is ``lower`` or ``higher``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    sides = {name: {"median": statistics.median(xs), "quartiles": quartiles(xs),
                    "samples": list(xs)}
             for name, xs in zip(SIDES, (parent, change))}
    first, _, third = sides["parent"]["quartiles"]
    gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
    claim = CLAIM_OF * wins >= CLAIM_WINS * len(parent) and gap > third - first
    return {**sides, "wins": wins, "losses": losses,
            "verdict": "claim" if claim else "no claim"}


def compile_src(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(checkout / "src")], check=True)


def run_svbench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``svbench/run.py`` process in `checkout`; its closing JSON line."""
    proc = subprocess.run(
        [sys.executable, "svbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True,
        timeout=10 * seconds + 300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs, end_to_end) -> dict:
    """Per metric of `end_to_end` (``BENCHMARK.json`` entries), `decide` on
    the runs' values, pair by pair; a change with a run the gate failed
    claims nothing unless the parent had one too."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    incorrect = {side: sum(not r["correct"] for r in rs)
                 for side, rs in by_side.items()}
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in by_side[side]]
                          for side in SIDES)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     **decide(parent, change, metric["better"])}
        if incorrect["change"] > 0 and incorrect["parent"] == 0:
            out[name]["verdict"] = "no claim"
    return {"incorrect_runs": incorrect, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for checkout in checkouts.values():
        compile_src(checkout)
    runs = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_svbench(checkouts[side], args.workload, args.seconds,
                                 args.seed)
            runs.append({"pair": pair, "side": side, **result})
            print(f"pair {pair} {side}:", {k: v["value"] for k, v
                                           in result["metrics"].items()},
                  "correct" if result["correct"] else "INCORRECT", flush=True)
    summary = summarize(runs, end_to_end)
    meta = {"parent": str(checkouts["parent"]), "change": str(checkouts["change"]),
            "workload": args.workload, "pairs": args.pairs,
            "seconds": args.seconds, "seed": args.seed}
    args.out.write_text(json.dumps({"meta": meta, **summary, "runs": runs},
                                   indent=1) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g}, change "
              f"{m['change']['median']:.4g} {m['unit']}, change wins "
              f"{m['wins']}/{args.pairs}: {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
