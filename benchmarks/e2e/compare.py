#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``, or one commit with itself.

    python3 benchmarks/e2e/compare.py BASE.json CAND.json
    python3 benchmarks/e2e/compare.py --aa [--seed N] [--seconds S] [--repeat K]

One row per workload x end-to-end metric: both medians, the candidate as a
ratio of the base, and a verdict by the metric's bound -

* ``unresolved`` when either side's own run-to-run spread (interquartile range
  over median) is wider than the bound: the runs cannot tell;
* ``regressed`` / ``improved`` when the medians differ by more than the bound;
* ``unchanged`` otherwise.

Files whose seed, window length, ``inputs_sha256`` or input sizes differ are
refused: they did not measure the same thing.  ``--aa`` runs every workload
``--repeat`` times per side on this checkout, alternating which side goes
first, and exits non-zero if any verdict is not ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from run import DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, WORKLOAD_NAMES  # noqa: E402


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def end_to_end_runs(record: dict) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for run in record["runs"]:
        if run["trace"] == 0:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def refuse_if_different(base: Dict[str, List[dict]], cand: Dict[str, List[dict]]) -> None:
    for workload in sorted(set(base) | set(cand)):
        if workload not in base or workload not in cand:
            raise SystemExit(f"refused: {workload} is in only one of the files")
        identity = {
            (run["seed"], run["seconds"], run["inputs_sha256"],
             run["stream"]["patterns"], run["stream"]["batches"])
            for run in base[workload] + cand[workload]
        }
        if len(identity) != 1:
            raise SystemExit(
                f"refused: {workload} ran on different inputs (seed, seconds, inputs_sha256, "
                f"patterns, batches): {sorted(identity)}"
            )


def compare(base: Dict[str, List[dict]], cand: Dict[str, List[dict]]) -> List[dict]:
    rows = []
    for workload in WORKLOAD_NAMES:
        if workload not in base:
            continue
        for name, unit, better, bound in END_TO_END:
            before = [run["metrics"][name]["value"] for run in base[workload]]
            after = [run["metrics"][name]["value"] for run in cand[workload]]
            base_median, cand_median = statistics.median(before), statistics.median(after)
            worse = (cand_median - base_median) / base_median * (1 if better == "lower" else -1)
            noise = max(spread(before), spread(after))
            if noise > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "base": base_median,
                "cand": cand_median, "ratio": cand_median / base_median, "spread": noise,
                "bound": bound, "runs": (len(before), len(after)), "verdict": verdict,
            })
        failed = [sum(run["failed"] for run in side[workload]) for side in (base, cand)]
        attempted = [sum(run["attempted"] for run in side[workload]) for side in (base, cand)]
        rates = [f / max(1, a) for f, a in zip(failed, attempted)]
        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "ratio", "base": rates[0],
            "cand": rates[1], "ratio": float("nan"), "spread": 0.0, "bound": 0.0,
            "runs": (len(base[workload]), len(cand[workload])),
            "verdict": "regressed" if rates[1] > rates[0] else "improved" if rates[1] < rates[0] else "unchanged",
        })
    return rows


def show(rows: Sequence[dict]) -> None:
    print(f"{'workload':<15} {'metric':<15} {'base':>12} {'cand':>12} {'cand/base':>10} "
          f"{'spread':>7} {'bound':>6} {'runs':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<15} {row['metric']:<15} {row['base']:>12.5g} {row['cand']:>12.5g} "
              f"{row['ratio']:>10.3f} {row['spread']:>7.3f} {row['bound']:>6.2f} "
              f"{row['runs'][0]:>3}/{row['runs'][1]:<2}  {row['verdict']}  ({row['unit']})")


def run_side_by_side(seed: int, seconds, repeat: int) -> List[Dict[str, List[dict]]]:
    """The same checkout as side A and side B, alternating which runs first."""
    from program import scratch_dir

    sides: List[Dict[str, List[dict]]] = [{}, {}]
    with scratch_dir() as work:
        out = Path(work) / "run.json"
        for round_number in range(repeat):
            for workload in WORKLOAD_NAMES:
                for side in ((0, 1) if round_number % 2 == 0 else (1, 0)):
                    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
                    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                    if done.returncode != 0:
                        sys.stdout.write(done.stdout)
                        raise SystemExit(f"{workload} failed on side {'AB'[side]}")
                    sides[side].setdefault(workload, []).append(json.loads(out.read_text()))
                    print(f"round {round_number + 1}/{repeat} {workload} side {'AB'[side]} done", flush=True)
    return sides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="BASE.json CAND.json")
    parser.add_argument("--aa", action="store_true", help="run this checkout against itself")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--repeat", type=int, default=10, help="--aa: runs per workload and side")
    parser.add_argument("--out", help="--aa: write both sides' runs as JSON")
    args = parser.parse_args(argv)
    if args.aa:
        seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds
        base, cand = run_side_by_side(args.seed, seconds, args.repeat)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump({"seed": args.seed, "seconds": seconds, "A": base, "B": cand}, handle, indent=1)
    elif len(args.files) == 2:
        base, cand = (end_to_end_runs(json.loads(Path(path).read_text())) for path in args.files)
    else:
        parser.error("give BASE.json CAND.json, or --aa")
    refuse_if_different(base, cand)
    rows = compare(base, cand)
    show(rows)
    moved = [row for row in rows if row["verdict"] != "unchanged"]
    if args.aa and moved:
        print(f"A/A: {len(moved)} of {len(rows)} rows moved on identical code")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
