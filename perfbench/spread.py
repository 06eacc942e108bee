"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sync-cache --runs 10 [--first-seed 1]
    python3 perfbench/spread.py --workload sync-cache --runs 10 --same-seed 7

Runs the benchmark command from BENCHMARK.json ``--runs`` times, one run
at a time, each for the file's ``run_seconds``, and prints each
end-to-end metric's median and its interquartile range as a share of the
median, next to the metric's bound.  A spread should stay below a third
of its bound.  By default run ``k`` uses seed ``first-seed + k``, so the
spread holds differences between seeds as well as host noise;
``--same-seed`` repeats one seed, which leaves only the noise a
comparison of two versions on one seed sees.  ``--out`` appends every
result line to a JSONL file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)
from perfbench.stats import median, relative_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if args.same_seed is not None:
        seeds = [args.same_seed] * args.runs
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values: dict[str, list[float]] = {}
    for seed in seeds:
        proc = subprocess.run(
            spec["command"]
            + ["--workload", args.workload, "--seed", str(seed)]
            + ["--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        line = proc.stdout.splitlines()[-1] if proc.stdout else "{}"
        if args.out is not None:
            with args.out.open("a") as out:
                out.write(line + "\n")
        result = json.loads(line)
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: done", file=sys.stderr)
    print(f"{'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = relative_spread(series)
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(
            f"{metric['name']:28s} {median(series):14.6g} {spread:8.3f} "
            f"{metric['bound']:6.2f}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
