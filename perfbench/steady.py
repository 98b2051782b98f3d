"""Steadiness check: run one workload N times and summarise each metric.

    python3 perfbench/steady.py --workload table1 --runs 10 [--first-seed 1]
        [--seconds N] [--trace 0|1]

Run ``i`` uses seed ``first-seed + i``.  For every metric the command prints
the median, the quartiles (``statistics.quantiles(values, n=4)``), min, max
and the spread: the interquartile distance as a share of the median.  For
end-to-end metrics it also prints the bound from ``BENCHMARK.json`` and
whether the spread is below a third of it, which is how the bounds were set.
Seconds default to ``run_seconds`` from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}

    values = {}
    units = {}
    for index in range(args.runs):
        seed = args.first_seed + index
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        output = subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        lines = output.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            failed_cells = [line for line in lines if line.startswith("# failed_cells:")]
            print("seed {}: correct=false ({} of {} failed) {}".format(
                seed, result["failed"], result["attempted"], " ".join(failed_cells)))
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        print("seed {} done".format(seed), file=sys.stderr, flush=True)

    print("{:32s} {:>11s} {:>11s} {:>11s} {:>11s} {:>11s} {:>7s} {:>6s}".format(
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "{:6.3f} {}".format(bound, "ok" if spread < bound / 3 else "WIDE")
        print("{:32s} {:11.5g} {:11.5g} {:11.5g} {:11.5g} {:11.5g} {:7.3f} {} [{}]".format(
            name, median, q1, q3, min(series), max(series), spread, verdict, units[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
