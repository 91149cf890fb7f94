"""Runs the benchmark on one workload with several seeds and prints, for
each metric, the median and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.

    python3 e2ebench/spread.py miss_large 1,2,3,4,5,6,7,8,9,10 [seconds] [trace]

Run it from the root of the checkout; it calls e2ebench/run.sh.
"""
import json
import statistics
import subprocess
import sys


def main():
    workload, seeds = sys.argv[1], sys.argv[2].split(",")
    seconds = sys.argv[3] if len(sys.argv) > 3 else "25"
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    values = {}
    for seed in seeds:
        out = subprocess.run(
            ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True, check=True).stdout
        last = json.loads(out.strip().splitlines()[-1])
        if not last["correct"] or last["failed"]:
            sys.exit(f"seed {seed}: correct={last['correct']} failed={last['failed']}\n{out}")
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(seed, {k: round(v["value"], 4) for k, v in sorted(last["metrics"].items())}, flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:12.5g}  spread {spread:.4f}")


if __name__ == "__main__":
    main()
