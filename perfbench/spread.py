"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload fleet --seeds 1-10 [--trace 0]

For every metric: the median of its values and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the bound BENCHMARK.json gives it. Run from the root
of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", help="override run_seconds")
    ap.add_argument("--verbose", action="store_true", help="print every value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds or bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  OK" if spread <= bound / 3 else
                                         ("  within bound" if spread <= bound else "  OVER"))
        print(f"{name:32s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.5g}" for v in vs))


if __name__ == "__main__":
    main()
