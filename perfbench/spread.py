"""Run one workload on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload exact-chains --seeds 1-10 \
        --seconds 36 [--trace 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles and the spread (distance between the
first and third quartile over the median), plus the failed share.  This is
the command behind the reference figures in ``perfbench/README.md``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(rows):
    out = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": rows[0]["metrics"][name]["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    rows = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(json.dumps({"seed": seed, **row}), flush=True)
    shares = {(r["failed"], r["attempted"]) for r in rows}
    print(f"{args.workload}: {len(rows)} runs, correct "
          f"{all(r['correct'] for r in rows)}, failed/attempted "
          f"{sorted({r['failed'] / r['attempted'] for r in rows})} "
          f"from {sorted(shares)}")
    for name, s in summarise(rows).items():
        print(f"  {name:48s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")


if __name__ == "__main__":
    main()
