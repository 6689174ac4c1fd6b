"""Steadiness check: do two sets of benchmark runs agree within the bounds?

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--first-seed 1000]

Runs `run.py --trace 0` for `runs` distinct seeds per workload, once per
set, sets one after the other. For each end-to-end metric and set it
prints the median and quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median. The sets agree when, for every metric, each
spread except that of setup_s is within the metric's bound in
BENCHMARK.json, each later set's median is no worse than the first's by
more than the bound, and every set has the same share of failed
operations. A spread above a third of its bound is flagged as too
loose for tuning. The full table goes to perfbench/out/steady-*.json.
Exit code 0 when the sets agree and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)
    metrics = spec["end_to_end"]
    report = {}
    ok = True
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                r = run_once(w, seed, spec["run_seconds"])
                ok &= r["correct"]
                results.append(r)
                print(f"{w} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                    flush=True)
            sets.append({
                "failed_share": [r["failed"] / r["attempted"] for r in results],
                "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                                  for r in results]) for m in metrics},
            })
        shares = {x for st in sets for x in st["failed_share"]}
        verdicts = {"failed_share_equal": len(shares) == 1}
        ok &= verdicts["failed_share_equal"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            base = sets[0]["metrics"][name]["median"]
            for s, st in enumerate(sets):
                st_m = st["metrics"][name]
                drift = (st_m["median"] - base) / base
                worse = drift if m["better"] == "lower" else -drift
                spread_ok = name == "setup_s" or st_m["spread"] <= bound
                agree = spread_ok and worse <= bound
                ok &= agree
                flag = "" if st_m["spread"] <= bound / 3 else "  spread > bound/3"
                print(f"{w:17s} {name:18s} set {s}: median {st_m['median']:.6g} "
                      f"q1 {st_m['q1']:.6g} q3 {st_m['q3']:.6g} "
                      f"spread {st_m['spread']:.4f} drift {drift:+.4f} "
                      f"bound {bound} {'ok' if agree else 'FAIL'}{flag}")
        print(f"{w}: failed shares {sorted(shares)}")
        report[w] = {"sets": sets, **verdicts}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'AGREE' if ok else 'DISAGREE'}; table in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
