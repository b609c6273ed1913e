"""Stability proof for the benchmark: ten seeds per workload, twice.

Run one set (from the root of the checkout; each run is one
`bash perfbench/run.sh ... --trace 0`):

    python3 perfbench/proof.py run --seconds 25 --seed0 101 --out set-a.json \\
        elkin-random ghs-large cluster-tcp service-mixed

Compare two sets, per workload and end-to-end metric: each set's median,
the second median against the first, and each set's spread (distance
between the quartiles of statistics.quantiles(values, n=4), over the
median):

    python3 perfbench/proof.py compare set-a.json set-b.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    m = statistics.median(xs)
    return (q[2] - q[0]) / m if m else 0.0


def run_set(args):
    values = {}
    for w in args.workloads:
        for seed in range(args.seed0, args.seed0 + 10):
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                sys.exit(f"{w} seed {seed}: {last['failed']} of {last['attempted']} failed")
            for k, v in last["metrics"].items():
                values.setdefault(w, {}).setdefault(k, []).append(v["value"])
            print(w, seed, {k: round(v["value"], 4) for k, v in sorted(last["metrics"].items())}, flush=True)
    rec = {"seconds": args.seconds, "seeds": [args.seed0, args.seed0 + 9], "values": values}
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")


def compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())["values"]
    b = json.loads(Path(args.b).read_text())["values"]
    print("| workload | metric | bound | median A | median B | B vs A | spread A | spread B |")
    print("|---|---|---|---|---|---|---|---|")
    for w in a:
        for m in spec["end_to_end"]:
            k, bound = m["name"], m["bound"]
            ma, mb = statistics.median(a[w][k]), statistics.median(b[w][k])
            d = (mb - ma) / ma if ma else 0.0
            worse = d if m["better"] == "lower" else -d
            flags = []
            if worse > bound:
                flags.append("median over bound")
            if k != "setup_s" and max(spread(a[w][k]), spread(b[w][k])) > bound:
                flags.append("spread over bound")
            note = f" **{', '.join(flags)}**" if flags else ""
            print(f"| {w} | {k} | {bound} | {ma:.6g} | {mb:.6g} | {d:+.1%}{note} "
                  f"| {spread(a[w][k]):.1%} | {spread(b[w][k]):.1%} |")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seconds", type=int, default=25)
    r.add_argument("--seed0", type=int, default=101)
    r.add_argument("--out", required=True)
    r.add_argument("workloads", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    if args.cmd == "run":
        run_set(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
