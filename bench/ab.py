#!/usr/bin/env python3
"""A/B two built farmbench binaries on one workload.

usage: bench/ab.py PARENT_EXE CHANGE_EXE --workload W --seed N
                   --pairs P --seconds S [--gc]

Runs `EXE run --workload W --seed N --seconds S --trace 0` for both
binaries in alternating order (odd pairs parent first, even pairs change
first, so drift on the host hits both sides alike).  From each run it
reads the last JSON line and the batch digest of the `rep:` lines.  For
every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the change of the medians, the pairs the change won and
whether the median gap exceeds the parent's interquartile range.  With
--gc each run also prints OCaml's GC totals at exit
(OCAMLRUNPARAM=v=0x400), and the major and minor collection counts are
summarised the same way.

Exits 1 when a run fails or reports `"correct": false`, or when the two
binaries' digests differ (the change moved the simulation).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# used when BENCHMARK.json cannot be read
DEFAULT_METRICS = [
    ("sim_s_per_wall_s", "higher"), ("setup_s", "lower"),
    ("deploy_ms_p50", "lower"), ("deploy_ms_p90", "lower"),
    ("response_sim_ms_p50", "lower"), ("response_sim_ms_p80", "lower"),
    ("ok_share", "higher"), ("heap_peak_mb", "lower"),
]

GC_FIELDS = ["major_collections", "minor_collections"]


def end_to_end_metrics():
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        return [(m["name"], m["better"]) for m in spec["end_to_end"]]
    except (OSError, ValueError, KeyError):
        return DEFAULT_METRICS


def run_once(exe, args):
    env = dict(os.environ)
    if args.gc:
        env["OCAMLRUNPARAM"] = "v=0x400"
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if p.returncode != 0:
        sys.exit("ab: %s exited %d\n%s" % (" ".join(cmd), p.returncode,
                                           p.stderr[-2000:]))
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.exit("ab: %s printed no JSON line" % exe)
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit("ab: %s reported an incorrect run" % exe)
    digests = sorted(set(re.findall(r"digest ([0-9a-f]+)", p.stdout)))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if args.gc:
        for field in GC_FIELDS:
            m = re.search(r"^%s:\s*(\d+)" % field, p.stderr, re.M)
            if m:
                values[field] = float(m.group(1))
    return values, digests


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--gc", action="store_true")
    args = ap.parse_args()
    args.parent = os.path.abspath(args.parent)
    args.change = os.path.abspath(args.change)

    runs = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            exe = args.parent if side == "parent" else args.change
            values, ds = run_once(exe, args)
            runs[side].append(values)
            digests[side].update(ds)
        print("pair %d/%d: sim_s_per_wall_s parent %.4f change %.4f"
              % (i + 1, args.pairs, runs["parent"][-1].get("sim_s_per_wall_s", 0),
                 runs["change"][-1].get("sim_s_per_wall_s", 0)), flush=True)

    metrics = end_to_end_metrics()
    if args.gc:
        metrics += [(f, "lower") for f in GC_FIELDS]
    print("\n%s seed %d, %d pairs, --seconds %g"
          % (args.workload, args.seed, args.pairs, args.seconds))
    print("%-22s %-30s %-30s %8s %6s %s"
          % ("metric", "parent median [q1..q3]", "change median [q1..q3]",
             "change", "wins", "gap>IQR"))
    for name, better in metrics:
        ps = [r[name] for r in runs["parent"] if name in r]
        cs = [r[name] for r in runs["change"] if name in r]
        if len(ps) != args.pairs or len(cs) != args.pairs:
            continue
        p1, pm, p3 = quartiles(ps)
        c1, cm, c3 = quartiles(cs)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(ps, cs) if sign * (b - a) > 0)
        rel = 100.0 * (cm - pm) / pm if pm else 0.0
        gap = sign * (cm - pm) > (p3 - p1)
        print("%-22s %-30s %-30s %+7.1f%% %3d/%-2d %s"
              % (name, "%.4g [%.4g..%.4g]" % (pm, p1, p3),
                 "%.4g [%.4g..%.4g]" % (cm, c1, c3), rel, wins, args.pairs,
                 "yes" if gap else "no"))
    print("digests: parent %s, change %s"
          % (",".join(sorted(digests["parent"])) or "-",
             ",".join(sorted(digests["change"])) or "-"))
    if digests["parent"] != digests["change"]:
        print("FAIL: the two binaries' digests differ", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
