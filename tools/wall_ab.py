#!/usr/bin/env python3
"""Paired parent/change comparison on the wall-clock benchmark (wallbench/).

Checks out two revisions as fresh git worktrees under WORK_DIR and runs
PAIRS pairs per workload on consecutive seeds (pair i runs both sides on
seed SEED + i; the side that runs first alternates), each side through its
own tree's wallbench/run.py with its own CARGO_TARGET_DIR, so each side's
first run builds that tree as its own run.py does (before the benchmark
starts, so the build is not measured). Every run's JSON verdict line is
kept in --out (default WORK_DIR/raw.jsonl). The worktrees and builds are
removed at the end.
Then, per workload and metric, it prints each side's median with [q1, q3]
(statistics.quantiles, n=4), the median ratio change/parent, the pairs the
change won (ties count for neither side), and a verdict against the
metric's BENCHMARK.json bound:

  gain        the change won at least 9/10 of the pairs, and its median is
              better than the parent's by more than the parent's quartile
              distance (q3 - q1);
  REGRESSION  the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's quartile distance exceeds the bound (as a share
              of its median), so no smaller change can be told from noise;
  in bound    none of these.

Per-layer metrics (--trace 1) have no bound and get no verdict. Failed over
attempted tuples are printed per side; a change whose failed share is larger
than the parent's is flagged too. The exit status is 1 when anything is
flagged. BENCHMARK.json is only read.

    python3 tools/wall_ab.py --parent HEAD~1 --change HEAD \\
        --workloads saturate,paced,replicated --pairs 10 --seed 8101
    python3 tools/wall_ab.py --report WORK_DIR/raw.jsonl   # re-print tables
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def checkout(rev, path):
    """A new detached worktree of `rev` at `path`; returns its commit."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    git("worktree", "add", "--detach", path, sha)
    return sha


def run_once(tree, target, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "wallbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, env=env, text=True, capture_output=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"wall_ab: no verdict from {' '.join(cmd)} "
                         f"(exit {p.returncode}):\n{p.stderr[-2000:]}\n")
        return None


def measure(args, work, out):
    trees = {s: os.path.join(work, s) for s in SIDES}
    targets = {s: os.path.join(work, "target-" + s) for s in SIDES}
    revs = {"parent": args.parent, "change": args.change}
    shas = {}
    try:
        for s in SIDES:
            shas[s] = checkout(revs[s], trees[s])
        for workload in args.workloads.split(","):
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for rank, side in enumerate(order):
                    verdict = run_once(trees[side], targets[side], workload,
                                       seed, args.seconds, args.trace)
                    rec = {"workload": workload, "pair": i, "seed": seed,
                           "side": side, "sha": shas[side], "first": rank == 0,
                           "seconds": args.seconds, "trace": args.trace,
                           "verdict": verdict}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"[{workload} pair {i + 1}/{args.pairs} seed {seed}] "
                          f"{side}: {summary(verdict)}", file=sys.stderr)
    finally:
        for s in SIDES:
            if s in shas:
                git("worktree", "remove", "--force", trees[s])
            shutil.rmtree(targets[s], ignore_errors=True)


def summary(verdict):
    if verdict is None:
        return "no verdict"
    cap = verdict["metrics"].get("capacity_tps", {}).get("value")
    return (f"correct={verdict['correct']} failed={verdict['failed']} "
            f"capacity_tps={cap}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def fmt(x):
    return f"{x:.4g}"


def report(records, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = dict((m["name"], m["better"]) for m in bench["per_layer"])
    better.update((m["name"], m["better"]) for m in bench["end_to_end"])
    flagged = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        pairs = {}
        for r in records:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        seeds = sorted(p["parent"]["seed"] for p in pairs.values()
                       if len(p) == 2)
        full = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        print(f"\n== {workload}: {len(full)} pairs, seeds "
              f"{seeds[0] if seeds else '-'}-{seeds[-1] if seeds else '-'} ==")
        failed = {s: 0 for s in SIDES}
        attempted = {s: 0 for s in SIDES}
        missing = {s: 0 for s in SIDES}
        for p in full:
            for s in SIDES:
                v = p[s]["verdict"]
                if v is None:
                    missing[s] += 1
                    continue
                failed[s] += v["failed"]
                attempted[s] += v["attempted"]
        names = []
        for p in full:
            for s in SIDES:
                if p[s]["verdict"] is not None:
                    names += [n for n in p[s]["verdict"]["metrics"]
                              if n not in names]
        print(f"{'metric':34} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'ratio':>7} {'won':>6}  verdict")
        for name in names:
            vals = {s: [] for s in SIDES}
            wins = 0
            for p in full:
                v = [p[s]["verdict"] for s in SIDES]
                if None in v or any(name not in x["metrics"] for x in v):
                    continue
                a, b = (x["metrics"][name]["value"] for x in v)
                vals["parent"].append(a)
                vals["change"].append(b)
                higher = better.get(name, "lower") == "higher"
                wins += (b > a) if higher else (b < a)
            n = len(vals["parent"])
            if n == 0:
                continue
            med = {s: statistics.median(vals[s]) for s in SIDES}
            q = {s: quartiles(vals[s]) for s in SIDES}
            ratio = med["change"] / med["parent"] if med["parent"] else None
            verdict = ""
            if name in bounds:
                verdict = judge(med, q["parent"], wins, n,
                                bounds[name]["better"] == "higher",
                                bounds[name]["bound"])
                if verdict == "REGRESSION":
                    flagged.append(f"{workload} {name}")
            cells = [f"{fmt(med[s])} [{fmt(q[s][0])}, {fmt(q[s][1])}]"
                     for s in SIDES]
            print(f"{name:34} {cells[0]:34} {cells[1]:34} "
                  f"{(f'{ratio:.3f}' if ratio is not None else 'n/a'):>7} "
                  f"{f'{wins}/{n}':>6}  {verdict}")
        for s in SIDES:
            print(f"failed/attempted {s}: {failed[s]}/{attempted[s]}"
                  + (f", {missing[s]} runs without a verdict" if missing[s]
                     else ""))
        share = {s: failed[s] / attempted[s] if attempted[s] else 0.0
                 for s in SIDES}
        if (share["change"] > share["parent"]
                or missing["change"] > missing["parent"]):
            print("FLAG: the change fails a larger share than the parent")
            flagged.append(f"{workload} failed share")
    return flagged


def judge(med, parent_q, wins, n, higher, bound):
    base = med["parent"]
    if base == 0:
        return "in bound" if med["change"] == 0 else "unresolved"
    gain = (med["change"] - base) if higher else (base - med["change"])
    if -gain / abs(base) > bound:
        return "REGRESSION"
    spread = parent_q[1] - parent_q[0]
    if wins * 10 >= 9 * n and gain > spread:
        return "gain"
    if spread / abs(base) > bound:
        return "unresolved"
    return "in bound"


def main():
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    p.add_argument("--parent", help="revision of the parent side")
    p.add_argument("--change", help="revision of the change side")
    p.add_argument("--workloads", default="saturate,paced,replicated")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, help="seed of the first pair")
    p.add_argument("--seconds", type=int,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work-dir", help="worktrees, builds and raw.jsonl "
                   "(default: a new temporary directory)")
    p.add_argument("--out", help="where to write the raw verdict lines "
                   "(default: WORK_DIR/raw.jsonl; overwritten)")
    p.add_argument("--report", metavar="RAW_JSONL",
                   help="only print the tables of an earlier run")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.report:
        with open(args.report) as f:
            records = [json.loads(l) for l in f if l.strip()]
    else:
        if not (args.parent and args.change and args.seed is not None):
            p.error("--parent, --change and --seed are required to measure")
        if args.seconds is None:
            args.seconds = bench.get("run_seconds", 20)
        work = os.path.abspath(args.work_dir or
                               tempfile.mkdtemp(prefix="wall_ab."))
        os.makedirs(work, exist_ok=True)
        raw = os.path.abspath(args.out or os.path.join(work, "raw.jsonl"))
        with open(raw, "w") as out:
            measure(args, work, out)
        print(f"raw verdict lines: {raw}")
        with open(raw) as f:
            records = [json.loads(l) for l in f if l.strip()]
    flagged = report(records, bench)
    if flagged:
        print("\nflagged: " + "; ".join(flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()
