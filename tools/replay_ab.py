#!/usr/bin/env python3
"""Replay gate: bundles recorded at the parent must replay at the change.

Checks out two revisions as fresh git worktrees under WORK_DIR (with
tools/wall_ab.py's helpers) and builds each in Release: at the parent the
recording suites (chaos_test, worker_chaos_test, membership_chaos_test,
record_replay_test), at the change tools/sjoin_replay. It runs each suite at
the parent with SJOIN_RECORD_KEEP_DIR=WORK_DIR/bundles/<suite>, so every
chaos run keeps its `.sjrec` bundles and live artifacts, then runs the
change's

    sjoin_replay --bundle <dir>/rank<R>.sjrec --verify <dir>

on every bundle. Per suite and per kind of rank (master = rank 0, collector
= the highest rank of its run, slave = the rest) it prints the bundles, the
sends checked, the send mismatches, the control divergences and the failed
verifies (a replayed artifact that differs from the live file, or a bundle
that does not load). The exit status is 1 when any of those three is not 0,
2 when a checkout or a build fails, a suite fails at the parent or no bundle
was recorded, else 0.

It adds worktrees to the repo it runs from and removes them at the end, with
the builds, so run it from a clone when the working copy must stay
untouched; revisions must be commits. The bundles stay in WORK_DIR/bundles
when the gate fails, else they are removed too.

    python3 tools/replay_ab.py --parent origin/main --change HEAD
"""
import argparse
import collections
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile

from wall_ab import checkout, git

SUITES = ("chaos", "worker_chaos", "membership_chaos", "record_replay")
KEEP_VAR = "SJOIN_RECORD_KEEP_DIR"
JOBS = os.cpu_count() or 2  # build jobs, and replays run at once


def fail(msg):
    print(f"replay_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def build(tree, targets, log):
    bdir = os.path.join(tree, "build")
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", tree, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", bdir, "-j", str(JOBS), "--target",
                     *targets]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed in {tree}; see {log}")
    return bdir


def record(bdir, suite, keep_dir, log):
    os.makedirs(keep_dir, exist_ok=True)
    env = dict(os.environ, **{KEEP_VAR: keep_dir})
    with open(log, "w") as out:
        p = subprocess.run([os.path.join(bdir, "tests", suite + "_test")],
                           cwd=bdir, env=env, stdout=out,
                           stderr=subprocess.STDOUT)
    return p.returncode == 0


def bundles(keep_dir):
    """(path, kind) of every bundle under keep_dir, sorted."""
    found = []
    for d, _, files in os.walk(keep_dir):
        ranks = sorted(int(m.group(1)) for m in
                       (re.fullmatch(r"rank(\d+)\.sjrec", f) for f in files)
                       if m)
        for r in ranks:
            kind = ("master" if r == 0 else
                    "collector" if r == ranks[-1] else "slave")
            found.append((os.path.join(d, f"rank{r}.sjrec"), kind))
    return sorted(found)


def verify(replay_bin, bundle):
    p = subprocess.run([replay_bin, "--bundle", bundle, "--verify",
                        os.path.dirname(bundle)], text=True,
                       capture_output=True)
    sends = re.search(r"sends verified: (\d+) checked, (\d+) mismatches",
                      p.stdout)
    return {
        "checked": int(sends.group(1)) if sends else 0,
        "mismatches": int(sends.group(2)) if sends else 0,
        "divergence": "control-flow divergence" in p.stderr,
        "failed": p.returncode != 0,
        "output": (p.stdout + p.stderr).strip(),
    }


def gate(trees, work):
    """Records, verifies and prints the table; returns the exit status."""
    parent_bin = build(trees["parent"], [s + "_test" for s in SUITES],
                       os.path.join(work, "build-parent.log"))
    change_bin = build(trees["change"], ["sjoin_replay"],
                       os.path.join(work, "build-change.log"))
    replay_bin = os.path.join(change_bin, "tools", "sjoin_replay")

    broken = []
    table = collections.OrderedDict()
    bad = []
    for suite in SUITES:
        keep_dir = os.path.join(work, "bundles", suite)
        log = os.path.join(work, suite + ".log")
        if not record(parent_bin, suite, keep_dir, log):
            broken.append(f"{suite}_test failed at the parent; see {log}")
        found = bundles(keep_dir)
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(lambda b: verify(replay_bin, b[0]), found))
        for (path, kind), res in zip(found, results):
            row = table.setdefault((suite, kind), collections.Counter())
            row["bundles"] += 1
            row["sends"] += res["checked"]
            row["mismatches"] += res["mismatches"]
            row["divergences"] += res["divergence"]
            row["failed"] += res["failed"]
            if res["failed"] or res["divergence"] or res["mismatches"]:
                bad.append((os.path.relpath(path, work), res["output"]))

    cols = ("bundles", "sends", "mismatches", "divergences", "failed")
    print(f"\n{'suite':18} {'kind':10}" + "".join(f"{c:>12}" for c in cols))
    total = collections.Counter()
    for (suite, kind), row in table.items():
        total.update(row)
        print(f"{suite:18} {kind:10}" + "".join(f"{row[c]:>12}" for c in cols))
    print(f"{'all':18} {'':10}" + "".join(f"{total[c]:>12}" for c in cols))
    if not total["bundles"]:
        broken.append("no bundle was recorded")
    for path, output in bad:
        print(f"\nDIVERGED {path}:\n{output}")
    for b in broken:
        print(f"\nERROR {b}")
    return 1 if bad else 2 if broken else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("--parent", required=True, help="revision that records")
    ap.add_argument("--change", required=True, help="revision that replays")
    ap.add_argument("--work-dir", help="worktrees, builds, logs and bundles "
                    "(default: a new temporary directory)")
    args = ap.parse_args()
    work = os.path.abspath(args.work_dir or tempfile.mkdtemp(prefix="replay_ab."))
    os.makedirs(work, exist_ok=True)
    trees = {"parent": os.path.join(work, "parent"),
             "change": os.path.join(work, "change")}
    shas = {}
    status = 2
    try:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            try:
                shas[side] = checkout(rev, trees[side])
            except subprocess.CalledProcessError as e:
                fail(f"cannot check out {rev}: {e.stderr.strip()}")
        print(f"parent {shas['parent']}\nchange {shas['change']}")
        status = gate(trees, work)
    finally:
        for side in shas:
            git("worktree", "remove", "--force", trees[side])
        bundle_dir = os.path.join(work, "bundles")
        if status == 0:
            shutil.rmtree(bundle_dir, ignore_errors=True)
        elif os.path.isdir(bundle_dir):
            print(f"\nbundles kept in {bundle_dir}")
    sys.exit(status)


if __name__ == "__main__":
    main()
