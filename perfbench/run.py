#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

The last line of standard output is the JSON result the benchmark executable
printed; the lines before it are facts about the host and the run. The exit
code is the executable's: non-zero when a correctness gate failed.

    python3 perfbench/run.py --selfcheck --workload write-mix --seed 3

runs the traced run twice with the same seed and checks that every exact
count (allocation words, cursor steps, parts, WAL bytes, cache ratios)
came out identical. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "xbench.exe")
# xbench.exe keeps its scratch files and span dumps here (its own constant too)
OUT = "perfbench-out"
RUN_TIMEOUT_S = 170

# Per-layer metrics that are exact counts: two runs with the same seed must
# agree on them exactly, or the benchmark is broken rather than noisy.
EXACT = (
    "xalgebra.cursor_steps",
    "xstorage.parts_rebuilt",
    "xstorage.parts_kept",
    "xwal.bytes_per_user_byte",
    "xengine.plan_hit_ratio",
    "xengine.fallback_ratio",
)

# Allocation counts repeat only to within a few words per operation: every
# latency observation into an Xobs.Metrics histogram allocates one boxed
# float per bucket step of its search (Metrics.bucket_of), so a few words
# depend on the measured time. Two runs must agree to within this share.
ALLOC = ("alloc_words_per_read", "alloc_words_per_apply")
ALLOC_TOLERANCE = 1e-4


def fact(msg):
    print(msg, flush=True)


def build():
    """Build the executable with dune; the dune cache stays off so nothing is
    written outside the checkout."""
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: no dune-project here; run from the repository root\n")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/xbench.exe"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: build failed\n")
        return False
    return os.path.isfile(EXE)


def source_digest():
    """The commit when the tree is a git checkout, otherwise a digest of the
    library and benchmark sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True,
        ).stdout.strip()
        if rev:
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            ).stdout.strip()
            return "commit " + rev + (" with uncommitted changes" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "source digest " + h.hexdigest()[:16]


def fs_type(path):
    """File-system type of the mount holding [path], from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")):
                    if len(parts[1]) >= len(best):
                        best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def run_once(args, trace):
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: benchmark timed out\n")
        return (None, None), 3
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        fact(line)
    return (result, lines[-1] if result is not None else None), proc.returncode


def selfcheck(args):
    (first, _), rc1 = run_once(args, 1)
    (second, _), rc2 = run_once(args, 1)
    if first is None or second is None:
        sys.stderr.write("run.py: a traced run produced no result\n")
        return 1
    bad = 0
    for name in EXACT + ALLOC:
        a = first["metrics"].get(name, {}).get("value")
        b = second["metrics"].get(name, {}).get("value")
        if a is None and b is None:
            continue
        if name in ALLOC and a is not None and b is not None:
            ok = abs(a - b) <= ALLOC_TOLERANCE * max(abs(a), abs(b))
        else:
            ok = a == b
        bad += not ok
        fact(f"selfcheck {name}: {a} / {b}: {'same' if a == b else 'within tolerance' if ok else 'DIFFERENT'}")
    fact("selfcheck counts: " + ("PASS" if bad == 0 else "FAIL"))
    if rc1 != 0 or rc2 != 0:
        fact(f"selfcheck: the runs themselves exited {rc1} and {rc2} (a correctness gate failed)")
    return 0 if bad == 0 and rc1 == 0 and rc2 == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["serve-mix", "write-mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the traced run twice and compare the exact counts")
    args = ap.parse_args()
    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    fact(f"host: nproc {os.cpu_count()}, {source_digest()}")
    fact(f"scratch: {OUT}/ on {fs_type(OUT)} (WAL and snapshots live there)")
    if args.selfcheck:
        return selfcheck(args)
    (result, line), rc = run_once(args, args.trace)
    if result is None:
        sys.stderr.write("run.py: the benchmark printed no result\n")
        return rc or 1
    print(line, flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
