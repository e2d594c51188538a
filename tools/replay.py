"""Replay the benchmark's jobs on another revision and compare the answers.

    python3 tools/replay.py REV

Run from a source checkout. REV is checked out in a temporary git worktree.
Every distinct job of seeds 0-9 and 1000 of the three perfbench workloads is
then run in-process through `cfspectra.cli.main` with `--no-cache`, once on
REV's sources and once on the working tree's, each in its own interpreter.
Exit codes and report digests are compared job by job. At the first job
that differs, its argv and both `result` objects are printed.

Exit status: 0 when every job agrees, 1 when one differs, 2 when REV cannot
be checked out. Only the standard library and git are used; the jobs come
from perfbench/workloads.py, which is imported and not changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [*range(10), 1000]


def distinct_jobs() -> list[list[str]]:
    """The argv of every distinct job, in first-seen order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = (tuple(job.argv) for make in workloads.WORKLOADS.values()
             for seed in SEEDS for job in make(seed))
    return [list(argv) for argv in dict.fromkeys(argvs)]


def run_jobs(src: str, jobs: list[list[str]], keep_results: bool = False) -> list:
    """In a fresh interpreter: (exit code, digest, result or None) per job.

    A job that raises gives ("raised", exception name, None)."""
    sys.path.insert(0, src)
    from cfspectra import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "cfspectra").resolve():
        raise RuntimeError(f"imported cfspectra from {cli.__file__}, not from {src}")
    out = []
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        report = Path(tmp) / "report.json"
        for argv in jobs:
            report.unlink(missing_ok=True)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main([*argv, "--no-cache", "--output", str(report)])
                except Exception as e:  # a crash is an answer too
                    out.append(("raised", type(e).__name__, None))
                    continue
            digest = result = None
            if report.exists():
                rep = json.loads(report.read_text())
                digest = rep.get("digest")
                result = rep.get("result") if keep_results else None
            out.append((code, digest, result))
    return out


def on_both(srcs: list[str], jobs: list[list[str]], keep_results: bool = False) -> list[list]:
    spawn = multiprocessing.get_context("spawn")  # one interpreter per source tree
    with ProcessPoolExecutor(max_workers=len(srcs), mp_context=spawn) as pool:
        futures = [pool.submit(run_jobs, src, jobs, keep_results) for src in srcs]
        return [f.result() for f in futures]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    jobs = distinct_jobs()
    with tempfile.TemporaryDirectory(prefix="replay-tree-") as tmp:
        tree = Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT), "worktree"]
        add = subprocess.run([*git, "add", "--detach", str(tree), rev],
                             capture_output=True, text=True)
        if add.returncode != 0:
            print(f"replay: cannot check out {rev}: {add.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            srcs = [str(tree / "src"), str(ROOT / "src")]
            theirs, ours = on_both(srcs, jobs)
            for job, a, b in zip(jobs, theirs, ours):
                if a[:2] != b[:2]:
                    print(f"differs: {' '.join(job)}")
                    ra, rb = on_both(srcs, [job], keep_results=True)
                    for label, (code, digest, result) in ((rev, ra[0]), ("working tree", rb[0])):
                        print(f"  {label}: exit {code}, digest {digest}")
                        print(f"    result {json.dumps(result)}")
                    return 1
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], capture_output=True)
    codes = Counter(code for code, _, _ in ours)
    summary = ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items(), key=str))
    print(f"{len(jobs)} distinct jobs agree with {rev} on exit code and digest ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
