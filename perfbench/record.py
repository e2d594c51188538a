"""Record the oracle's reference answers from the current sources.

    python3 perfbench/record.py SEED [SEED ...]

Run from the root of a checkout of the commit whose answers become the
reference. For each seed and workload it runs one pass and writes
`perfbench/reference/<workload>-<seed>.json`: per job the exit code, a digest
of the certified content and the enclosures rounded outward. A job that
raised is stored as null; the oracle's own expectations still apply to it. A
report that fails a reference-free check is not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracle
import run
import workloads


def record(cli, workload: str, seed: int, scratch: Path) -> Path:
    jobs = workloads.WORKLOADS[workload](seed)
    check = oracle.Oracle()
    check.prepare(jobs)
    result = run.run_pass(cli, jobs, scratch / f"{workload}-{seed}", check,
                          workload == "expand_deep")
    entries = []
    for job, o in zip(jobs, result.outcomes):
        if o.problems:
            raise SystemExit(f"not recording {workload} seed {seed}: "
                             f"{' '.join(job.argv)}: {'; '.join(o.problems)}")
        entries.append(None if o.code is None else {
            "exit": o.code,
            "exact": o.exact,
            "enclosures": [oracle.outward(e) for e in o.enclosures],
        })
    path = run.REFERENCE / f"{workload}-{seed}.json"
    doc = {"workload": workload, "seed": seed, "jobs_digest": run.jobs_digest(jobs),
           "jobs": entries}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    cli = run.import_cli()
    run.REFERENCE.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.WORK, prefix="record-"))
    try:
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                print(record(cli, workload, seed, scratch), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
