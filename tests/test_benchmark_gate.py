"""The benchmark's oracle as a tier-1 gate.

One pass of the held-out seed of every perfbench workload, run and judged by
perfbench's own run_pass, load_reference and compare_reference: every job
must give its expected exit code, pass the oracle's reference-free checks
and agree with the recorded reference answers.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 1000


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_held_out_seed_passes_the_oracle(workload, tmp_path, monkeypatch):
    # run_pass points CFSPECTRA_CACHE_DIR at its own directories; monkeypatch
    # puts the variable back as it was after the test
    monkeypatch.setenv("CFSPECTRA_CACHE_DIR", str(tmp_path / "unused"))
    cli = run.import_cli()
    jobs = workloads.WORKLOADS[workload](HELD_OUT_SEED)
    ref = run.load_reference(workload, HELD_OUT_SEED, jobs)
    assert ref is not None, f"no reference recorded for {workload} seed {HELD_OUT_SEED}"
    check = oracle.Oracle()
    check.prepare(jobs)
    result = run.run_pass(cli, jobs, tmp_path / "pass", check, workload == "expand_deep")
    run.compare_reference(result.outcomes, ref)
    failed = [(" ".join(job.argv), o.code, o.error, o.problems)
              for job, o in zip(jobs, result.outcomes)
              if o.code != job.expect_exit or o.problems]
    assert not failed
