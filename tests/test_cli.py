import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfspectra import cli
from cfspectra.cli import main


@pytest.fixture(autouse=True)
def cache_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("CFSPECTRA_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestExpand:
    def test_cbrt2_fixture(self, capsys):
        code, rep = run(capsys, "expand", "--poly", "-2,0,0,1", "--depth", "10")
        assert code == 0
        assert rep["result"]["a0"] == 1
        assert rep["result"]["quotients"] == [3, 1, 5, 1, 1, 4, 1, 1, 8, 1]
        assert rep["tool"] == "cfspectra"
        assert "digest" in rep and "timestamp" in rep

    def test_cache_transparency(self, capsys):
        args = ("expand", "--poly", "-2,0,1", "--depth", "30")
        code1, rep1 = run(capsys, *args)
        code2, rep2 = run(capsys, *args)
        code3, rep3 = run(capsys, *args, "--no-cache")
        assert (code1, code2, code3) == (0, 0, 0)
        assert rep1["result"]["cache"] == "miss"
        assert rep2["result"]["cache"] == "hit"
        for rep in (rep1, rep2, rep3):
            rep["result"].pop("cache")
            rep.pop("timestamp")
            rep.pop("digest")
            rep["config"].pop("no_cache")
        assert rep1 == rep2 == rep3

    def test_integer_root(self, capsys):
        # (x - 3)(x^2 + 3): the real root is exactly the integer 3
        code, rep = run(capsys, "expand", "--poly=-9,3,-3,1", "--root-index", "0")
        assert code == 0
        assert (rep["result"]["a0"], rep["result"]["quotients"]) == (3, [])
        assert rep["result"]["terminated"] is True

    # sqrt(10^100 + 1) = [10^50; 2 10^50, 2 10^50, ...]: q_100 has over 5000
    # digits, past the default 4300-digit limit of int <-> str (Python 3.11+)
    BIG_QUOTIENTS = f"--poly=-{10**100 + 1},0,1"

    @staticmethod
    def run_big(capsys, *argv):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code = main(list(argv))
        out = capsys.readouterr().out
        if limit is None:
            return code, json.loads(out)
        assert sys.get_int_max_str_digits() == limit  # main restores the limit
        sys.set_int_max_str_digits(0)
        try:
            return code, json.loads(out)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_expand_cache_digest_past_4300_digits(self, capsys):
        for outcome in ("miss", "hit"):
            code, rep = self.run_big(capsys, "expand", self.BIG_QUOTIENTS, "--depth", "100")
            assert code == 0
            assert rep["result"]["cache"] == outcome
            assert rep["result"]["quotients"] == [2 * 10**50] * 100

    def test_convergents_past_4300_digits(self, capsys):
        code, rep = self.run_big(
            capsys, "convergents", self.BIG_QUOTIENTS, "--depth", "100", "--no-cache"
        )
        assert code == 0
        convs = rep["result"]["convergents"]
        assert len(convs) == 101
        assert convs[-1]["q"].bit_length() > 5000 * 3.32

    def test_digest_excludes_timestamp(self, capsys):
        _, rep1 = run(capsys, "expand", "--poly", "-3,0,1", "--depth", "5", "--no-cache")
        _, rep2 = run(capsys, "expand", "--poly", "-3,0,1", "--depth", "5", "--no-cache")
        assert rep1["digest"] == rep2["digest"]


class TestFixtures:
    def test_period_sqrt7(self, capsys):
        code, rep = run(capsys, "period", "--poly", "-7,0,1")
        assert code == 0
        assert rep["result"] == {"preperiod": [2], "period": [1, 1, 1, 4]}

    def test_verify_sqrt2(self, capsys):
        code, rep = run(capsys, "verify", "--poly", "-2,0,1", "--depth", "50")
        assert code == 0
        assert rep["result"]["all_pass"] is True

    def test_convergents_word(self, capsys, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text('{"a0": 0, "quotients": [1, 2, 3]}')
        code, rep = run(capsys, "convergents", "--word", str(wf))
        assert code == 0
        rows = rep["result"]["convergents"]
        assert [(r["p"], r["q"]) for r in rows] == [(0, 1), (1, 1), (2, 3), (7, 10)]

    def test_word_file_newline_format(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("1\n2\n2\n2\n")
        code, rep = run(capsys, "convergents", "--word", str(wf))
        assert code == 0
        assert rep["result"]["convergents"][0] == {"n": 0, "p": 1, "q": 1}

    def test_complexity(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("0\n" + "\n".join("12" * 20))
        code, rep = run(capsys, "complexity", "--word", str(wf), "--max-n", "3")
        assert code == 0
        assert [row["p"] for row in rep["result"]["complexity"]] == [2, 2, 2]


class TestDetectAndHarness:
    def test_detect_shared(self, capsys):
        code, rep = run(
            capsys,
            "detect", "--kind", "shared",
            "--poly", "-2,0,1", "--poly2", "-1,0,2",
            "--depth", "30", "--L", "4", "--min-b", "20",
        )
        assert code == 0
        assert rep["result"]["witnesses"]
        assert all(w["m"] >= 20 for w in rep["result"]["witnesses"])

    def test_detect_csv(self, capsys, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text('{"a0": 1, "quotients": [2, 3, 2, 3, 2, 3]}')
        code = main(
            ["detect", "--kind", "repetition", "--word", str(wf), "--L", "4", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0]
        assert set(header.split(",")) == {"kA", "kA_prime", "m", "ratio", "mirror"}

    def test_harness_transport(self, capsys):
        code, rep = run(
            capsys, "harness", "--kind", "transport",
            "--prefix", "1,2", "--prefix2", "2,1", "--block", "3,4",
        )
        assert code == 0
        assert rep["result"]["holds"] is True

    def test_harness_job_auto(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "alpha": [-2, 0, 1],
                    "alpha_prime": [-1, 0, 2],
                    "depth": 40,
                    "auto": {"L": "4", "minB": 25},
                }
            )
        )
        code, rep = run(capsys, "harness", "--job", str(job))
        assert code == 0
        wits = rep["result"]["witnesses"]
        assert wits and all(w["l1_holds"] for w in wits)
        assert rep["result"]["undecided"] == 0

    def test_orbit_scan(self, capsys):
        code, rep = run(
            capsys, "orbit", "--kind", "scan", "--poly", "-2,0,1",
            "--height", "100", "--min-norm", "10",
        )
        assert code == 0
        assert rep["result"]["records"]


class TestConfigAndErrors:
    def test_config_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("depth=7\nbits=128\n")
        code, rep = run(capsys, "expand", "--poly", "-2,0,1", "--config", str(cfg))
        assert code == 0
        assert rep["config"]["depth"] == 7
        code, rep = run(
            capsys, "expand", "--poly", "-2,0,1", "--config", str(cfg), "--depth", "3"
        )
        assert rep["config"]["depth"] == 3  # flag beats config file

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense=1\n")
        code = main(["expand", "--poly", "-2,0,1", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown config key" in err

    def test_malformed_poly_exit_1(self, capsys):
        assert main(["expand", "--poly", "1,x,3"]) == 1
        assert "malformed polynomial" in capsys.readouterr().err

    def test_malformed_word_line_number(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("1\n2\noops\n")
        code = main(["convergents", "--word", str(wf)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{wf}:3" in err

    def test_word_file_letter_below_one_detect(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("0\n1\n2\n0\n2\n")
        code = main(["detect", "--kind", "repetition", "--word", str(wf)])
        assert code == 1
        assert f"{wf}:4" in capsys.readouterr().err

    def test_word_file_letter_below_one_convergents(self, capsys, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text('{"a0": -2, "quotients": [1, -3, 2]}')
        code = main(["convergents", "--word", str(wf)])
        assert code == 1
        assert f"{wf}:1" in capsys.readouterr().err
        # a0 may be any integer
        wf.write_text('{"a0": -2, "quotients": [1, 3, 2]}')
        assert main(["convergents", "--word", str(wf)]) == 0

    def test_detect_nonpositive_L(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("1\n2\n1\n2\n")
        for L in ("0", "-1/2"):
            assert main(["detect", "--kind", "shared", "--word", str(wf), "--word2", str(wf), "--L", L]) == 1
            assert main(["detect", "--kind", "repetition", "--word", str(wf), "--L", L]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_harness_l1_witness_past_depth(self, capsys):
        code = main(
            ["harness", "--kind", "l1", "--poly=-2,0,1", "--poly2=-3,0,1",
             "--depth", "10", "--k", "9", "--l", "9", "--m", "9"]
        )
        assert code == 1
        assert "depth 18" in capsys.readouterr().err
        code = main(
            ["harness", "--kind", "growth", "--poly=-2,0,1", "--poly2=-3,0,1",
             "--depth", "10", "--k", "-3", "--l", "1", "--m", "1"]
        )
        assert code == 1
        assert "negative" in capsys.readouterr().err

    def test_gap_scan_nonpositive_parameters(self, capsys):
        base = ["orbit", "--kind", "gap", "--poly=-2,0,0,1", "--depth", "20"]
        assert main([*base, "--epsilon", "0"]) == 1
        assert main([*base, "--k", "0"]) == 1
        assert main([*base, "--k", "2", "--epsilon", "1/3"]) == 0

    def test_orbit_scan_zero_bits(self, capsys):
        # used to raise ValueError from refine_to, with and without --poly2
        base = ["orbit", "--kind", "scan", "--poly=-2,0,0,1", "--height", "3"]
        assert main([*base, "--bits", "0"]) == 1
        assert main([*base, "--poly2=-2,0,1", "--bits", "0"]) == 1

    def test_orbit_quadratic_mode_cubic_alpha(self, capsys):
        # used to raise ValueError from quadratic_norm
        argv = ["orbit", "--kind", "scan", "--poly=-2,0,0,1", "--poly2=-2,0,0,1",
                "--height", "3", "--mode", "quadratic"]
        assert main(argv) == 1
        assert main([*argv[:-1], "classic"]) == 0

    def test_missing_subcommand_args(self, capsys):
        assert main(["expand"]) == 1

    def test_batch(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        jobs.write_text(
            f"expand --poly -2,0,1 --depth 5 --output {out1}\n"
            f"period --poly -7,0,1 --output {out2}\n"
        )
        assert main(["batch", str(jobs)]) == 0
        assert json.loads(out1.read_text())["result"]["quotients"] == [2] * 5
        assert json.loads(out2.read_text())["result"]["period"] == [1, 1, 1, 4]

    def test_batch_rejects_nested_batch(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        out = tmp_path / "r.json"
        jobs.write_text(f"expand --poly -2,0,1 --depth 5 --output {out}\nbatch {jobs}\n")
        assert main(["batch", str(jobs)]) == 1
        assert f"{jobs}:2:" in capsys.readouterr().err
        assert not out.exists()  # rejected before any job ran


EXPAND = ["expand", "--poly=-2,0,0,1", "--depth", "40", "--no-cache"]
DETECT = ["detect", "--kind", "shared", "--poly=-2,0,0,1", "--poly2=-3,0,0,1",
          "--depth", "60", "--L", "3", "--mirror", "--no-cache"]
BAD = ["expand", "--poly=-2,0,1", "--depth", "x"]


def _python(*args):
    """A fresh interpreter that imports this checkout's cfspectra."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _fresh_process(argv):
    proc = _python("-m", "cfspectra.cli", *argv)
    return proc.returncode, proc.stdout


class TestOneParserPerProcess:
    @pytest.mark.parametrize("first,second", [(EXPAND, DETECT), (DETECT, EXPAND)])
    def test_jobs_in_one_process_match_fresh_processes(self, capsys, first, second):
        fresh = {}
        for argv in (first, second):
            code, out = _fresh_process(argv)
            assert code == 0
            fresh[argv[0]] = json.loads(out)["digest"]
        assert _fresh_process(BAD)[0] == 1
        digests = []
        for argv in (first, second, BAD, first):
            code, rep = run(capsys, *argv)
            if argv is BAD:
                assert code == 1
                continue
            assert code == 0
            digests.append((argv[0], rep["digest"]))
        assert digests == [(a[0], fresh[a[0]]) for a in (first, second, first)]

    def test_parser_keeps_no_state(self, capsys):
        assert main(EXPAND) == 0
        parser = cli._PARSER
        for _ in range(2):
            with pytest.raises(cli.InputError, match="invalid int value: 'x'"):
                parser.parse_args(BAD)
        shared = parser.parse_args(["detect", "--kind", "shared", "--L", "3", "--mirror", "--word", "w"])
        plain = parser.parse_args(["detect", "--kind", "repetition", "--word", "w"])
        assert (shared.L, shared.mirror) == ("3", True)
        assert (plain.L, plain.mirror) == (None, None)
        assert main(EXPAND) == 0
        assert cli._PARSER is parser

    def test_import_does_no_work(self):
        code = ("import sys; import cfspectra.cli as cli; "
                "assert 'mpmath' not in sys.modules, 'mpmath imported'; "
                "assert cli._PARSER is None, 'parser built at import'")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
