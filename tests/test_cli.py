import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cfspectra.algebraic
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

    def test_cache_key_is_the_minimal_polynomial(self, capsys, cache_tmp):
        # the same root given three ways shares one entry, named as before
        outcomes = []
        for poly in ("-2,0,0,1", "2,0,0,-1", "-6,0,0,3"):
            code, rep = run(capsys, "expand", f"--poly={poly}", "--depth", "10")
            assert code == 0
            outcomes.append(rep["result"]["cache"])
        assert outcomes == ["miss", "hit", "hit"]
        key = hashlib.sha256(json.dumps([[-2, 0, 0, 1], -1, 10]).encode()).hexdigest()
        assert [p.name for p in (cache_tmp / "cache").iterdir()] == [f"{key}.json"]

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


def _old_format(entry: dict) -> dict:
    """The entry as earlier versions wrote it: a digest of every convergent."""
    word = cli.CFExpansion(entry["a0"], entry["quotients"])
    digest = hashlib.sha256(json.dumps(cli.convergents(word)).encode()).hexdigest()
    return {**{k: entry[k] for k in ("a0", "quotients", "terminated")},
            "convergents_digest": digest}


class TestCache:
    EXPAND = ("expand", "--poly=-2,0,0,1", "--depth", "10")
    WORD = (1, [3, 1, 5, 1, 1, 4, 1, 1, 8, 1])

    def expand(self, capsys):
        code, rep = run(capsys, *self.EXPAND)
        assert code == 0
        result = rep["result"]
        assert (result["a0"], result["quotients"], result["terminated"]) == (*self.WORD, False)
        return result["cache"]

    # each wrong shape comes with a digest of that shape, so the shape check
    # alone has to refuse it
    @pytest.mark.parametrize("shape", [
        {"quotients": "3151"},
        {"quotients": None},
        {"quotients": [3, 0, 5]},
        {"a0": "1"},
        {"a0": True},
        {"terminated": "no"},
    ], ids=["string-quotients", "null-quotients", "letter-zero", "string-a0", "bool-a0",
            "string-terminated"])
    def test_malformed_entry_is_recomputed(self, capsys, cache_tmp, shape):
        def damage(entry, text):
            entry = {**entry, **shape}
            word = entry["a0"], entry["quotients"], entry["terminated"]
            return json.dumps({**entry, "word_digest": cli._word_digest(*word)})

        self.check_recomputed(capsys, cache_tmp, damage)

    @pytest.mark.parametrize("damage", [
        lambda entry, text: "[1, 2]",
        lambda entry, text: json.dumps({**entry, "quotients": [3, 1, 6, 1, 1, 4, 1, 1, 8, 1]}),
        lambda entry, text: text[: len(text) // 2],
        lambda entry, text: "\udcff",
        lambda entry, text: json.dumps(_old_format(entry)),
    ], ids=["list", "tampered-quotient", "truncated", "not-utf8", "old-format"])
    def test_damaged_entry_is_recomputed(self, capsys, cache_tmp, damage):
        self.check_recomputed(capsys, cache_tmp, damage)

    def check_recomputed(self, capsys, cache_tmp, damage):
        assert self.expand(capsys) == "miss"
        (path,) = (cache_tmp / "cache").iterdir()
        text = path.read_text()
        path.write_bytes(damage(json.loads(text), text).encode(errors="surrogateescape"))
        assert self.expand(capsys) == "miss"
        assert self.expand(capsys) == "hit"

    def test_cache_dir_is_a_file(self, capsys, cache_tmp, monkeypatch):
        blocker = cache_tmp / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("CFSPECTRA_CACHE_DIR", str(blocker))
        code = main(list(self.EXPAND))
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "CFSPECTRA_CACHE_DIR" in captured.err and "--no-cache" in captured.err
        code, rep = run(capsys, *self.EXPAND, "--no-cache")
        assert (code, rep["result"]["cache"]) == (0, "off")


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

    def test_orbit_quadratic_mode_needs_poly2(self, capsys):
        # used to exit 0 with the rational baseline's records
        argv = ["orbit", "--kind", "scan", "--poly=-2,0,0,1", "--height", "5"]
        assert main([*argv, "--mode", "quadratic"]) == 1
        err = capsys.readouterr().err
        assert "--mode quadratic" in err and "--poly2" in err
        assert main(argv) == 0

    def test_orbit_quadratic_mode_rejects_min_norm(self, capsys, tmp_path):
        # used to exit 0 with the same records for every --min-norm
        argv = ["orbit", "--kind", "scan", "--poly=-2,0,0,1", "--poly2=-3,0,1",
                "--mode", "quadratic", "--height", "6"]
        for min_norm in ("0", "1000"):
            assert main([*argv, "--min-norm", min_norm]) == 1
            assert "--min-norm" in capsys.readouterr().err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("min_norm=3\n")
        assert main([*argv, "--config", str(cfg)]) == 1
        assert main([*argv, "--min-norm", "2"]) == 0  # the default is accepted
        assert main([*argv[:-3], "classic", "--height", "6", "--min-norm", "1000"]) == 0

    def test_orbit_precision_cap_exits_2(self, capsys, monkeypatch):
        # a Moebius image not isolated at the cap used to end in a traceback
        monkeypatch.setattr(cfspectra.algebraic, "REFINE_HARD_CAP", 32)
        argv = ["orbit", "--kind", "scan", "--poly=-1,-2,1", "--poly2=-2,0,1", "--height", "3"]
        assert main(argv) == 2
        assert "undecided at precision cap" in capsys.readouterr().err

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

    def test_config_file_values_checked_like_flags(self, capsys, tmp_path):
        # mode=foo used to raise ValueError from the orbit scan; mirror=maybe
        # and no_cache=maybe used to mean false
        cfg = tmp_path / "cfg.txt"
        scan = ["orbit", "--kind", "scan", "--poly=-2,0,0,1", "--poly2=-2,0,1", "--height", "3"]
        for line in ("mode=foo", "mirror=maybe", "no_cache=maybe", "L=0", "format=xml", "depth=x"):
            cfg.write_text(f"# checked like a flag\n{line}\n")
            assert main([*scan, "--config", str(cfg)]) == 1
            assert f"{cfg}:2: {line.split('=')[0]}:" in capsys.readouterr().err
        cfg.write_text("mode=quadratic\nmirror=no\nno_cache=yes\n")
        code, rep = run(capsys, *scan, "--config", str(cfg))
        assert code == 0
        assert (rep["config"]["mode"], rep["config"]["mirror"], rep["config"]["no_cache"]) == (
            "quadratic", False, True)

    def test_harness_transport_missing_words(self, capsys):
        # used to raise AttributeError from parse_word_inline(None)
        full = ["--prefix", "1,2", "--prefix2", "2,1", "--block", "3,4"]
        for drop in range(0, len(full), 2):
            argv = ["harness", "--kind", "transport", *full[:drop], *full[drop + 2:]]
            assert main(argv) == 1
            assert full[drop] in capsys.readouterr().err

    def test_batch_rejects_help_and_version(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.txt"
        out1, out3 = tmp_path / "r1.json", tmp_path / "r3.json"
        for line in ("--version", "-h", "--help", "expand -h", "--vers", "--he", "expand --he"):
            jobs.write_text(
                f"expand --poly -2,0,1 --depth 5 --output {out1}\n"
                f"{line}\n"
                f"period --poly -7,0,1 --output {out3}\n"
            )
            assert main(["batch", str(jobs)]) == 1, line
            captured = capsys.readouterr()
            assert f"{jobs}:2:" in captured.err
            assert captured.out == ""
            assert not out1.exists() and not out3.exists()  # rejected before any job ran

    def test_help_and_version_from_the_shell(self):
        proc = _python("-m", "cfspectra.cli", "--version")
        assert (proc.returncode, proc.stdout.strip()) == (0, "cfspectra 0.1.0")
        proc = _python("-m", "cfspectra.cli", "expand", "-h")
        assert proc.returncode == 0 and "--poly-file" in proc.stdout

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

    def test_jobs_load_only_the_standard_library(self, tmp_path):
        scan = ["orbit", "--kind", "scan", "--poly=-2,0,0,1", "--poly2=-3,0,1", "--height", "5"]
        jobs = [EXPAND, scan, [*scan, "--mode", "quadratic"], DETECT,
                ["harness", "--kind", "l1", "--poly=-2,0,1", "--poly2=-1,0,2", "--depth", "40",
                 "--k", "1", "--l", "2", "--m", "20", "--bits", "64", "--no-cache"]]
        jobs = [[*argv, "--output", str(tmp_path / f"{i}.json")] for i, argv in enumerate(jobs)]
        # -S: no site hooks, so every module loaded is the standard library's
        # or one these jobs imported
        code = ("import sys; from cfspectra.cli import main; "
                f"print([main(argv) for argv in {jobs!r}]); "
                "print(sorted(m for m in sys.modules if m != '__main__' and "
                "m.partition('.')[0] not in {*sys.stdlib_module_names, 'cfspectra'}))")
        proc = _python("-S", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0]", "[]"]
        assert json.loads((tmp_path / "2.json").read_text())["result"]["records"]


# ------------------------------------------------------------ golden digests
# Report digests recorded before the option table replaced the hand-written
# parser, config typing and checks: the resolved config, and so the digest,
# of every valid job stays byte-identical. "@" names a file in GOLDEN_FILES.

GOLDEN_FILES = {
    "cfg.txt": "# a config file\ndepth=24\nbits=128\nL=5/2\nmirror=true\nmode=quadratic\nmin_b=2\n",
    "w.txt": "0\n1\n2\n1\n2\n1\n2\n3\n1\n2\n1\n2\n",
    "p.txt": "# cube root of 2\n-2,0,0,1\n",
    "job.json": json.dumps({"alpha": [-2, 0, 1], "alpha_prime": [-1, 0, 2], "depth": 40,
                            "auto": {"L": "4", "minB": 25}}),
}
GOLDEN = [
    ("expand --poly=-2,0,0,1 --depth 40",
     "0e8751778067733df31bd517989775c1e73127e36b12a32a6e3b99f0d338e8c2"),
    ("convergents --poly=-3,0,1 --depth 12 --root-index 1",
     "a1fd54e40d3fd395396a14db758575b0b40b564c4c414f08910b8dd5ff5e3000"),
    ("period --poly=-7,0,1",
     "1148b8bb133e8dea27d09821ad26a4712f0416b1b20a6ce191f9224e7dab90b3"),
    ("complexity --poly=-2,0,0,1 --depth 30 --max-n 4",
     "d14072bbf0b584da0f57aa81735963a36f86670f8d3ba6ff1b51687526c114ab"),
    ("detect --kind repetition --poly=-2,0,0,1 --depth 60 --L 3",
     "d9eb0d3f66cf25a56053de0a45cd410e584e820d25baf0a6b89bd857c3414d54"),
    ("detect --kind mirror --poly=-3,0,0,1 --depth 60 --L 4 --min-b 2",
     "f0e27220f79b15d8c22dcfb56927aa47f5cb5292bd3ee1817020d22f56dfcd2e"),
    ("detect --kind shared --poly=-2,0,1 --poly2=-1,0,2 --depth 30 --L 4 --min-b 20 --mirror",
     "47b948f69468c8326a3f225cfd1e6d17cbdbc351a0715f9634cc552ce0235ae6"),
    ("verify --poly-file @p.txt --depth 30",
     "41dbe460797e89f42cb67db03b86887bc28a310239106d9bc483e24534fe5cd1"),
    ("harness --kind transport --prefix 1,2 --prefix2 2,1 --block 3,4 --mirror",
     "a030ee974a66e6af8f010735ae5dfd461ebbabfb73fa953b39c9e47b87ab123a"),
    ("harness --kind l1 --poly=-2,0,1 --poly2=-1,0,2 --depth 40 --k 1 --l 2 --m 20 --bits 64",
     "0141eb39cbfcae9e3aa2f9733948bc8309787e85b96ef074ca9ce67bc8e63e6c"),
    ("harness --kind growth --poly=-2,0,1 --poly2=-1,0,2 --depth 40 --k 1 --l 2 --m 20 "
     "--delta 1/5 --L 3",
     "46a065b9ee902092e5e5adefb354b123c91611102d09e3713c2a76a517fa9301"),
    ("harness --job @job.json --bits 64",
     "ca003b83ed0a2308b81a8a42f76579fb4daecb911efa187b83e71c7a3b99c8e9"),
    ("orbit --kind scan --poly=-2,0,0,1 --poly2=-2,0,1 --height 8 --min-norm 3",
     "aca192d50f24a3dcdc9af53788f588eadeb5e9768658c8d68700a3262f2f3f1d"),
    ("orbit --kind scan --poly=-2,0,0,1 --poly2=-2,0,1 --height 6 --mode quadratic --bits 128",
     "2113319a04bb2c67aa20068fac52a109358f04c2b73b82735ec4b60246c8d643"),
    ("orbit --kind scan --word @w.txt --height 5",
     "eb99607a7f3b0a120f14bdfb46f91f71454ad8692eae233920b74f06af75c820"),
    ("orbit --kind separation --poly=-2,0,0,1 --poly2=-3,0,0,1 --depth 20",
     "6b11c9caaecc0ad6ec2059c43f847bb829b06e89c921d8b580e34711abcfcfab"),
    ("orbit --kind gap --poly=-2,0,0,1 --depth 30 --k 2 --epsilon 1/3",
     "17e190d3bb6c3712ebb14c8912fbd69e0f35ba66cb6e94315db81a7b781b3a99"),
    ("expand --poly=-2,0,1 --config @cfg.txt",
     "2fe05de74f3dd24d2ad443485fbf89b9f6c41739357bced79b319dc438a9ab6e"),
    ("detect --kind repetition --word @w.txt --L 4",
     "842f0976e95252be4857c3befca9dd5c9a8d991056be9d3d40ce90bd6199a584"),
    # quadratic alphas whose branch needs the vertex test: a coarse alpha,
    # rational roots, close conjugates, and orbit hits that refine alpha
    ("orbit --kind scan --poly=-3,0,0,1 --poly2=-7,2,3 --height 9 --mode quadratic --bits 1",
     "20d60c4c01215db0bae09692e613748639384305bcdb96125b4aaf2bea55ba4b"),
    ("orbit --kind scan --poly=-3,0,0,1 --poly2=-3,5,2 --height 9 --mode quadratic --bits 8",
     "f81af7393873b8a9c7df74d969d131e84e6b423b66f4c498311a1c1f4c150d40"),
    ("orbit --kind scan --poly=-3,0,0,1 --poly2=-1,-2097152,1099511627776 --height 9 "
     "--mode quadratic --bits 8",
     "f3472ebf2870cdf025fdafb5727b7a2fec8b15368f7df07c0ad36ac35ac7c9ab"),
    ("orbit --kind scan --poly=-1,-2,1 --poly2=-2,0,1 --height 4 --mode quadratic --bits 8",
     "fc5e59f08581d9744f2bde25fba73be3a7c357433988c2840d8afd1d4a41fdbd"),
    # the vertex lies in the root's isolating interval
    ("period --poly=-7,2,3 --root-index 0",
     "bfcf65a7064265dcf90aceb47015ab97fe3bbdb12d4fc7ed52c4fcabd8b083c1"),
    ("period --poly=-1,-20,5 --root-index 1",
     "7155d50818ffc2c509c961134572bb142204cd699c46ea6a9aeee91883ea8d89"),
    # words far longer than the window the longest common factor leaves
    ("detect --kind shared --poly=-2,0,0,1 --poly2=-3,0,0,1 --depth 400 --L 2",
     "ee3edbd2aae1a0ad413c80d8e06da7235adcb95f5c62c864862b60ddfff9ef7c"),
    ("detect --kind shared --poly=-2,0,0,1 --poly2=-3,0,0,1 --depth 400 --L 2 --mirror",
     "0a556c2c971e284b19b2d035b672270731d5c3b14b7d45efb28b6e75ca463bba"),
    ("detect --kind mirror --poly=-5,0,0,0,1 --depth 400 --L 2",
     "77cacd76fbbca3ac2767c8e070cb8c3d763dadaa219d7cc3270cff238b2db477"),
]


@pytest.mark.parametrize("line,digest", GOLDEN, ids=[line for line, _ in GOLDEN])
def test_golden_digest(capsys, tmp_path, line, digest):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [t.replace("@", f"{tmp_path}/") for t in shlex.split(line)]
    code, rep = run(capsys, *argv, "--no-cache")
    assert code == 0
    assert rep["digest"] == digest


# ----------------------------------------------------------- exit-code gate
# argv for every subcommand and kind, built from the rows of cli.OPTIONS, with
# small magnitudes. Half the jobs give one option a degenerate value (0,
# negative, non-numeric, a bad word, job or config file); options are left out
# at random, so per-kind flags go missing. Whatever the input, main must
# return 0, 1 or 2 and raise nothing, SystemExit included.

@dataclass(frozen=True)
class _File:
    """A file the gate writes and passes by its path (None: no file there)."""

    text: str | None


@dataclass(frozen=True)
class _Jobs:
    """A batch job file: lines of argv, then one raw line."""

    jobs: tuple
    raw: str


def _join(xs, sep=","):
    return sep.join(map(str, xs))


def _file(good, bad):
    return good.map(_File), st.one_of(bad.map(_File), st.just(_File(None)))


_INT_MAX = {"depth": 40, "height": 6, "bits": 300}
_BAD_NUMBERS = st.sampled_from(["", "x", "1.5", "1/0"])
_POLY = (
    st.one_of(st.sampled_from(["-2,0,0,1", "-2,0,1", "-7,0,1", "-1,-1,1", "-9,3,-3,1", "-3,1"]),
              st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(_join)),
    st.sampled_from(["0", "1", "0,0", "1,x", "", "5,0,1"]),
)
_WORD = (
    st.one_of(
        st.lists(st.integers(1, 6), max_size=8).map(lambda qs: _join([0, *qs], "\n")),
        st.builds(lambda a0, qs: json.dumps({"a0": a0, "quotients": qs}),
                  st.integers(-3, 3), st.lists(st.integers(1, 6), max_size=8)),
    ),
    st.sampled_from(["", "x", "1\n0\n2", "{", '{"a0": 1}', '{"a0": "x", "quotients": 3}',
                     '{"a0": 1, "quotients": [2, -1]}', "# only a comment\n"]),
)
_INLINE = (st.lists(st.integers(1, 6), min_size=1, max_size=8).map(_join),
           st.sampled_from(["", "x", "1,,2", "0,-1"]))
_NUMBER = st.sampled_from([[-2, 0, 1], [-1, 0, 2], [-2, 0, 0, 1], [-3, 0, 0, 1], [-7, 0, 1]])
_JOB = (
    st.fixed_dictionaries(
        {"alpha": _NUMBER, "alpha_prime": _NUMBER, "depth": st.integers(0, 12)},
        optional={
            "witnesses": st.lists(st.fixed_dictionaries(
                {"k": st.integers(0, 6), "l": st.integers(0, 6), "m": st.integers(1, 6)},
                optional={"mirror": st.booleans()}), max_size=3),
            "auto": st.fixed_dictionaries({}, optional={
                "L": st.sampled_from(["4", "3/2"]), "minB": st.integers(1, 8),
                "mirror": st.booleans()}),
        },
    ).map(json.dumps),
    st.one_of(
        st.sampled_from(["{", "[]", '"text"', '{"alpha": [-2, 0, 1], "alpha_prime": [-2, 0, 1]}']),
        st.builds(
            lambda field, value: json.dumps(
                {"alpha": [-2, 0, 1], "alpha_prime": [-1, 0, 2], "depth": 8, field: value}),
            st.sampled_from(["alpha", "alpha_prime", "depth", "witnesses", "auto"]),
            st.sampled_from([[0], [], ["x"], -3, "x", None, 1e300, [{"k": "x"}],
                             [{"k": 0, "l": 0, "m": 0}], {"L": "0"}, {"L": [1]}, {"minB": 0}]),
        ),
    ),
)


def _values(opt):
    """(good, degenerate) strategies for one row of cli.OPTIONS, as text."""
    if opt.type is bool:  # only a config file gives a switch a value
        return st.sampled_from(["true", "false", "1", "0", "yes", "no"]), st.sampled_from(["maybe", ""])
    if opt.type is int:
        low = -2 if opt.low is None else opt.low
        return (st.integers(low, _INT_MAX.get(opt.name, 8)).map(str),
                st.one_of(st.just(str(low - 1)), _BAD_NUMBERS))
    if opt.type is Fraction:
        return st.sampled_from(["2", "1/10", "1/2", "5/2", "3"]), st.sampled_from(["0", "-1/2", "x", ""])
    if opt.choices:
        return st.sampled_from(opt.choices), st.just("foo")
    return _TEXT[opt.name]


_CONFIG_KEYS = [o for o in cli.OPTIONS if o.default is not None]


@st.composite
def _config_text(draw, bad=False):
    lines = ["# a config file"]
    for opt in draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=3)):
        lines.append(f"{opt.name}={draw(_values(opt)[0])}")
    if bad:
        opt = draw(st.sampled_from(_CONFIG_KEYS))
        lines.append(draw(st.one_of(
            _values(opt)[1].map(lambda v: f"{opt.name}={v}"),
            st.sampled_from(["nonsense=1", "oops"]))))
    return "\n".join(lines)


_TEXT = {
    "poly": _POLY, "poly2": _POLY,
    "poly_file": _file(_POLY[0].map(lambda p: f"# a polynomial\n{p}\n"), _POLY[1]),
    "poly2_file": _file(*_POLY),
    "word": _file(*_WORD), "word2": _file(*_WORD),
    "prefix": _INLINE, "prefix2": _INLINE, "block": _INLINE,
    "job": _file(*_JOB),
    "config": _file(_config_text(), _config_text(bad=True)),
    "output": (st.just(_File(None)), st.just(_File(None))),
}
_LIKELY = {"kind", "poly", "poly2", "prefix", "prefix2", "block", "depth", "height", "output"}  # rarely left out


@st.composite
def _argv(draw, sub):
    rows = [o for o in cli.OPTIONS if sub in o.subcommands]
    bad = draw(st.one_of(st.none(), st.sampled_from([o.name for o in rows])))
    argv = [sub]
    for opt in rows:
        if opt.type is bool:
            argv += [opt.flag] if draw(st.booleans()) else []
        elif draw(st.integers(0, 7)) > (0 if opt.name in _LIKELY else 4):
            argv += [opt.flag, draw(_values(opt)[opt.name == bad])]
    return argv


_SINGLE = st.sampled_from(list(cli.HANDLERS)).flatmap(_argv)
_BATCH = st.builds(
    lambda jobs, raw: ["batch", _Jobs(tuple(jobs), raw)],
    st.lists(_SINGLE, min_size=1, max_size=2),
    st.sampled_from(["", "# a comment", "batch x", 'expand "unbalanced']),
)


def _materialize(argv, root: Path, names) -> list[str]:
    out = []
    for tok in argv:
        if isinstance(tok, (_File, _Jobs)):
            path = root / f"f{next(names)}"
            if isinstance(tok, _Jobs):
                lines = [shlex.join(_materialize(job, root, names)) for job in tok.jobs]
                path.write_text("\n".join([*lines, tok.raw]))
            elif tok.text is not None:
                path.write_text(tok.text)
            tok = str(path)
        out.append(tok)
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=st.one_of(_SINGLE, _BATCH))
def test_every_input_exits_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _materialize(argv, Path(tmp), itertools.count())
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except BaseException as e:  # SystemExit included
                raise AssertionError(f"{shlex.join(argv)} raised {e!r}") from e
    assert code in (0, 1, 2), (argv, code)
