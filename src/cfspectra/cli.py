"""Batch command-line front end: job parsing, dispatch, caching, reports.

Exit codes: 0 success, 1 input error, 2 undecided at the precision cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algebraic import AlgebraicNumber, isolate_real_roots
from .cf import CFExpansion, convergents, detect_period, expand, verify_cf_identities
from .errors import PrecisionExhausted
from .harness import (
    PairContext,
    check_growth_condition,
    check_transport_identity,
    l1_smallness_report,
)
from .orbit import (
    growth_gap_scan,
    orbit_best_approximations,
    separation_bound,
)
from .polynomials import IntPolynomial
from .words import (
    SharedBlockWitness,
    find_mirror_repetitions,
    find_repetitions,
    find_shared_blocks,
    subword_complexity,
)


class InputError(ValueError):
    """User-facing input problem; maps to exit code 1."""


# ---------------------------------------------------------------- parsing

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: {e}") from None


def parse_poly(text: str, where: str = "--poly") -> IntPolynomial:
    """Comma-separated integer coefficients, constant term first."""
    try:
        coeffs = [int(t.strip()) for t in text.split(",")]
    except ValueError as e:
        raise InputError(f"{where}: malformed polynomial {text!r}: {e}") from None
    if not any(coeffs):
        raise InputError(f"{where}: zero polynomial")
    return IntPolynomial.from_coeffs(coeffs)


def load_poly_file(path: str) -> IntPolynomial:
    for i, line in enumerate(_read(path).splitlines(), 1):
        if line.strip() and not line.lstrip().startswith("#"):
            return parse_poly(line, where=f"{path}:{i}")
    raise InputError(f"{path}: no polynomial found")


def load_word_file(path: str) -> tuple[int, list[int]]:
    """JSON {"a0": ..., "quotients": [...]} or newline integers (a0 first)."""
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
            a0 = int(data["a0"])
            qs = [int(a) for a in data["quotients"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise InputError(f"{path}:1: malformed word JSON: {e}") from None
        bad = next((a for a in qs if a < 1), None)
        if bad is not None:
            raise InputError(f"{path}:1: partial quotient {bad} is below 1")
        return a0, qs
    ints = []
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ints.append(int(line))
        except ValueError:
            raise InputError(f"{path}:{i}: not an integer: {line!r}") from None
        if len(ints) > 1 and ints[-1] < 1:
            raise InputError(f"{path}:{i}: partial quotient {ints[-1]} is below 1")
    if not ints:
        raise InputError(f"{path}: empty word file")
    return ints[0], ints[1:]


def parse_word_inline(text: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(t.strip()) for t in text.split(","))
    except ValueError as e:
        raise InputError(f"{where}: malformed word {text!r}: {e}") from None


def _positive_fraction(text, where: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, TypeError, ArithmeticError) as e:
        raise InputError(f"{where}: not a rational: {text!r} ({e})") from None
    if value <= 0:
        raise InputError(f"{where}: must be positive, got {text!r}")
    return value


def select_root(poly: IntPolynomial, index: int) -> AlgebraicNumber:
    roots = isolate_real_roots(poly)
    if not roots:
        raise InputError("polynomial has no real roots")
    if not -len(roots) <= index < len(roots):
        raise InputError(
            f"root index {index} out of range; polynomial has {len(roots)} real roots"
        )
    return roots[index]


# ---------------------------------------------------------------- caching

def cache_dir() -> Path:
    env = os.environ.get("CFSPECTRA_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cfspectra"


def _word_digest(a0: int, quotients: list[int], terminated: bool) -> str:
    return hashlib.sha256(json.dumps([a0, quotients, terminated]).encode()).hexdigest()


def _cached_expansion(path: Path, x: AlgebraicNumber) -> CFExpansion | None:
    """The entry's expansion of x if it is well formed and matches its digest."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None  # absent, unreadable or truncated
    if not isinstance(data, dict):
        return None
    a0, qs, term = data.get("a0"), data.get("quotients"), data.get("terminated")
    if not (
        type(a0) is int
        and type(qs) is list
        and all(type(a) is int and a >= 1 for a in qs)
        and type(term) is bool
        and data.get("word_digest") == _word_digest(a0, qs, term)
    ):
        return None
    return CFExpansion(a0, qs, source=x, terminated=term)


def cached_expand(x: AlgebraicNumber, depth: int, root_index: int, use_cache: bool):
    """Expansion with a (minpoly, root, depth)-keyed file cache. An entry
    that is malformed or fails its digest is recomputed and rewritten."""
    if not use_cache:
        return expand(x, depth), "off"
    key_src = json.dumps([x.minpoly.coeffs, root_index, depth])
    key = hashlib.sha256(key_src.encode()).hexdigest()
    path = cache_dir() / f"{key}.json"
    cf = _cached_expansion(path, x)
    if cf is not None:
        return cf, "hit"
    cf = expand(x, depth)
    entry = {
        "a0": cf.a0,
        "quotients": cf.quotients,
        "terminated": cf.terminated,
        "word_digest": _word_digest(cf.a0, cf.quotients, cf.terminated),
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry))
    except OSError as e:
        raise InputError(
            f"cannot write the expansion cache ({e}); point CFSPECTRA_CACHE_DIR "
            "at a writable directory or pass --no-cache"
        ) from None
    return cf, "miss"


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class Report:
    result: object
    text: str  # the whole report as `--format json` writes it


def make_report(config: dict, result) -> Report:
    """Encode the body once, with sorted keys. The digest hashes exactly those
    bytes; the digest and a timestamp follow them in the same object."""
    body = json.dumps(
        {"tool": "cfspectra", "version": __version__, "config": config, "result": result},
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(body.encode()).hexdigest()
    stamp = datetime.now(timezone.utc).isoformat()
    return Report(result, f'{body[:-1]}, "digest": "{digest}", "timestamp": "{stamp}"}}\n')


def _rows_for_csv(result) -> list[dict]:
    if isinstance(result, dict):
        for v in result.values():
            if isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
                return v
        return [
            {"key": k, "value": json.dumps(v, default=str)} for k, v in result.items()
        ]
    if isinstance(result, list):
        if all(isinstance(x, dict) for x in result):
            return result
        return [{"value": json.dumps(x, default=str)} for x in result]
    return [{"value": json.dumps(result, default=str)}]


def _csv_text(result) -> str:
    rows = _rows_for_csv(result)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted({k for row in rows for k in row}))
    writer.writeheader()
    for row in rows:
        writer.writerow({
            k: json.dumps(v, default=str) if isinstance(v, (list, dict)) else v
            for k, v in row.items()
        })
    return buf.getvalue()


def emit(report: Report, output: str | None, fmt: str) -> None:
    text = report.text if fmt == "json" else _csv_text(report.result)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- handlers
# A handler's docstring is its subcommand's help line. Its cfg holds every
# config key, typed and already checked by resolve_config.

def _poly_arg(args, flag: str = "poly") -> IntPolynomial:
    text, path = getattr(args, flag), getattr(args, f"{flag}_file")
    if text:
        return parse_poly(text, where=f"--{flag}")
    if path:
        return load_poly_file(path)
    raise InputError(f"one of --{flag} or --{flag}-file is required")


def _root(args, cfg, n: str = "") -> AlgebraicNumber:
    """The selected real root of --poly (n="") or of --poly2 (n="2")."""
    return select_root(_poly_arg(args, "poly" + n), cfg["root_index" + n])


def _expansion(args, cfg, n: str = ""):
    """(expansion, cache state) of _root(args, cfg, n) to --depth."""
    x = _root(args, cfg, n)
    return cached_expand(x, cfg["depth"], cfg["root_index" + n], not cfg["no_cache"])


def cmd_expand(args, cfg) -> dict:
    """certified partial quotients"""
    cf, cache_state = _expansion(args, cfg)
    return {
        "a0": cf.a0,
        "quotients": cf.quotients,
        "terminated": cf.terminated,
        "cache": cache_state,
    }


def cmd_convergents(args, cfg) -> dict:
    """convergent table"""
    cf = CFExpansion(*load_word_file(args.word)) if args.word else _expansion(args, cfg)[0]
    return {"convergents": [{"n": n, "p": p, "q": q} for n, (p, q) in enumerate(convergents(cf))]}


def cmd_period(args, cfg) -> dict:
    """quadratic period detection"""
    try:
        form = detect_period(_root(args, cfg))
    except ValueError as e:
        raise InputError(str(e)) from None
    return {"preperiod": list(form.preperiod), "period": list(form.period)}


def _word_for_detectors(args, cfg) -> tuple[int, ...]:
    if args.word:
        return tuple(load_word_file(args.word)[1])
    return tuple(_expansion(args, cfg)[0].quotients)


def cmd_complexity(args, cfg) -> dict:
    """subword complexity profile"""
    w = _word_for_detectors(args, cfg)
    max_n = min(cfg["max_n"], len(w))
    return {
        "length": len(w),
        "complexity": [{"n": n, "p": subword_complexity(w, n)} for n in range(1, max_n + 1)],
    }


def cmd_detect(args, cfg) -> dict:
    """repetition / mirror / shared-block detectors"""
    L, min_b = Fraction(cfg["L"]), cfg["min_b"]
    if args.kind == "shared":
        if not args.word2 and not (args.poly2 or args.poly2_file):
            raise InputError("shared detection needs --word2 or --poly2")
        w = _word_for_detectors(args, cfg)
        if args.word2:
            w2 = tuple(load_word_file(args.word2)[1])
        else:
            w2 = tuple(_expansion(args, cfg, "2")[0].quotients)
        wits = find_shared_blocks(w, w2, L, min_b, mirror=cfg["mirror"])
    else:
        finder = find_repetitions if args.kind == "repetition" else find_mirror_repetitions
        wits = finder(_word_for_detectors(args, cfg), L, min_b)
    return {"witnesses": [wt.to_dict() for wt in wits]}


def cmd_verify(args, cfg) -> dict:
    """classical identity suite on one expansion"""
    cf, _ = _expansion(args, cfg)
    return verify_cf_identities(cf, cfg["depth"]).to_dict()


def _pair_context(cfg, x: AlgebraicNumber, x2: AlgebraicNumber, depth: int) -> PairContext:
    cf, _ = cached_expand(x, depth, cfg["root_index"], not cfg["no_cache"])
    cf2, _ = cached_expand(x2, depth, cfg["root_index2"], not cfg["no_cache"])
    return PairContext(x, x2, cf, cf2)


def _flag_pair(args, cfg) -> PairContext:
    return _pair_context(cfg, _root(args, cfg), _root(args, cfg, "2"), cfg["depth"])


def _require_witness_depth(ctx: PairContext, wt: SharedBlockWitness) -> None:
    """Witness offsets must lie inside both expansions (convergent k+m, l+m)."""
    if min(wt.k, wt.l) < 0 or wt.m < 1:
        raise InputError(
            f"witness k={wt.k}, l={wt.l}, m={wt.m}: k and l must not be negative, "
            "and m must be positive"
        )
    if wt.k + wt.m > ctx.cf.depth or wt.l + wt.m > ctx.cf2.depth:
        need = max(wt.k, wt.l) + wt.m
        raise InputError(
            f"witness k={wt.k}, l={wt.l}, m={wt.m} needs expansions to depth {need}; "
            f"have {ctx.cf.depth} and {ctx.cf2.depth}"
        )


def _l1_fields(ctx: PairContext, wt: SharedBlockWitness, cfg):
    rep = l1_smallness_report(ctx, wt, bits=cfg["bits"])
    return rep, {
        "premise_ok": rep.premise_ok,
        "enclosure": [str(rep.enclosure.lo), str(rep.enclosure.hi)],
        "bound": str(rep.bound),
    }


def _harness_job(args, cfg) -> dict:
    """Witness batch: {"alpha": coeffs, "alpha_prime": coeffs, "depth": int,
    "witnesses": [{k,l,m,mirror}...]} or "auto": {"L":…, "minB":…, "mirror":…}.
    """
    path = args.job
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}: malformed JSON: {e.msg}") from None
    try:
        poly = IntPolynomial.from_coeffs([int(c) for c in data["alpha"]])
        poly2 = IntPolynomial.from_coeffs([int(c) for c in data["alpha_prime"]])
        depth = int(data.get("depth", cfg["depth"]))
        if "witnesses" in data:
            wits = [
                SharedBlockWitness(
                    int(w["k"]), int(w["l"]), int(w["m"]), bool(w.get("mirror", False))
                )
                for w in data["witnesses"]
            ]
        elif "auto" in data:
            auto = data["auto"]
            min_b = int(auto.get("minB", cfg["min_b"]))
            auto_L, auto_mirror = auto.get("L", cfg["L"]), bool(auto.get("mirror", False))
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise InputError(f"{path}: bad job fields: {e}") from None
    if "witnesses" not in data and "auto" not in data:
        raise InputError(f"{path}: need 'witnesses' or 'auto'")
    if depth < 0:
        raise InputError(f"{path}: depth must be >= 0")
    x, x2 = select_root(poly, cfg["root_index"]), select_root(poly2, cfg["root_index2"])
    ctx = _pair_context(cfg, x, x2, depth)
    if "witnesses" not in data:
        if min_b < 1:
            raise InputError(f"{path}: auto.minB must be >= 1")
        L = _positive_fraction(auto_L, "auto.L")
        wits = find_shared_blocks(
            ctx.cf.quotients, ctx.cf2.quotients, L, min_b, mirror=auto_mirror
        )
    rows = []
    undecided = 0
    for wt in wits:
        _require_witness_depth(ctx, wt)
        row = wt.to_dict()
        row["growth_holds"] = check_growth_condition(ctx, wt, cfg["delta"], cfg["L"])
        if wt.mirror:
            row["l1_holds"] = None
        else:
            rep, fields = _l1_fields(ctx, wt, cfg)
            row["l1_holds"] = rep.holds
            row.update(fields)
            undecided += rep.holds is None
        rows.append(row)
    return {"witnesses": rows, "undecided": undecided}


def cmd_harness(args, cfg) -> dict:
    """transport / L1-smallness / growth checks"""
    if args.job:
        return _harness_job(args, cfg)
    if not args.kind:
        raise InputError("harness needs --kind or --job")
    if args.kind == "transport":
        flags = ("prefix", "prefix2", "block")
        missing = [f"--{f}" for f in flags if getattr(args, f) is None]
        if missing:
            raise InputError(f"harness --kind transport needs {', '.join(missing)}")
        a, a2, b = (parse_word_inline(getattr(args, f), f"--{f}") for f in flags)
        holds = check_transport_identity(a, a2, b, mirror=cfg["mirror"])
        return {"identity": "mirror" if cfg["mirror"] else "plain", "holds": holds}
    ctx = _flag_pair(args, cfg)
    wt = SharedBlockWitness(cfg["k"], cfg["l"], cfg["m"])
    _require_witness_depth(ctx, wt)
    if args.kind == "growth":
        return {"holds": check_growth_condition(ctx, wt, cfg["delta"], cfg["L"])}
    rep, fields = _l1_fields(ctx, wt, cfg)
    if rep.holds is None:
        raise PrecisionExhausted("L1 smallness undecided at precision cap", rep.enclosure)
    return {"holds": rep.holds, **fields, "bits_used": rep.bits_used}


def cmd_orbit(args, cfg) -> dict:
    """orbit scan / separation / growth-gap"""
    if args.kind == "scan":
        xi = CFExpansion(*load_word_file(args.word)) if args.word else _root(args, cfg)
        alpha = _root(args, cfg, "2") if args.poly2 or args.poly2_file else None
        if cfg["bits"] < 1:
            raise InputError("--bits must be >= 1 for an orbit scan")
        if cfg["mode"] == "quadratic" and (alpha is None or alpha.degree != 2):
            raise InputError("--mode quadratic needs a quadratic irrational --poly2")
        if cfg["mode"] == "quadratic" and cfg["min_norm"] != _CONFIG["min_norm"].default:
            raise InputError("--min-norm is not used with --mode quadratic")
        res = orbit_best_approximations(
            xi, alpha, cfg["height"], cfg["mode"], bits=cfg["bits"], min_norm=cfg["min_norm"]
        )
        return {
            "records": [r.to_dict() for r in res.records],
            "xi_in_orbit": [[m.a, m.b, m.c, m.d] for m in res.xi_in_orbit],
        }
    if args.kind == "separation":
        ctx = _flag_pair(args, cfg)
        try:
            sep = separation_bound(ctx.cf, ctx.cf2)
        except ValueError as e:
            raise InputError(str(e)) from None
        return {
            "n": sep.n,
            "bound": str(sep.bound),
            "distance": [str(sep.distance.lo), str(sep.distance.hi)],
            "ok": sep.ok,
        }
    cf, _ = _expansion(args, cfg)
    if cfg["k"] < 1:
        raise InputError("--k must be >= 1 for the growth-gap scan")
    eps = Fraction(cfg["epsilon"])
    return {"k": cfg["k"], "epsilon": str(eps), "hits": growth_gap_scan(cf, cfg["k"], eps)}


HANDLERS = {
    "expand": cmd_expand,
    "convergents": cmd_convergents,
    "period": cmd_period,
    "complexity": cmd_complexity,
    "detect": cmd_detect,
    "verify": cmd_verify,
    "harness": cmd_harness,
    "orbit": cmd_orbit,
}


# ---------------------------------------------------------------- options

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class Option:
    """One option, declared once; the parser, config files and checks read it.

    The flag is `--name` with `-` for `_`, and `name` is its argparse dest.
    An option with a default is also a config-file key and is in every
    report's `config`. `type` is str, int, bool (a switch) or Fraction (a
    positive rational, kept as the text given). The check is `low`, the
    smallest int allowed, or `choices`.
    """

    name: str
    subcommands: tuple[str, ...]
    type: type = str
    default: object = None
    low: int | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, text: str, where: str):
        """A config-file value, typed as argparse types the flag."""
        try:
            if self.type is int:
                return int(text)
            if self.type is bool:
                return _BOOLS[text.lower()]
        except (ValueError, KeyError):
            kind = "an integer" if self.type is int else "true or false"
            raise InputError(f"{where}: must be {kind}, got {text!r}") from None
        return text

    def check(self, value, where: str) -> None:
        if self.type is Fraction:
            _positive_fraction(value, where)
        elif self.low is not None and value < self.low:
            raise InputError(f"{where}: must be >= {self.low}, got {value}")
        elif self.choices is not None and value not in self.choices:
            raise InputError(f"{where}: must be one of {', '.join(self.choices)}, got {value!r}")


_ALL = tuple(HANDLERS)
_PAIR = ("detect", "harness", "orbit")

OPTIONS = (
    Option("kind", ("detect",), choices=("repetition", "mirror", "shared"), required=True),
    Option("kind", ("harness",), choices=("transport", "l1", "growth")),
    Option("kind", ("orbit",), choices=("scan", "separation", "gap"), required=True),
    Option("job", ("harness",), help="JSON witness-batch job file"),
    Option("poly", _ALL, help="coefficients, constant first, e.g. -2,0,0,1"),
    Option("poly_file", _ALL),
    Option("poly2", _PAIR),
    Option("poly2_file", _PAIR),
    Option("root_index2", _PAIR, int, -1),
    Option("word", ("convergents", "complexity", "detect", "orbit"),
           help="CF word file instead of a polynomial"),
    Option("word2", ("detect",)),
    Option("max_n", ("complexity",), int, 10, low=0),
    Option("prefix", ("harness",), help="comma word A (transport)"),
    Option("prefix2", ("harness",), help="comma word A' (transport)"),
    Option("block", ("harness",), help="comma word B (transport)"),
    Option("L", ("detect", "harness"), Fraction, "2"),
    Option("min_b", ("detect",), int, 1, low=1),
    Option("mirror", ("detect", "harness"), bool, False),
    Option("k", ("harness", "orbit"), int, 1),
    Option("l", ("harness",), int, 1),
    Option("m", ("harness",), int, 1),
    Option("delta", ("harness",), Fraction, "1/10"),
    Option("height", ("orbit",), int, 100, low=1),
    Option("mode", ("orbit",), str, "classic", choices=("classic", "quadratic")),
    Option("min_norm", ("orbit",), int, 2, low=0),
    Option("epsilon", ("orbit",), Fraction, "1/2"),
    Option("config", _ALL, help="key=value config file"),
    Option("depth", _ALL, int, 200, low=0),
    Option("bits", _ALL, int, 256, low=0),
    Option("root_index", _ALL, int, -1),
    Option("no_cache", _ALL, bool, False),
    Option("output", _ALL, help="report file (default stdout)"),
    Option("format", _ALL, str, "json", choices=("json", "csv")),
)
_CONFIG = {o.name: o for o in OPTIONS if o.default is not None}


def load_config_file(path: str) -> dict:
    """key -> (typed value, "file:line: key") for each key=value line."""
    out = {}
    for i, line in enumerate(_read(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in _CONFIG:
            raise InputError(f"{path}:{i}: unknown config key {key!r}")
        where = f"{path}:{i}: {key}"
        out[key] = _CONFIG[key].parse(value, where), where
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the --config file, overridden by flags. Each
    value in effect is checked here, before any handler runs."""
    given = load_config_file(args.config) if args.config else {}
    for opt in _CONFIG.values():
        value = getattr(args, opt.name, None)
        if value is not None:
            given[opt.name] = value, opt.flag
    for key, (value, where) in given.items():
        _CONFIG[key].check(value, where)
    return {key: given[key][0] if key in given else opt.default for key, opt in _CONFIG.items()}


class _Exit(Exception):
    """--help or --version was asked for: print this text and exit 0."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)

    def _print_message(self, message, file=None):
        # argparse prints --help and --version through here and then exits;
        # raising instead lets main return 0, and a batch refuse such a line
        raise _Exit(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cfspectra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cfspectra {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler in HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for opt in OPTIONS:
            if name not in opt.subcommands:
                continue
            if opt.type is bool:
                spec = {"action": "store_const", "const": True}
            else:
                spec = {"type": int if opt.type is int else None, "choices": opt.choices,
                        "required": opt.required}
            p.add_argument(opt.flag, dest=opt.name, help=opt.help, **spec)
    sub.add_parser("batch", help=_run_batch.__doc__).add_argument("jobfile")
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # join "--poly -2,0,0,1" into "--poly=-2,0,0,1" so argparse does not
    # mistake a leading negative coefficient for an option
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1].isdigit()
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# ---------------------------------------------------------------- running

# built on the first job, not at import; argparse keeps no state between
# parse_args calls, so batch lines and later main() calls reuse it
_PARSER: _Parser | None = None


def _run_single(argv: list[str]) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(_merge_negative_values(argv))
    if args.subcommand == "batch":
        return _run_batch(args)
    cfg = resolve_config(args)
    result = HANDLERS[args.subcommand](args, cfg)
    emit(make_report({"subcommand": args.subcommand, **cfg}, result), args.output, cfg["format"])
    return 2 if isinstance(result, dict) and result.get("undecided") else 0


def _run_batch(args) -> int:
    """run a file of jobs, one command line each"""
    jobs = []
    for i, line in enumerate(_read(args.jobfile).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            job = shlex.split(line)
        except ValueError as e:
            raise InputError(f"{args.jobfile}:{i}: {e}") from None
        if job[:1] == ["batch"]:
            raise InputError(f"{args.jobfile}:{i}: a batch job cannot run another batch")
        try:
            _PARSER.parse_args(_merge_negative_values(job))
        except _Exit:
            raise InputError(f"{args.jobfile}:{i}: a help or version line is not a job") from None
        except InputError:
            pass  # reported when the job runs
        jobs.append(job)
    return max((main(job) for job in jobs), default=0)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # reports carry integers past the 4300-digit int/str conversion limit
    # of Python 3.11+ (convergents at depth 10^4)
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run_single(list(argv))
    except _Exit as e:
        sys.stdout.write(str(e))
        return 0
    except InputError as e:
        print(f"cfspectra: error: {e}", file=sys.stderr)
        return 1
    except PrecisionExhausted as e:
        print(f"cfspectra: undecided at precision cap: {e}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
