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
from .polynomials import IntPolynomial, squarefree_part
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
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise InputError(f"{path}: {e}") from None
    for i, line in enumerate(lines, 1):
        if line.strip() and not line.lstrip().startswith("#"):
            return parse_poly(line, where=f"{path}:{i}")
    raise InputError(f"{path}: no polynomial found")


def load_word_file(path: str) -> tuple[int, list[int]]:
    """JSON {"a0": ..., "quotients": [...]} or newline integers (a0 first)."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"{path}: {e}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
            a0 = int(data["a0"])
            qs = [int(a) for a in data["quotients"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
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


def _fraction(text, where: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{where}: not a rational: {text!r} ({e})") from None


def _positive_fraction(text, where: str) -> Fraction:
    value = _fraction(text, where)
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


def _canonical_coeffs(p: IntPolynomial) -> tuple[int, ...]:
    q = squarefree_part(p.primitive())
    if q.coeffs[-1] < 0:
        q = IntPolynomial.from_coeffs([-c for c in q.coeffs])
    return q.coeffs


def _convergents_digest(cf: CFExpansion) -> str:
    payload = json.dumps(convergents(cf)).encode()
    return hashlib.sha256(payload).hexdigest()


def cached_expand(x: AlgebraicNumber, depth: int, root_index: int, use_cache: bool):
    """Expansion with a (minpoly, root, depth)-keyed file cache."""
    if not use_cache:
        return expand(x, depth), "off"
    key_src = json.dumps([_canonical_coeffs(x.minpoly), root_index, depth])
    key = hashlib.sha256(key_src.encode()).hexdigest()
    path = cache_dir() / f"{key}.json"
    if path.exists():
        try:
            data = json.loads(path.read_text())
            cf = CFExpansion(
                data["a0"], list(data["quotients"]), source=x, terminated=data["terminated"]
            )
            if _convergents_digest(cf) == data["convergents_digest"]:
                return cf, "hit"
        except (json.JSONDecodeError, KeyError, ValueError):
            pass  # corrupt entry; fall through and recompute
    cf = expand(x, depth)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "a0": cf.a0,
                "quotients": cf.quotients,
                "terminated": cf.terminated,
                "convergents_digest": _convergents_digest(cf),
            }
        )
    )
    return cf, "miss"


# ---------------------------------------------------------------- reports

def make_report(config: dict, result) -> dict:
    body = {
        "tool": "cfspectra",
        "version": __version__,
        "config": config,
        "result": result,
    }
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True, default=str).encode()
    ).hexdigest()
    body["digest"] = digest
    body["timestamp"] = datetime.now(timezone.utc).isoformat()
    return body


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


def emit(report: dict, output: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, default=str) + "\n"
    elif fmt == "csv":
        rows = _rows_for_csv(report["result"])
        buf = io.StringIO()
        fieldnames = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(v, default=str) if isinstance(v, (list, dict)) else v for k, v in row.items()})
        text = buf.getvalue()
    else:
        raise InputError(f"unknown output format {fmt!r}")
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- config

DEFAULTS = {
    "depth": 200,
    "bits": 256,
    "L": "2",
    "delta": "1/10",
    "min_b": 1,
    "height": 100,
    "epsilon": "1/2",
    "root_index": -1,
    "root_index2": -1,
    "format": "json",
    "mode": "classic",
    "min_norm": 2,
    "max_n": 10,
    "k": 1,
    "l": 1,
    "m": 1,
    "no_cache": False,
    "mirror": False,
}

_INT_KEYS = {
    "depth", "bits", "min_b", "height", "root_index", "root_index2",
    "min_norm", "max_n", "k", "l", "m",
}
_BOOL_KEYS = {"no_cache", "mirror"}


def load_config_file(path: str) -> dict:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise InputError(f"{path}: {e}") from None
    out = {}
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise InputError(f"{path}:{i}: unknown config key {key!r}")
        if key in _INT_KEYS:
            try:
                out[key] = int(value)
            except ValueError:
                raise InputError(f"{path}:{i}: {key} must be an integer") from None
        elif key in _BOOL_KEYS:
            out[key] = value.lower() in ("1", "true", "yes")
        else:
            out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            cfg[key] = val
    for key in ("depth", "bits", "min_b", "height", "min_norm", "max_n"):
        if int(cfg[key]) < 0 or (key in ("min_b", "height") and int(cfg[key]) < 1):
            raise InputError(f"{key} must be positive")
    return cfg


# ---------------------------------------------------------------- handlers

def _poly_arg(args, cfg, flag="poly", file_flag="poly_file") -> IntPolynomial:
    text = getattr(args, flag, None)
    path = getattr(args, file_flag, None)
    if text:
        return parse_poly(text, where=f"--{flag.replace('_', '-')}")
    if path:
        return load_poly_file(path)
    raise InputError(f"one of --{flag.replace('_', '-')} or --{file_flag.replace('_', '-')} is required")


def _expansion_from_args(args, cfg, *, poly_flag="poly", file_flag="poly_file",
                         index_key="root_index"):
    poly = _poly_arg(args, cfg, poly_flag, file_flag)
    x = select_root(poly, int(cfg[index_key]))
    cf, cache_state = cached_expand(x, int(cfg["depth"]), int(cfg[index_key]), not cfg["no_cache"])
    return x, cf, cache_state


def cmd_expand(args, cfg) -> dict:
    _, cf, cache_state = _expansion_from_args(args, cfg)
    return {
        "a0": cf.a0,
        "quotients": cf.quotients,
        "terminated": cf.terminated,
        "cache": cache_state,
    }


def cmd_convergents(args, cfg) -> dict:
    if args.word:
        a0, qs = load_word_file(args.word)
        cf = CFExpansion(a0, qs)
    else:
        _, cf, _ = _expansion_from_args(args, cfg)
    return {"convergents": [{"n": n, "p": p, "q": q} for n, (p, q) in enumerate(convergents(cf))]}


def cmd_period(args, cfg) -> dict:
    poly = _poly_arg(args, cfg)
    x = select_root(poly, int(cfg["root_index"]))
    try:
        form = detect_period(x)
    except ValueError as e:
        raise InputError(str(e)) from None
    return {"preperiod": list(form.preperiod), "period": list(form.period)}


def _word_for_detectors(args, cfg) -> tuple[int, ...]:
    if args.word:
        _, qs = load_word_file(args.word)
        return tuple(qs)
    _, cf, _ = _expansion_from_args(args, cfg)
    return cf.quotients if isinstance(cf.quotients, tuple) else tuple(cf.quotients)


def cmd_complexity(args, cfg) -> dict:
    w = _word_for_detectors(args, cfg)
    max_n = min(int(cfg["max_n"]), len(w))
    return {
        "length": len(w),
        "complexity": [{"n": n, "p": subword_complexity(w, n)} for n in range(1, max_n + 1)],
    }


def cmd_detect(args, cfg) -> dict:
    L = _positive_fraction(cfg["L"], "--L")
    min_b = int(cfg["min_b"])
    if args.kind in ("repetition", "mirror"):
        w = _word_for_detectors(args, cfg)
        finder = find_repetitions if args.kind == "repetition" else find_mirror_repetitions
        wits = finder(w, L, min_b)
    elif args.kind == "shared":
        if not args.word2 and not (args.poly2 or args.poly2_file):
            raise InputError("shared detection needs --word2 or --poly2")
        w = _word_for_detectors(args, cfg)
        if args.word2:
            _, qs2 = load_word_file(args.word2)
            w2 = tuple(qs2)
        else:
            poly2 = _poly_arg(args, cfg, "poly2", "poly2_file")
            x2 = select_root(poly2, int(cfg["root_index2"]))
            cf2, _ = cached_expand(x2, int(cfg["depth"]), int(cfg["root_index2"]), not cfg["no_cache"])
            w2 = tuple(cf2.quotients)
        wits = find_shared_blocks(w, w2, L, min_b, mirror=bool(cfg["mirror"]))
    else:
        raise InputError(f"unknown detect kind {args.kind!r}")
    return {"witnesses": [wt.to_dict() for wt in wits]}


def cmd_verify(args, cfg) -> dict:
    _, cf, _ = _expansion_from_args(args, cfg)
    report = verify_cf_identities(cf, int(cfg["depth"]))
    return report.to_dict()


def _pair_context(args, cfg) -> PairContext:
    poly = _poly_arg(args, cfg)
    poly2 = _poly_arg(args, cfg, "poly2", "poly2_file")
    x = select_root(poly, int(cfg["root_index"]))
    x2 = select_root(poly2, int(cfg["root_index2"]))
    depth = int(cfg["depth"])
    cf, _ = cached_expand(x, depth, int(cfg["root_index"]), not cfg["no_cache"])
    cf2, _ = cached_expand(x2, depth, int(cfg["root_index2"]), not cfg["no_cache"])
    return PairContext(x, x2, cf, cf2)


def _require_witness_depth(ctx: PairContext, wt: SharedBlockWitness) -> None:
    """Witness offsets must lie inside both expansions (convergent k+m, l+m)."""
    if min(wt.k, wt.l, wt.m) < 0:
        raise InputError(f"witness k={wt.k}, l={wt.l}, m={wt.m} has a negative entry")
    if wt.k + wt.m > ctx.cf.depth or wt.l + wt.m > ctx.cf2.depth:
        need = max(wt.k, wt.l) + wt.m
        raise InputError(
            f"witness k={wt.k}, l={wt.l}, m={wt.m} needs expansions to depth {need}; "
            f"have {ctx.cf.depth} and {ctx.cf2.depth}"
        )


def _harness_job(args, cfg) -> dict:
    """Witness batch: {"alpha": coeffs, "alpha_prime": coeffs, "depth": int,
    "witnesses": [{k,l,m,mirror}...]} or "auto": {"L":…, "minB":…, "mirror":…}.
    """
    try:
        data = json.loads(Path(args.job).read_text())
    except OSError as e:
        raise InputError(f"{args.job}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{args.job}:{e.lineno}: malformed JSON: {e.msg}") from None
    try:
        poly = IntPolynomial.from_coeffs([int(c) for c in data["alpha"]])
        poly2 = IntPolynomial.from_coeffs([int(c) for c in data["alpha_prime"]])
        depth = int(data.get("depth", cfg["depth"]))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{args.job}: bad job fields: {e}") from None
    x = select_root(poly, int(cfg["root_index"]))
    x2 = select_root(poly2, int(cfg["root_index2"]))
    cf, _ = cached_expand(x, depth, int(cfg["root_index"]), not cfg["no_cache"])
    cf2, _ = cached_expand(x2, depth, int(cfg["root_index2"]), not cfg["no_cache"])
    ctx = PairContext(x, x2, cf, cf2)
    if "witnesses" in data:
        wits = [
            SharedBlockWitness(int(w["k"]), int(w["l"]), int(w["m"]), bool(w.get("mirror", False)))
            for w in data["witnesses"]
        ]
    elif "auto" in data:
        auto = data["auto"]
        min_b = int(auto.get("minB", cfg["min_b"]))
        if min_b < 1:
            raise InputError(f"{args.job}: auto.minB must be >= 1")
        wits = find_shared_blocks(
            cf.quotients,
            cf2.quotients,
            _positive_fraction(auto.get("L", cfg["L"]), "auto.L"),
            min_b,
            mirror=bool(auto.get("mirror", False)),
        )
    else:
        raise InputError(f"{args.job}: need 'witnesses' or 'auto'")
    delta = _positive_fraction(cfg["delta"], "--delta")
    L = _positive_fraction(cfg["L"], "--L")
    rows = []
    undecided = 0
    for wt in wits:
        _require_witness_depth(ctx, wt)
        row = wt.to_dict()
        row["growth_holds"] = check_growth_condition(ctx, wt, delta, L)
        if wt.mirror:
            row["l1_holds"] = None
        else:
            rep = l1_smallness_report(ctx, wt, bits=int(cfg["bits"]))
            row["l1_holds"] = rep.holds
            row["premise_ok"] = rep.premise_ok
            row["enclosure"] = [str(rep.enclosure.lo), str(rep.enclosure.hi)]
            row["bound"] = str(rep.bound)
            if rep.holds is None:
                undecided += 1
        rows.append(row)
    return {"witnesses": rows, "undecided": undecided}


def cmd_harness(args, cfg) -> dict:
    if getattr(args, "job", None):
        return _harness_job(args, cfg)
    if not args.kind:
        raise InputError("harness needs --kind or --job")
    if args.kind == "transport":
        a = parse_word_inline(args.prefix, "--prefix")
        a2 = parse_word_inline(args.prefix2, "--prefix2")
        b = parse_word_inline(args.block, "--block")
        holds = check_transport_identity(a, a2, b, mirror=bool(cfg["mirror"]))
        return {"identity": "mirror" if cfg["mirror"] else "plain", "holds": holds}
    ctx = _pair_context(args, cfg)
    wt = SharedBlockWitness(int(cfg["k"]), int(cfg["l"]), int(cfg["m"]))
    _require_witness_depth(ctx, wt)
    if args.kind == "l1":
        rep = l1_smallness_report(ctx, wt, bits=int(cfg["bits"]))
        if rep.holds is None:
            raise PrecisionExhausted("L1 smallness undecided at precision cap", rep.enclosure)
        return {
            "holds": rep.holds,
            "premise_ok": rep.premise_ok,
            "enclosure": [str(rep.enclosure.lo), str(rep.enclosure.hi)],
            "bound": str(rep.bound),
            "bits_used": rep.bits_used,
        }
    if args.kind == "growth":
        delta = _positive_fraction(cfg["delta"], "--delta")
        L = _positive_fraction(cfg["L"], "--L")
        return {"holds": check_growth_condition(ctx, wt, delta, L)}
    raise InputError(f"unknown harness kind {args.kind!r}")


def cmd_orbit(args, cfg) -> dict:
    if args.kind == "scan":
        if args.word:
            a0, qs = load_word_file(args.word)
            xi: object = CFExpansion(a0, qs)
        else:
            poly = _poly_arg(args, cfg)
            xi = select_root(poly, int(cfg["root_index"]))
        alpha = None
        if args.poly2 or args.poly2_file:
            alpha = select_root(
                _poly_arg(args, cfg, "poly2", "poly2_file"), int(cfg["root_index2"])
            )
        if int(cfg["bits"]) < 1:
            raise InputError("--bits must be >= 1 for an orbit scan")
        if alpha is not None and cfg["mode"] == "quadratic" and alpha.degree != 2:
            raise InputError("quadratic mode needs a quadratic irrational --poly2")
        res = orbit_best_approximations(
            xi,
            alpha,
            int(cfg["height"]),
            cfg["mode"],
            bits=int(cfg["bits"]),
            min_norm=int(cfg["min_norm"]),
        )
        return {
            "records": [r.to_dict() for r in res.records],
            "xi_in_orbit": [[m.a, m.b, m.c, m.d] for m in res.xi_in_orbit],
        }
    if args.kind == "separation":
        ctx = _pair_context(args, cfg)
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
    if args.kind == "gap":
        _, cf, _ = _expansion_from_args(args, cfg)
        eps = _positive_fraction(cfg["epsilon"], "--epsilon")
        if int(cfg["k"]) < 1:
            raise InputError("--k must be >= 1 for the growth-gap scan")
        hits = growth_gap_scan(cf, int(cfg["k"]), eps)
        return {"k": int(cfg["k"]), "epsilon": str(eps), "hits": hits}
    raise InputError(f"unknown orbit kind {args.kind!r}")


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


# ---------------------------------------------------------------- argparse

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--depth", type=int)
    p.add_argument("--bits", type=int)
    p.add_argument("--root-index", dest="root_index", type=int)
    p.add_argument("--no-cache", dest="no_cache", action="store_const", const=True)
    p.add_argument("--output", help="report file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"))


def _add_poly(p: _Parser, second: bool = False) -> None:
    p.add_argument("--poly", help="coefficients, constant first, e.g. -2,0,0,1")
    p.add_argument("--poly-file", dest="poly_file")
    if second:
        p.add_argument("--poly2")
        p.add_argument("--poly2-file", dest="poly2_file")
        p.add_argument("--root-index2", dest="root_index2", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="cfspectra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cfspectra {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", help="certified partial quotients")
    _add_poly(p)
    _add_common(p)

    p = sub.add_parser("convergents", help="convergent table")
    _add_poly(p)
    p.add_argument("--word", help="CF word file instead of a polynomial")
    _add_common(p)

    p = sub.add_parser("period", help="quadratic period detection")
    _add_poly(p)
    _add_common(p)

    p = sub.add_parser("complexity", help="subword complexity profile")
    _add_poly(p)
    p.add_argument("--word")
    p.add_argument("--max-n", dest="max_n", type=int)
    _add_common(p)

    p = sub.add_parser("detect", help="repetition / mirror / shared-block detectors")
    p.add_argument("--kind", required=True, choices=("repetition", "mirror", "shared"))
    _add_poly(p, second=True)
    p.add_argument("--word")
    p.add_argument("--word2")
    p.add_argument("--L", dest="L")
    p.add_argument("--min-b", dest="min_b", type=int)
    p.add_argument("--mirror", action="store_const", const=True)
    _add_common(p)

    p = sub.add_parser("verify", help="classical identity suite on one expansion")
    _add_poly(p)
    _add_common(p)

    p = sub.add_parser("harness", help="transport / L1-smallness / growth checks")
    p.add_argument("--kind", choices=("transport", "l1", "growth"))
    p.add_argument("--job", help="JSON witness-batch job file")
    _add_poly(p, second=True)
    p.add_argument("--prefix", help="comma word A (transport)")
    p.add_argument("--prefix2", help="comma word A' (transport)")
    p.add_argument("--block", help="comma word B (transport)")
    p.add_argument("--mirror", action="store_const", const=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--delta")
    p.add_argument("--L", dest="L")
    _add_common(p)

    p = sub.add_parser("orbit", help="orbit scan / separation / growth-gap")
    p.add_argument("--kind", required=True, choices=("scan", "separation", "gap"))
    _add_poly(p, second=True)
    p.add_argument("--word", help="CF word file as the scan target")
    p.add_argument("--height", type=int)
    p.add_argument("--mode", choices=("classic", "quadratic"))
    p.add_argument("--min-norm", dest="min_norm", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon")
    _add_common(p)

    p = sub.add_parser("batch", help="run a file of jobs, one command line each")
    p.add_argument("jobfile")
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
    report = make_report({"subcommand": args.subcommand, **cfg}, result)
    emit(report, getattr(args, "output", None), cfg["format"])
    if isinstance(result, dict) and result.get("undecided"):
        return 2
    return 0


def _run_batch(args) -> int:
    try:
        lines = Path(args.jobfile).read_text().splitlines()
    except OSError as e:
        raise InputError(f"{args.jobfile}: {e}") from None
    jobs = []
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            jobs.append(shlex.split(line))
        except ValueError as e:
            raise InputError(f"{args.jobfile}:{i}: {e}") from None
        if jobs[-1][:1] == ["batch"]:
            raise InputError(f"{args.jobfile}:{i}: a batch job cannot run another batch")
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
