"""Seeded job mixes for the cfspectra CLI.

Each generator turns a seed into 100 jobs. A job is the argv the program
receives (without `--output`) plus the facts the oracle needs, which the
program never sees. Families have fixed shares and their depths or heights
are stratified, so that the cost of a pass barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact


@dataclass
class Job:
    kind: str  # family label, e.g. "expand/cubic" or "detect/shared"
    argv: list[str]
    expect_exit: int = 0
    # real numbers the job is about: (coeffs, root index, depth)
    numbers: list[tuple[tuple[int, ...], int, int]] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _poly_arg(flag: str, coeffs) -> str:
    return f"--{flag}=" + ",".join(str(c) for c in coeffs)


def _stratified(rng: random.Random, n: int, lo: float, hi: float, log: bool = True):
    """n values, one from each of n equal strata of [lo, hi], in random order."""
    out = []
    for j in range(n):
        u = (j + rng.random()) / n
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    rng.shuffle(out)
    return out


def _random_monic(rng: random.Random, degree: int, want_real: bool | None):
    """Monic irreducible (so no rational and no quadratic roots), |coeff| <= 9,
    with at least one real root or none, as asked."""
    while True:
        c = [rng.randint(-9, 9) for _ in range(degree)] + [1]
        if c[0] == 0 or exact.rational_roots(c) or not exact.is_squarefree(c):
            continue
        if degree == 4 and exact.quadratic_factor(c):
            continue
        n_real = exact.Sturm(c).count_real()
        if want_real is None or (n_real > 0) == want_real:
            return c, n_real


def _is_power(k: int, e: int) -> bool:
    return round(k ** (1 / e)) ** e == k


def _pure_power(rng: random.Random, degree: int):
    """x^d - k, irreducible: k is no p-th power for a prime p dividing d."""
    while True:
        k = rng.randint(2, 40)
        if not any(_is_power(k, p) for p in (2, 3, 5) if degree % p == 0):
            c = [-k] + [0] * (degree - 1) + [1]
            return c, exact.Sturm(c).count_real()


def _quadratic(rng: random.Random):
    while True:
        a, b, c = rng.randint(1, 3), rng.randint(-9, 9), rng.randint(-9, 9)
        disc = b * b - 4 * a * c
        if disc > 0 and round(disc ** 0.5) ** 2 != disc:
            return [c, b, a], 2


def _pool_number(rng: random.Random, family: str):
    if family.startswith("power"):
        return _pure_power(rng, int(family[-1]))
    if family == "quadratic":
        return _quadratic(rng)
    return _random_monic(rng, 3 if family == "cubic" else 4, True)


# ------------------------------------------------------------ expand_deep

EXPAND_DEPTHS = (320, 1250)
_EXPAND_SHARES = [
    ("power3", 10), ("power4", 7), ("power5", 7), ("cubic", 24), ("quartic", 18),
    ("noroot", 6), ("quadratic", 14), ("reducible", 14),
]


def _reducible(rng: random.Random, slot: int):
    """(q x - p) f(x) with f a quadratic without real roots; r = p/q is the
    only real root. Slots cycle through integer, dyadic and other rationals."""
    while True:
        b, c = rng.randint(-9, 9), rng.randint(1, 9)
        if b * b < 4 * c:
            break
    kind = ("integer", "dyadic", "rational")[slot % 3]
    if kind == "integer":
        r = Fraction(rng.choice([k for k in range(-6, 7) if k]))
    elif kind == "dyadic":
        r = Fraction(2 * rng.randint(-6, 5) + 1, rng.choice([2, 4]))
    else:
        q = rng.choice([3, 5, 7])
        r = Fraction(rng.choice([p for p in range(-20, 21) if p % q]), q)
    return exact.mul([-r.numerator, r.denominator], [c, b, 1]), r, kind


def expand_deep(seed: int) -> list[Job]:
    rng = random.Random(f"expand_deep:{seed}")
    jobs = []
    for family, count in _EXPAND_SHARES:
        for slot, depth in enumerate(_stratified(rng, count, EXPAND_DEPTHS[0], EXPAND_DEPTHS[1])):
            depth = round(depth)
            facts = {}
            if family == "reducible":
                coeffs, r, kind = _reducible(rng, slot)
                index, expect = 0, 0
                facts = {"rational_root": str(r), "root_kind": kind}
            elif family == "noroot":
                coeffs, _ = _random_monic(rng, 4, False)
                index, expect = 0, 1
            else:
                coeffs, n_real = _pool_number(rng, family)
                index, expect = rng.randrange(n_real), 0
            argv = ["expand", _poly_arg("poly", coeffs), "--root-index", str(index),
                    "--depth", str(depth)]
            jobs.append(Job(f"expand/{family}", argv, expect,
                            [(tuple(coeffs), index, depth)], facts))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------- detect_verify

DETECT_DEPTH = 128
_POOL_FAMILIES = ["power3", "power3", "power3", "power4", "power4", "power5",
                  "cubic", "cubic", "quartic", "quartic"]
# Shares keep p50 inside the verify jobs and p90 inside the repetition and
# mirror detectors rather than on a boundary between two job families.
_DETECT_SHARES = [("shared", 18), ("shared-mirror", 6), ("repetition", 14),
                  ("mirror", 14), ("verify", 20), ("complexity", 10), ("l1", 18)]


def _pool(rng: random.Random, families, depth: int):
    pool = []
    seen = set()
    for family in families:
        while True:
            coeffs, n_real = _pool_number(rng, family)
            index = rng.randrange(n_real)
            if (tuple(coeffs), index) not in seen:
                break
        seen.add((tuple(coeffs), index))
        pool.append((tuple(coeffs), index, depth))
    return pool


def _number_args(num, second: bool = False) -> list[str]:
    coeffs, index, _ = num
    if second:
        return [_poly_arg("poly2", coeffs), "--root-index2", str(index)]
    return [_poly_arg("poly", coeffs), "--root-index", str(index)]


def detect_verify(seed: int) -> list[Job]:
    rng = random.Random(f"detect_verify:{seed}")
    pool = _pool(rng, _POOL_FAMILIES, DETECT_DEPTH)
    depth = ["--depth", str(DETECT_DEPTH)]
    jobs = []
    for family, count in _DETECT_SHARES:
        for _ in range(count):
            x, y = rng.sample(pool, 2)
            if family in ("shared", "shared-mirror"):
                L = str(rng.choice([2, 3, 4]))
                argv = ["detect", "--kind", "shared", *_number_args(x),
                        *_number_args(y, True), *depth, "--L", L,
                        "--min-b", str(rng.choice([1, 2]))]
                if family == "shared-mirror":
                    argv.append("--mirror")
                jobs.append(Job(f"detect/{family}", argv, 0, [x, y]))
            elif family in ("repetition", "mirror"):
                argv = ["detect", "--kind", family, *_number_args(x), *depth,
                        "--L", str(rng.choice([1, 2])), "--min-b", str(rng.choice([1, 2, 3]))]
                jobs.append(Job(f"detect/{family}", argv, 0, [x]))
            elif family == "verify":
                jobs.append(Job("verify", ["verify", *_number_args(x), *depth], 0, [x]))
            elif family == "complexity":
                argv = ["complexity", *_number_args(x), *depth,
                        "--max-n", str(rng.randint(8, 20))]
                jobs.append(Job("complexity", argv, 0, [x]))
            else:
                m = rng.randint(5, 40)
                k, l = rng.randint(1, DETECT_DEPTH - m), rng.randint(1, DETECT_DEPTH - m)
                argv = ["harness", "--kind", "l1", *_number_args(x), *_number_args(y, True),
                        *depth, "--k", str(k), "--l", str(l), "--m", str(m)]
                jobs.append(Job("harness/l1", argv, 0, [x, y], {"k": k, "l": l, "m": m}))
    rng.shuffle(jobs)
    return jobs


# -------------------------------------------------------------- orbit_scan

_ORBIT_SHARES = [("classic", 35), ("quadratic", 15), ("rational", 20),
                 ("gap", 15), ("separation", 15)]


def orbit_scan(seed: int) -> list[Job]:
    rng = random.Random(f"orbit_scan:{seed}")
    xis = _pool(rng, ["power3", "power4", "power5", "cubic", "cubic", "quartic"], 0)
    alphas = _pool(rng, ["quadratic"] * 4, 0)
    jobs = []
    for family, count in _ORBIT_SHARES:
        if family in ("classic", "quadratic"):
            lo, hi = (4, 9) if family == "classic" else (3, 5)
            for h in _stratified(rng, count, lo, hi + 1, log=False):
                xi, alpha = rng.choice(xis), rng.choice(alphas)
                argv = ["orbit", "--kind", "scan", *_number_args(xi),
                        *_number_args(alpha, True), "--height", str(int(h)),
                        "--mode", family]
                jobs.append(Job(f"orbit/{family}", argv, 0, [xi, alpha]))
        elif family == "rational":
            for h in _stratified(rng, count, 800, 5000):
                xi = rng.choice(xis)
                argv = ["orbit", "--kind", "scan", *_number_args(xi), "--height", str(round(h))]
                jobs.append(Job("orbit/rational", argv, 0, [xi]))
        elif family == "gap":
            for d in _stratified(rng, count, 100, 300):
                xi = rng.choice(xis)
                depth = round(d)
                k, eps = rng.choice([1, 2, 3]), rng.choice(["1/2", "1/3", "1/4"])
                argv = ["orbit", "--kind", "gap", *_number_args(xi), "--depth", str(depth),
                        "--k", str(k), "--epsilon", eps]
                jobs.append(Job("orbit/gap", argv, 0, [(xi[0], xi[1], depth)],
                                {"k": k, "epsilon": eps}))
        else:
            for d in _stratified(rng, count, 30, 60, log=False):
                x, y = rng.sample(xis + alphas, 2)
                depth = int(d)
                argv = ["orbit", "--kind", "separation", *_number_args(x),
                        *_number_args(y, True), "--depth", str(depth)]
                jobs.append(Job("orbit/separation", argv, 0,
                                [(x[0], x[1], depth), (y[0], y[1], depth)]))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "expand_deep": expand_deep,
    "detect_verify": detect_verify,
    "orbit_scan": orbit_scan,
}
