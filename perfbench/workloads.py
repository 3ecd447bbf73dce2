"""The three seeded workloads: fixed task lists, each task with its own check.

A task is one call (or a short chain of calls) into stablepgf plus an
independent check of its output: scipy's expm of the same truncated
generator, roots or verdicts known by construction, or reference values
recorded from the suite.  Calls go through module attributes at call time
(``bdchain.transition(...)``), so the tracer sees them.

Sizes come from fixed grids and the seed draws the rest (rates, roots,
coefficients, times, order), so reruns on other seeds keep the same amount
of work and the figures stay comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.linalg import expm

from stablepgf import bdchain, cli, measures, nacheck, particles, polycore, stability
from stablepgf.measures import Measure
from stablepgf.particles import Configuration, SiteSystem
from stablepgf.polycore import MultiPoly, UniPoly
from stablepgf.stability import Verdict, witness_is_valid

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SUITE_REFERENCE = os.path.join(HERE, "suite_reference.json")

# Failures that the seed commit is known to produce, each on the inputs it
# was seen on (a task names the classes it may fail with in Task.known).
# They count in `failed` and in pass_frac and are listed by input; any other
# failure, or one of these on another input, makes the run incorrect.
KNOWN_DEFECTS = {
    "rayleigh-sampled-stable": "is_stable_multi calls a non-stable bivariate multi-affine polynomial "
    "(bc - ad < 0) Stable because line samples found no refutation; seen on 1 + x + 2y + (2+delta)xy, "
    "0 < delta <= 1e-5, and on inputs with bc - ad as low as -0.13",
    "float-policy-stable": "is_real_rooted calls a float polynomial of degree >= 20 with a planted "
    "complex pair Stable (the cluster bound admits the pair as real)",
    "root-outside-radius": "real_roots in float mode drops small leading coefficients of degree >= 26 "
    "inputs and returns roots and radii of the trimmed polynomial, which need not lie near the "
    "input's roots",
    "tail-over-tol": "kingman at its default tol = 1e-13, and rarely evolve of degree >= 60 (series "
    "of over 1000 terms), report a tail_bound above twice the tolerance (escaped mass plus series "
    "tail), up to 2e-11, because the float sum of the Poisson weights stays below 1; the output "
    "stays within tail_bound of the oracle",
}

# l1 error that scipy's expm itself may contribute to an oracle comparison.
ORACLE_SLACK = 1e-11


@dataclass(frozen=True)
class Outcome:
    ok: bool
    definite: bool = True
    failure: str | None = None
    note: str = ""


PASS = Outcome(True)
UNDECIDED = Outcome(True, definite=False)


def fail(cls: str, note: str = "") -> Outcome:
    return Outcome(False, definite=False, failure=cls, note=note)


@dataclass(frozen=True)
class Task:
    """known: the KNOWN_DEFECTS classes this input is allowed to fail with."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    known: frozenset = frozenset()


@dataclass
class Workload:
    name: str
    tasks: list
    close: Callable[[], None] = lambda: None


def call(module, func: str, *args, **kwargs) -> Callable[[], object]:
    """Defer module.func(*args) with the attribute looked up at call time."""
    return lambda: getattr(module, func)(*args, **kwargs)


def shuffled(rng, tasks: list) -> list:
    return [tasks[i] for i in rng.permutation(len(tasks))]


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def l1_gap(v: np.ndarray, ref: np.ndarray) -> float:
    n = max(len(v), len(ref))
    a = np.zeros(n)
    a[: len(v)] = v
    b = np.zeros(n)
    b[: len(ref)] = ref
    return float(np.abs(a - b).sum())


def check_law(v, oracle, tail_bound: float, tol: float, input_tail: float = 0.0) -> Outcome:
    """The certified tail_bound must cover the l1 gap to the oracle, and stay
    within the two truncation budgets (escaped mass, series tail) asked for."""
    gap = l1_gap(np.asarray(v, dtype=float), oracle)
    if gap > tail_bound + ORACLE_SLACK:
        return fail("oracle-mismatch", f"l1 gap {gap:.3e} > tail_bound {tail_bound:.3e}")
    if tail_bound > input_tail + 2 * tol:
        return fail("tail-over-tol", f"tail_bound {tail_bound:.3e} > 2*tol {2 * tol:.1e}")
    return PASS


def tridiagonal_generator(beta: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Birth-death generator on {0..M} with births clamped at M."""
    m = len(beta)
    Q = np.zeros((m, m))
    Q[np.arange(m - 1), np.arange(1, m)] = beta[:-1]
    Q[np.arange(1, m), np.arange(m - 1)] = delta[1:]
    Q -= np.diag(Q.sum(axis=1))
    return Q


def check_verdict(cert, truly_stable: bool, f, defect: str, perturb: float = 0.0) -> Outcome:
    """Refuted needs a non-stable input and a witness that re-evaluates;
    Stable needs a stable input; Inconclusive is undecided, not wrong."""
    if cert.verdict is Verdict.REFUTED:
        if truly_stable:
            return fail("unsound-refutation", "Refuted on a stable input")
        if not witness_is_valid(f, cert.witness, perturb):
            return fail("invalid-witness", f"witness {cert.witness}")
        return PASS
    if cert.verdict is Verdict.STABLE:
        return PASS if truly_stable else fail(defect, cert.note)
    return UNDECIDED


# ---------------------------------------------------------------------------
# suite: every CLI experiment at its defaults
# ---------------------------------------------------------------------------

# The experiments that read the seed are checked by construction
# (check_seeded); the others against suite_reference.json.  The acceptance
# limits are already part of each experiment's `passed`; on top of them a
# recorded number may drift by SUITE_RTOL of itself, plus SUITE_ATOL.
SEEDED_EXPERIMENTS = ("quad-death-preserve", "particles-na")
SUITE_RTOL = 1e-3
SUITE_ATOL = 1e-12


def close_to(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close_to(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(close_to(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        numeric = isinstance(b, (int, float)) and not isinstance(b, bool)
        return numeric and abs(a - b) <= SUITE_RTOL * abs(b) + SUITE_ATOL
    return a == b


def suite_defaults(name: str) -> dict:
    return {k: default for k, (_, default) in cli.EXPERIMENTS[name]["params"].items()}


def check_seeded(name: str, params: dict, res: dict) -> bool:
    """The two experiments that read the seed, checked by construction."""
    if name == "quad-death-preserve":
        return res["checked"] == params["count"] * params["t_points"] and res["refuted"] == 0
    return (
        res["fixtures"] == params["count"]
        and res["worst_slack"] <= 1e-12
        and res["mixture_violation"]["verdict"] == "violated"
    )


def build_suite(seed: int) -> Workload:
    with open(SUITE_REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="suite-", dir=OUT_DIR)
    tasks = []
    for name in cli.EXPERIMENTS:
        params = suite_defaults(name)

        def run(name=name, params=params):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run_experiment(name, params, seed, 1e-9, outdir)

        def check(code, name=name, params=params):
            with open(os.path.join(outdir, f"{name}.json")) as fh:
                art = json.load(fh)
            if code != 0 or not art["passed"]:
                return fail("experiment-failed", f"exit {code}")
            if name in SEEDED_EXPERIMENTS:
                ok = check_seeded(name, params, art["results"])
            else:
                ok = close_to(art["results"], reference[name])
            return PASS if ok else fail("reference-drift", "results differ from the reference")

        tasks.append(Task(name, run, check))
    return Workload("suite", tasks, lambda: shutil.rmtree(outdir, ignore_errors=True))


# ---------------------------------------------------------------------------
# chain: long and wide uniformization series, on one site and on several
# ---------------------------------------------------------------------------


def build_chain(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    tasks = []

    # transition rows under quadratic death: N+1 series per call.  The work
    # grows with scale * t, and these tasks set chain's p90 between the
    # sizes of the N grid, so the seed moves scale and t by 1% at most.
    for k in range(15):
        N = 16 + round(48 * k / 14)
        scale, t = float(rng.uniform(0.99, 1.01)), float(rng.uniform(0.099, 0.101))
        rates = bdchain.BirthDeathRates.quadratic_death(scale)
        ks = np.arange(N + 1, dtype=float)
        oracle = expm(tridiagonal_generator(np.zeros(N + 1), scale * ks * (ks - 1)) * t)

        def check(sg, oracle=oracle):
            gap = float(np.abs(sg.matrix - oracle).sum(axis=1).max())
            if gap > sg.trunc_error + ORACLE_SLACK:
                return fail("oracle-mismatch", f"row l1 gap {gap:.3e} > {sg.trunc_error:.3e}")
            if sg.trunc_error > 2 * bdchain.DEFAULT.uniformization_tol:
                return fail("tail-over-tol", f"trunc_error {sg.trunc_error:.3e}")
            return PASS

        label = f"transition quadratic_death({scale:.4f}) t={t:.4f} N={N}"
        tasks.append(Task(label, call(bdchain, "transition", rates, t, N), check))

    # Kingman block counts: one long series per call.  The n sweep and t are
    # the size axis of this family, so they do not depend on the seed.
    for k in range(15):
        n, t = 50 + round(250 * k / 14), 0.5
        ks = np.arange(n + 1, dtype=float)
        oracle = expm(tridiagonal_generator(np.zeros(n + 1), ks * (ks - 1) / 2.0) * t)[n]
        check = lambda ev, oracle=oracle: check_law(ev.poly.coeffs_float(), oracle, ev.tail_bound, 1e-13)
        run = call(bdchain, "kingman", n, True, t)
        tasks.append(Task(f"kingman n={n} t={t}", run, check, frozenset({"tail-over-tol"})))

    # wide real-rooted laws under constant birth and linear plus quadratic death
    for k in range(60):
        deg = 20 + round(60 * k / 59)
        roots = -(0.05 + 2.95 * (np.arange(deg) + rng.uniform(0.1, 0.9, deg)) / deg)
        w = np.poly(roots)[::-1]
        mu = Measure(w / w.sum())
        b0, d1, d2 = (float(x) for x in rng.uniform(0.8, 1.2, 3))
        t = float(rng.uniform(0.145, 0.155))
        M = deg + 40
        ks = np.arange(M + 1, dtype=float)
        Q = tridiagonal_generator(np.full(M + 1, b0), d1 * ks + d2 * ks * (ks - 1))
        p0 = np.zeros(M + 1)
        p0[: deg + 1] = mu.weights
        oracle = p0 @ expm(Q * t)
        rates = bdchain.BirthDeathRates.from_polynomial(b0, d1, d2)
        check = lambda ev, oracle=oracle: check_law(
            ev.poly.coeffs_float(), oracle, ev.tail_bound, bdchain.DEFAULT.uniformization_tol
        )
        label = f"evolve deg={deg} b0={b0:.3f} d1={d1:.3f} d2={d2:.3f} t={t:.4f}"
        known = frozenset({"tail-over-tol"} if deg >= 60 else ())
        tasks.append(Task(label, call(bdchain, "evolve", mu, rates, t), check, known))

    tasks += particle_tasks(rng)
    return Workload("chain", shuffled(rng, tasks))


# ---------------------------------------------------------------------------
# certify: root isolation, stability and NA verdicts with known truth
# ---------------------------------------------------------------------------


def distinct_rationals(rng, count: int) -> list:
    out: set = set()
    while len(out) < count:
        out.add(Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9))))
    return sorted(out)


def check_isolation(rl, planted: list) -> Outcome:
    if rl.certified_real_count != len(planted) or len(rl.roots) != len(planted):
        return fail("wrong-root-count", f"{rl.certified_real_count} certified of {len(planted)}")
    mids = sorted(zip((z.real for z in rl.roots), rl.radii))
    for r, (mid, rad) in zip(planted, mids):
        if abs(mid - float(r)) > rad + 4 * polycore.EPS * max(1.0, abs(float(r))):
            return fail("root-outside-interval", f"root {r} not within {rad:.1e} of {mid}")
    return PASS


def separating_points(roots: np.ndarray) -> list:
    """Points below, between and above the sorted roots."""
    r = np.sort(roots)
    return [2.0 * r[0]] + list((r[:-1] + r[1:]) / 2.0) + [r[-1] / 2.0]


def sign_changes(coeffs, points: list) -> int:
    """Sign changes of the exact rational value of the float polynomial
    across the points: a proven lower bound on its real roots."""
    cs = [Fraction(float(c)) for c in coeffs]
    signs = []
    for x in points:
        x, acc = Fraction(float(x)), Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        signs.append(acc > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def check_float_roots(rl, points: list) -> Outcome:
    """Each interval between consecutive points holds exactly one root, so a
    returned root farther than its radius from every interval is wrong."""
    intervals = list(zip(points, points[1:]))
    for z, rad in zip(rl.roots, rl.radii):
        dist = min(math.hypot(max(lo - z.real, 0.0, z.real - hi), z.imag) for lo, hi in intervals)
        if dist > rad:
            return fail("root-outside-radius", f"root {z:.6g} is {dist:.3g} from every root, radius {rad:.3g}")
    return PASS if rl.certified_real_count == len(points) - 1 else UNDECIDED


def bernoulli_factors(ps: list, var: int, nvars: int) -> MultiPoly:
    """prod_p (1 - p + p x_var) in nvars variables."""
    unit = tuple(int(k == var) for k in range(nvars))
    f = MultiPoly.from_dict({(0,) * nvars: Fraction(1)}, nvars)
    for p in ps:
        f = f * MultiPoly.from_dict({(0,) * nvars: 1 - p, unit: p}, nvars)
    return f


def bernoulli_product(ps: list) -> MultiPoly:
    f = bernoulli_factors([], 0, len(ps))
    for i, p in enumerate(ps):
        f = f * bernoulli_factors([p], i, len(ps))
    return f


def multi_affine(a, b, c, d) -> MultiPoly:
    return MultiPoly.from_dict({(0, 0): a, (1, 0): b, (0, 1): c, (1, 1): d}, 2)


def rayleigh_defect(cert) -> str:
    """The failure class of a wrong Stable from is_stable_multi."""
    sampled = cert.note.startswith("multi-affine, no refutation")
    return "rayleigh-sampled-stable" if sampled else "wrong-stable"


def exp_series(sigma: Fraction, trunc: int) -> dict:
    c, term = {}, Fraction(1)
    for k in range(trunc + 1):
        c[k] = term
        term = term * sigma / (k + 1)
    return c


def check_tstable(cert, c: dict, truly_tstable: bool, tail: float) -> Outcome:
    """An approximant refutation is re-evaluated on that approximant."""
    if cert.verdict is Verdict.REFUTED and cert.m is not None and not truly_tstable:
        fm = stability.tstable_approximant(c, cert.m).poly.to_uni()
        ok = witness_is_valid(fm, cert.witness, tail)
        return PASS if ok else fail("invalid-witness", f"m={cert.m} witness {cert.witness}")
    f = UniPoly.from_coeffs([c[k] for k in range(len(c))])
    return check_verdict(cert, truly_tstable, f, "wrong-stable", tail)


def build_certify(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    tasks = []

    # exact rational products of distinct linear factors
    for deg in range(4, 11):
        roots = distinct_rationals(rng, deg)
        p = UniPoly.from_roots(roots)
        a, b = Fraction(int(rng.integers(-5, 6)), 2), Fraction(int(rng.integers(1, 6)), 2)
        pair = p * UniPoly.from_coeffs([a * a + b * b, -2 * a, Fraction(1)])
        tag = f"deg={deg} roots={[str(r) for r in roots]}"
        tasks += [
            Task(f"real_roots exact {tag}", call(polycore, "real_roots", p),
                 lambda rl, roots=roots: check_isolation(rl, roots)),
            Task(f"exact_real_root_count {tag}", call(polycore, "exact_real_root_count", p),
                 lambda n, deg=deg: PASS if n == deg else fail("wrong-root-count", str(n))),
            Task(f"exact_real_root_count {tag} pair={a}+-{b}i",
                 call(polycore, "exact_real_root_count", pair),
                 lambda n, deg=deg: PASS if n == deg else fail("wrong-root-count", str(n))),
            Task(f"is_real_rooted exact {tag}", call(stability, "is_real_rooted", p),
                 lambda cert, p=p: check_verdict(cert, True, p, "wrong-stable")),
            Task(f"is_real_rooted exact {tag} pair={a}+-{b}i",
                 call(stability, "is_real_rooted", pair),
                 lambda cert, pair=pair: check_verdict(cert, False, pair, "wrong-stable")),
        ]

    # float polynomials with geometric roots and with a planted complex pair,
    # degree 4..30.  The spread of the roots keeps the planted structure
    # after rounding to float coefficients (exact Sturm counts of the
    # rounded polynomials confirm it); sign changes re-prove the real roots.
    for deg in range(4, 31):
        roots = np.sort(-0.05 * 1.3 ** (np.arange(deg) + rng.uniform(-0.2, 0.2, deg)))
        cs = np.poly(roots)[::-1]
        points = separating_points(roots)
        if sign_changes(cs, points) != deg:
            raise RuntimeError(f"rounding moved the roots of the degree-{deg} input")
        p = UniPoly.from_coeffs(list(cs))
        a, b = -float(rng.uniform(0.9, 1.1)), float(rng.uniform(0.45, 0.55))
        pair_roots = np.concatenate([roots[:-2], [a + 1j * b, a - 1j * b]])
        pair = UniPoly.from_coeffs(list(np.poly(pair_roots).real[::-1]))
        tag = f"deg={deg} seed={seed}"
        tasks += [
            Task(f"real_roots float {tag}", call(polycore, "real_roots", p),
                 lambda rl, points=points: check_float_roots(rl, points),
                 frozenset({"root-outside-radius"} if deg >= 26 else ())),
            Task(f"is_real_rooted float real-rooted {tag}",
                 call(stability, "is_real_rooted", p),
                 lambda cert, p=p: check_verdict(cert, True, p, "wrong-stable")),
            Task(f"is_real_rooted float {tag} pair={a:.4f}+-{b:.4f}i",
                 call(stability, "is_real_rooted", pair),
                 lambda cert, pair=pair: check_verdict(cert, False, pair, "float-policy-stable"),
                 frozenset({"float-policy-stable"} if deg >= 20 else ())),
        ]

    # Bernoulli products: symmetric ones are decided through the diagonal,
    # the others by line sampling
    for n in range(2, 9):
        p = Fraction(int(rng.integers(1, 10)), 10)
        f = bernoulli_product([p] * n)
        tasks.append(Task(f"is_stable_multi Bernoulli({p})^{n}",
                          call(stability, "is_stable_multi", f),
                          lambda cert, f=f: check_verdict(cert, True, f, "wrong-stable")))
    for n in (2, 3, 4, 6):
        ps = [Fraction(int(x), 10) for x in rng.integers(1, 10, n)]
        f = bernoulli_product(ps)
        tasks.append(Task(f"is_stable_multi Bernoulli{[str(x) for x in ps]}",
                          call(stability, "is_stable_multi", f),
                          lambda cert, f=f: check_verdict(cert, True, f, "wrong-stable")))

    # bivariate multi-affine a + bx + cy + dxy, stable iff bc - ad >= 0; the
    # first eight lie within 1e-5 of the boundary.  A Stable on a non-stable
    # one counts as the known defect only when it comes from line sampling.
    rayleigh = []
    for sign in (1, -1):
        for _ in range(4):
            delta = sign * Fraction(int(rng.integers(1, 101)), 10**7)
            rayleigh.append((Fraction(1), Fraction(1), Fraction(2), 2 + delta))
    for margin in (0.0, 0.0, *rng.uniform(0.1, 0.5, 6), *-rng.uniform(0.1, 0.5, 6)):
        a, b, c = (Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 10))) for _ in range(3))
        rayleigh.append((a, b, c, b * c / a * (1 + Fraction(margin).limit_denominator(1000))))
    for a, b, c, d in rayleigh:
        f = multi_affine(a, b, c, d)
        stable = b * c - a * d >= 0
        label = f"is_stable_multi {a} + {b}x + {c}y + {d}xy (bc-ad={float(b * c - a * d):.3g})"
        check = lambda cert, f=f, stable=stable: check_verdict(cert, stable, f, rayleigh_defect(cert))
        known = frozenset(() if stable else {"rayleigh-sampled-stable"})
        tasks.append(Task(label, call(stability, "is_stable_multi", f), check, known))

    # truncated Poisson sequences: t-stable when the tail is declared; as
    # finite-support polynomials (partial sums of exp) they are not stable
    for trunc in (10, 20, 30, 40):
        sigma = Fraction(int(rng.integers(1, 7)), 2)
        c = exp_series(sigma, trunc)
        s = float(sigma)
        tail = math.exp(s) * s ** (trunc + 1) / math.factorial(trunc + 1)
        tag = f"sigma={sigma} trunc={trunc}"
        tasks += [
            Task(f"certify_tstable Poisson {tag} tail={tail:.2e}",
                 call(stability, "certify_tstable", c, tail_bound=tail),
                 lambda cert, c=c, tail=tail: check_tstable(cert, c, True, tail)),
            Task(f"certify_tstable exp partial sum {tag}", call(stability, "certify_tstable", c),
                 lambda cert, c=c: check_tstable(cert, c, False, 0.0)),
        ]

    tasks += na_tasks(rng, seed)
    return Workload("certify", shuffled(rng, tasks))


# ---------------------------------------------------------------------------
# multi-site systems: product-space uniformization and Gillespie sampling
# (in chain), NA checks (in certify)
# ---------------------------------------------------------------------------


def random_system(rng, n: int, birth: bool = True) -> SiteSystem:
    return SiteSystem(
        jump=rng.uniform(0.2, 0.4, (n, n)),
        birth=rng.uniform(0.2, 0.3, n) if birth else np.zeros(n),
        death=rng.uniform(0.6, 0.8, n),
    )


def bernoulli_law(rng, n: int) -> Measure:
    return Measure.product(*(Measure.bernoulli(float(p)) for p in rng.uniform(0.2, 0.8, n)))


def tv(a: Measure, b: Measure) -> float:
    return 0.5 * float(np.abs(a.weights - b.weights).sum())


def rational_two_site(rng, right_factors: int) -> np.ndarray:
    """Exactly stable two-site law: rational Bernoulli products pushed
    through one rational jump transform."""
    frac = lambda: Fraction(int(rng.integers(1, 10)), int(rng.integers(10, 14)))
    right = [frac() for _ in range(right_factors)]
    f = bernoulli_factors([frac()], 0, 2) * bernoulli_factors(right, 1, 2)
    f = particles.single_jump_transform(f, 0, 1, Fraction(int(rng.integers(1, 8)), 8))
    w = np.empty(tuple(s + 1 for s in f.max_degree_per_var()), dtype=object)
    w[...] = Fraction(0)
    for alpha, c in f.terms:
        w[alpha] = c
    return w


def na_outcome(rep, must_pass: bool) -> Outcome:
    if rep.passed != must_pass:
        return fail("wrong-na-verdict", f"passed={rep.passed}")
    if not must_pass and not any(s.witness_pair for s in rep.splits if not s.passed):
        return fail("missing-na-witness")
    sampled = any(s.mode == "sampled" for s in rep.splits)
    return UNDECIDED if sampled else PASS


def particle_tasks(rng) -> list:
    tol = particles.DEFAULT.uniformization_tol
    tasks = []

    # product-space uniformization against the exact order-1 transform and,
    # on the small two-site boxes, the exact transform against the
    # uniformizer; both oracles are computed here, in set-up
    for n, b in [(2, 10), (2, 13), (2, 16), (2, 20), (2, 24), (2, 28), (3, 10), (3, 12), (3, 14)]:
        system, mu0 = random_system(rng, n), bernoulli_law(rng, n)
        t, box = float(rng.uniform(0.45, 0.55)), (b,) * n
        f0 = measures.pgf(mu0)
        exact = particles.exact_pgf_transform(f0, system, t).to_measure(box)

        def check(out, exact=exact):
            gap = tv(exact, out)
            if gap >= 1e-6:
                return fail("oracle-mismatch", f"TV {gap:.3e} to the exact transform")
            return PASS if out.tail_bound <= 2 * tol else fail("tail-over-tol", f"{out.tail_bound:.3e}")

        label = f"truncated_generator_evolve sites={n} box={b} t={t:.4f}"
        run = call(particles, "truncated_generator_evolve", mu0, system, t, box=box)
        tasks.append(Task(label, run, check))
        if n == 2 and b <= 16:
            uniformized = particles.truncated_generator_evolve(mu0, system, t, box=box)

            def run(f0=f0, system=system, t=t, box=box):
                return particles.exact_pgf_transform(f0, system, t).to_measure(box)

            def check(out, ref=uniformized):
                gap = tv(out, ref)
                return PASS if gap < 1e-6 else fail("oracle-mismatch", f"TV {gap:.3e} to the uniformizer")

            tasks.append(Task(f"exact_pgf_transform sites=2 box={b} t={t:.4f}", run, check))

    # Gillespie sampling against the uniformizer
    samples, box = 10_000, (12, 12)
    for counts in [(0, 1), (1, 2), (2, 0)]:
        system, init = random_system(rng, 2), Configuration(counts)
        t, key = float(rng.uniform(0.45, 0.55)), int(rng.integers(0, 2**31))
        law0 = Measure.point_mass(init.counts, shape=tuple(b + 1 for b in box))
        ref = particles.truncated_generator_evolve(law0, system, t, box=box, tol=1e-10)

        def check(emp, ref=ref):
            gap, limit = tv(emp, ref), 4.0 * math.sqrt(ref.weights.size / samples)
            return PASS if gap < limit else fail("oracle-mismatch", f"TV {gap:.3e} >= {limit:.3e}")

        label = f"gillespie_empirical init={init.counts} t={t:.4f} seed={key}"
        run = call(particles, "gillespie_empirical", system, init, t, samples, key, box)
        tasks.append(Task(label, run, check))
    return tasks


def na_tasks(rng, seed: int) -> list:
    """NA: exact stable fixtures pass, diagonal mixtures are flagged, and
    float laws evolved (here, in set-up) from Bernoulli products pass."""
    tasks = []
    for i in range(30):
        w = rational_two_site(rng, 1 + i % 3)
        tasks.append(Task(f"na_all_splits rational two-site #{i} seed={seed}",
                          call(nacheck, "na_all_splits", w), lambda rep: na_outcome(rep, True)))
    for i in range(10):
        a, k = float(rng.uniform(0.2, 0.8)), 1 + i % 2
        w = np.zeros((k + 1, k + 1))
        w[0, 0], w[k, k] = a, 1.0 - a
        tasks.append(Task(f"na_all_splits diagonal mixture a={a:.4f} k={k}",
                          call(nacheck, "na_all_splits", Measure(w)), lambda rep: na_outcome(rep, False)))

    # Without births at most one particle starts per site, so the evolved
    # law stays on the 3^3 box
    for i in range(8):
        system, mu0 = random_system(rng, 3, birth=False), bernoulli_law(rng, 3)
        t = (0.2 + 0.8 * i / 7) * float(rng.uniform(0.98, 1.02))
        law = particles.truncated_generator_evolve(mu0, system, t, box=(3, 3, 3))
        tasks.append(Task(f"na_all_splits evolved 3-site t={t:.4f} seed={seed}",
                          call(nacheck, "na_all_splits", law), lambda rep: na_outcome(rep, True)))
    return tasks


WORKLOADS = {
    "suite": build_suite,
    "chain": build_chain,
    "certify": build_certify,
}
