"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; runtime caps are asserted against wall
clock.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from stablepgf.bdchain import (
    BirthDeathRates,
    birth_monotonicity_probe,
    evolve,
    hermite_root_law,
    kingman,
    kummer_root_law,
    lie_split_evolve,
    quadratic_map_counterexample,
    tv_distance,
    wf_residual,
)
from stablepgf.cli import _random_real_rooted, _ts_fixture
from stablepgf.measures import Measure, bp_decompose, pgf
from stablepgf.nacheck import na_all_splits
from stablepgf.particles import (
    Configuration,
    SiteSystem,
    exact_pgf_transform,
    gillespie_empirical,
    truncated_generator_evolve,
)
from stablepgf.polycore import UniPoly, kummer_series_poly, negative_x_zeros_of_series
from stablepgf.stability import Verdict, is_real_rooted, tstable_approximant


def _report(num, name, start):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - start:.1f}s)")


def test_c01_quadratic_death_preservation():
    start = time.time()
    rng = np.random.default_rng(101)
    rates = BirthDeathRates.quadratic_death()
    t_grid = np.logspace(-3, 0, 7)
    for _ in range(100):
        mu = _random_real_rooted(rng)
        for t in t_grid:
            ev = evolve(mu, rates, float(t), tol=1e-13)
            assert is_real_rooted(ev.poly, coeff_perturb=ev.tail_bound).verdict is not Verdict.REFUTED
    assert time.time() - start < 60
    _report(1, "quadratic-death preservation", start)


def test_c02_double_root_counterexample():
    start = time.time()
    for t in np.linspace(0.005, 1.0, 40):
        poly, cert = quadratic_map_counterexample(0.5, float(t))
        assert cert.verdict is Verdict.REFUTED
        disc = float(poly.coeffs[1]) ** 2 - 4 * float(poly.coeffs[0]) * float(poly.coeffs[2])
        closed = math.exp(-4 * float(t)) - math.exp(-2 * float(t))
        assert abs(disc - closed) < 1e-12
    assert time.time() - start < 1
    _report(2, "double-root counterexample", start)


def test_c03_birth_rate_necessity():
    start = time.time()
    t_grid = [1e-4, 3e-4, 1e-3]
    inc = BirthDeathRates.from_sequences([1.0, 2.0, 1.0])
    dec = BirthDeathRates.from_sequences([2.0, 1.0])
    for rec in birth_monotonicity_probe(inc, 0, t_grid):
        assert rec["verdict"] == "Refuted"
    for rec in birth_monotonicity_probe(dec, 0, t_grid):
        assert rec["verdict"] != "Refuted"
    assert time.time() - start < 10
    _report(3, "birth-rate necessity probe", start)


def test_c04_hermite_law():
    start = time.time()
    for n in (2, 3):
        grid = [4.0 ** (-j) for j in range(3, 11)]
        recs = hermite_root_law(-0.5, n, None, grid + [1e-6])
        reports = [r["report"] for r in recs]
        assert reports[-1] < 1e-2
        assert all(b < a for a, b in zip(reports[:-1], reports[1:-1]))
    assert time.time() - start < 30
    _report(4, "hermite splitting law", start)


def test_c05_kummer_law():
    start = time.time()
    for n in (2, 3, 5):
        recs = kummer_root_law(n, [1e-5])
        assert recs[0]["report"] < 1e-3
    for n in range(2, 13):
        zeros = negative_x_zeros_of_series(kummer_series_poly(n))
        assert len(zeros) == n - 1
        assert all(z < 0 for z in zeros)
    assert time.time() - start < 30
    _report(5, "kummer small-root law", start)


def test_c06_kingman_bernoulli_poisson():
    start = time.time()
    ev100 = kingman(100, True, 0.5)
    assert is_real_rooted(ev100.poly, coeff_perturb=ev100.tail_bound).verdict is not Verdict.REFUTED
    d100 = bp_decompose(ev100)
    assert d100.residual < 1e-8
    assert d100.q in (0, 1)
    ev200 = kingman(200, True, 0.5)
    d200 = bp_decompose(ev200)
    assert d200.residual < 1e-8
    ratio = d200.residual / max(d100.residual, 1e-300)
    assert ratio < 10 or d200.residual < 1e-12
    assert time.time() - start < 60
    _report(6, "kingman bernoulli-poisson structure", start)


def test_c07_wright_fisher_pde():
    start = time.time()
    for t in (0.05, 0.2):
        res = wf_residual(Measure.point_mass(5), t)
        assert res < 1e-6
    assert time.time() - start < 10
    _report(7, "wright-fisher pde residual", start)


def test_c08_trotter_split():
    start = time.time()
    mu = Measure.point_mass(5)
    ref = evolve(mu, BirthDeathRates.from_polynomial(1.0, 1.0, 1.0), 0.5, tol=1e-14)
    tvs = []
    for steps in (16, 64, 256, 1024, 4096):
        split = lie_split_evolve(mu, 1.0, 1.0, 1.0, 0.5, steps)
        tvs.append(tv_distance(split, ref))
    assert all(a > b for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] < 1e-6
    assert time.time() - start < 60
    _report(8, "trotter split convergence", start)


def test_c09_mm_infty_closed_form():
    start = time.time()
    rng = np.random.default_rng(909)
    for _ in range(10):
        b, d, t = (float(x) for x in rng.uniform(0.2, 2.0, size=3))
        ev = evolve(Measure.point_mass(0, shape=(1,)), BirthDeathRates.mm_infty(b, d), t, tol=1e-13)
        mean = (b / d) * (1 - math.exp(-d * t))
        pois = Measure.poisson(mean, box=ev.poly.degree).weights
        assert np.abs(ev.poly.coeffs_float() - pois).max() < 1e-10
    assert time.time() - start < 10
    _report(9, "M/M/inf closed form", start)


def test_c10_na_suite():
    start = time.time()
    rng = np.random.default_rng(110)
    for _ in range(50):
        w = _ts_fixture(rng)
        assert w.shape[0] * w.shape[1] <= 16
        rep = na_all_splits(w)
        assert rep.passed
        assert float(rep.worst_slack) <= 1e-12
    bad = np.zeros((2, 2))
    bad[0, 0] = bad[1, 1] = 0.5
    rep = na_all_splits(Measure(bad))
    assert not rep.passed
    violating = [s for s in rep.splits if not s.passed]
    assert violating and violating[0].witness_pair is not None
    assert time.time() - start < 120
    _report(10, "negative association suite", start)


def test_c11_cross_oracle_and_gillespie():
    start = time.time()
    rng = np.random.default_rng(111)
    for _ in range(20):
        system = SiteSystem(
            jump=rng.uniform(0, 0.6, (2, 2)),
            birth=rng.uniform(0, 0.8, 2),
            death=rng.uniform(0.2, 1.0, 2),
        )
        mu0 = Measure.product(Measure.bernoulli(0.4), Measure.point_mass(2, shape=(3,)))
        ex = exact_pgf_transform(pgf(mu0), system, 0.5).to_measure((12, 12))
        tr = truncated_generator_evolve(mu0, system, 0.5, box=(12, 12), tol=1e-12)
        assert 0.5 * np.abs(ex.weights - tr.weights).sum() < 1e-6
    system = SiteSystem(
        jump=np.array([[0.0, 0.5], [0.3, 0.0]]),
        birth=np.array([0.5, 0.2]),
        death=np.array([0.8, 0.6]),
    )
    samples = 100_000
    emp = gillespie_empirical(system, Configuration((1, 1)), 0.5, samples, seed=7, box=(9, 9))
    ref = truncated_generator_evolve(
        Measure.point_mass((1, 1)), system, 0.5, box=(9, 9), tol=1e-10
    )
    tv = 0.5 * np.abs(emp.weights - ref.weights).sum()
    states = 10 * 10
    assert tv < 4.0 * math.sqrt(states / samples)
    assert time.time() - start < 180
    _report(11, "independent-chain cross-oracle", start)


def test_c12_theorem_approximants():
    start = time.time()
    for sigma in (F(1, 2), F(1), F(2)):
        c = {}
        term = F(1)
        for k in range(61):
            c[k] = term
            term = term * sigma / (k + 1)
        sups = []
        for m in (5, 10, 20):
            fm = tstable_approximant(c, m).poly.to_uni()
            closed = UniPoly.from_coeffs([F(1), F(sigma, m)]).pow(m)
            assert fm.coeffs == closed.coeffs  # exact rational identity
            xs = [complex(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 64)]
            s = float(sigma)
            sup = max(
                abs(math.exp(-s) * (1 + s * x / m) ** m - np.exp(s * (x - 1))) for x in xs
            )
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]
    assert time.time() - start < 5
    _report(12, "approximant closed form and convergence", start)
