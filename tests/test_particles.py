import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from stablepgf.measures import Measure, marginal_sum, pgf
from stablepgf.particles import (
    Configuration,
    SiteSystem,
    exact_pgf_transform,
    gillespie_empirical,
    gillespie_sample,
    single_jump_transform,
    truncated_generator_evolve,
)
from stablepgf.polycore import MultiPoly, UniPoly
from stablepgf.stability import Verdict, is_real_rooted, is_stable_multi


def random_order1(rng, n=2, birth_hi=0.8):
    return SiteSystem(
        jump=rng.uniform(0, 0.6, (n, n)),
        birth=rng.uniform(0, birth_hi, n),
        death=rng.uniform(0.2, 1.0, n),
    )


class TestSingleJump:
    def test_full_move(self):
        f = MultiPoly.from_dict({(1, 0): 1}, 2)
        assert single_jump_transform(f, 0, 1, 1.0).terms_dict() == {(0, 1): 1.0}

    def test_half_move(self):
        f = MultiPoly.from_dict({(1, 1): 1}, 2)
        out = single_jump_transform(f, 0, 1, 0.5).terms_dict()
        assert out == {(0, 2): 0.5, (1, 1): 0.5}

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            single_jump_transform(MultiPoly.from_dict({(1, 0): 1}, 2), 1, 1, 0.5)

    def test_preserves_stability(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            # random stable multi-affine: product of positive affine forms
            f = MultiPoly.from_dict({(0, 0): 1.0}, 2)
            for _ in range(int(rng.integers(1, 4))):
                f = f * MultiPoly.from_dict(
                    {
                        (0, 0): float(rng.uniform(0.1, 1)),
                        (1, 0): float(rng.uniform(0, 1)),
                        (0, 1): float(rng.uniform(0, 1)),
                    },
                    2,
                )
            out = single_jump_transform(f, 0, 1, float(rng.uniform(0, 1)))
            assert is_stable_multi(out, budget=100).verdict is not Verdict.REFUTED


class TestExactTransform:
    def test_scalar_death(self):
        sys1 = SiteSystem(jump=np.zeros((1, 1)), birth=np.zeros(1), death=np.array([0.8]))
        res = exact_pgf_transform(MultiPoly.from_dict({(1,): 1.0}, 1), sys1, 0.5)
        d = res.poly.terms_dict()
        assert d[(0,)] == pytest.approx(1 - math.exp(-0.4), abs=1e-14)
        assert d[(1,)] == pytest.approx(math.exp(-0.4), abs=1e-14)

    def test_matches_single_jump(self):
        q, t = 0.7, 0.6
        sys2 = SiteSystem(
            jump=np.array([[0.0, q], [0.0, 0.0]]), birth=np.zeros(2), death=np.zeros(2)
        )
        h = MultiPoly.from_dict({(2, 1): 0.5, (0, 0): 0.5}, 2)
        got = exact_pgf_transform(h, sys2, t).poly.terms_dict()
        want = single_jump_transform(h, 0, 1, 1 - math.exp(-q * t)).terms_dict()
        assert set(got) == set(want)
        assert all(abs(got[k] - want[k]) < 1e-13 for k in got)

    def test_births_only(self):
        sys3 = SiteSystem(jump=np.zeros((2, 2)), birth=np.array([0.3, 0.9]), death=np.zeros(2))
        h = MultiPoly.from_dict({(1, 1): 1.0}, 2)
        out = exact_pgf_transform(h, sys3, 0.5)
        assert out.poly.terms == h.terms
        assert out.exp_rates == pytest.approx((0.15, 0.45))

    def test_rejects_general_rates(self):
        sys4 = SiteSystem(
            jump=np.zeros((1, 1)),
            birth=np.zeros(1),
            death=np.zeros(1),
            death_fn=lambda i, k: float(k * (k - 1)),
        )
        with pytest.raises(ValueError):
            exact_pgf_transform(MultiPoly.from_dict({(2,): 1.0}, 1), sys4, 0.1)

    def test_output_is_pgf(self):
        rng = np.random.default_rng(4)
        sys5 = random_order1(rng)
        mu = Measure.product(Measure.bernoulli(0.3), Measure.bernoulli(0.6))
        out = exact_pgf_transform(pgf(mu), sys5, 0.7)
        val = out([1.0, 1.0])
        assert abs(val - 1.0) < 1e-10
        m = out.to_measure((14, 14))
        assert m.weights.min() >= 0

    def test_semigroup_property(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            sysr = random_order1(rng, n=int(rng.integers(2, 4)))
            mu0 = MultiPoly.from_dict(
                {tuple(int(e) for e in rng.integers(0, 2, sysr.n)): 1.0}, sysr.n
            )
            s, t = float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.1, 0.5))
            once = exact_pgf_transform(mu0, sysr, s + t)
            twice = exact_pgf_transform(exact_pgf_transform(mu0, sysr, s), sysr, t)
            keys = set(once.poly.terms_dict()) | set(twice.poly.terms_dict())
            da = once.poly.terms_dict()
            db = twice.poly.terms_dict()
            assert all(abs(da.get(k, 0.0) - db.get(k, 0.0)) < 1e-9 for k in keys)
            assert np.allclose(once.exp_rates, twice.exp_rates, atol=1e-9)

    def test_marginal_sums_stay_real_rooted(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            sysr = random_order1(rng)
            mu0 = Measure.product(Measure.bernoulli(0.4), Measure.poisson(0.6, box=10))
            out = exact_pgf_transform(pgf(mu0), sysr, 0.5).to_measure((16, 16))
            law = marginal_sum(out, [0, 1])
            cert = is_real_rooted(
                UniPoly.from_coeffs(list(law.weights)), coeff_perturb=out.tail_bound + 1e-10
            )
            assert cert.verdict is not Verdict.REFUTED


class TestTruncatedEvolve:
    def test_identity_at_zero(self):
        mu = Measure.product(Measure.bernoulli(0.4), Measure.bernoulli(0.2))
        sys0 = SiteSystem(jump=np.ones((2, 2)), birth=np.ones(2), death=np.ones(2))
        out = truncated_generator_evolve(mu, sys0, 0.0, box=(3, 3))
        assert np.allclose(out.weights[:2, :2], mu.weights)

    def test_pure_birth_is_poisson(self):
        sys1 = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([0.9]), death=np.zeros(1))
        out = truncated_generator_evolve(Measure.point_mass((0,)), sys1, 0.8, box=(25,))
        pois = Measure.poisson(0.9 * 0.8, box=25).weights
        assert np.abs(out.weights - pois).max() < 1e-12

    def test_cross_oracle_battery(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sysr = random_order1(rng)
            mu0 = Measure.product(Measure.bernoulli(0.4), Measure.point_mass(2, shape=(3,)))
            ex = exact_pgf_transform(pgf(mu0), sysr, 0.5).to_measure((12, 12))
            tr = truncated_generator_evolve(mu0, sysr, 0.5, box=(12, 12), tol=1e-12)
            tv = 0.5 * np.abs(ex.weights - tr.weights).sum()
            assert tv < 1e-6

    def test_general_rates_accepted(self):
        sysg = SiteSystem(
            jump=np.zeros((1, 1)),
            birth=np.zeros(1),
            death=np.zeros(1),
            death_fn=lambda i, k: float(k * (k - 1)),
        )
        out = truncated_generator_evolve(Measure.point_mass((2,)), sysg, 0.3, box=(2,))
        assert out.weights[1] == pytest.approx(1 - math.exp(-0.6), abs=1e-12)

    def test_three_site_box_memory(self):
        # a dense step matrix on the 15^3 states of this box alone is 91 MB
        system = SiteSystem(jump=np.full((3, 3), 0.5), birth=np.full(3, 0.4), death=np.ones(3))
        mu = Measure.point_mass((1, 1, 1))
        tracemalloc.start()
        try:
            out = truncated_generator_evolve(mu, system, 0.5, box=(14, 14, 14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert abs(out.weights.sum() - 1.0) <= out.tail_bound + 1e-12

    def test_box_too_small_raises(self):
        sys1 = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([2.0]), death=np.zeros(1))
        with pytest.raises(ValueError):
            truncated_generator_evolve(Measure.point_mass((0,)), sys1, 2.0, box=(2,), tol=1e-10)


def test_site_system_json_round_trip():
    rng = np.random.default_rng(2)
    system = random_order1(rng, n=3)
    back = SiteSystem.from_json(system.to_json())
    assert np.allclose(back.jump, system.jump)
    assert np.allclose(back.birth, system.birth)
    assert np.allclose(back.death, system.death)


class TestGillespie:
    def test_zero_rates(self):
        sys0 = SiteSystem(jump=np.zeros((2, 2)), birth=np.zeros(2), death=np.zeros(2))
        assert gillespie_sample(sys0, Configuration((3, 1)), 4.0, seed=9).counts == (3, 1)

    def test_reproducible(self):
        rng_sys = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([1.0]), death=np.array([1.0]))
        a = gillespie_sample(rng_sys, Configuration((0,)), 3.0, seed=7)
        b = gillespie_sample(rng_sys, Configuration((0,)), 3.0, seed=7)
        assert a.counts == b.counts

    def test_event_cap(self):
        busy = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([50.0]), death=np.array([1.0]))
        with pytest.raises(RuntimeError):
            gillespie_sample(busy, Configuration((0,)), 100.0, seed=3, max_events=20)

    def test_stationary_chi_square(self):
        # single site, birth=death=1, large t: law ~ Poisson(1)
        sys1 = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([1.0]), death=np.array([1.0]))
        samples = 100_000
        emp = gillespie_empirical(sys1, Configuration((0,)), 8.0, samples, seed=42, box=(11,))
        pois = Measure.poisson(1.0, box=11).weights
        counts = emp.weights * samples
        expected = pois * samples
        # lump the tail so every expected bin count is healthy
        k = 8
        obs = np.append(counts[:k], counts[k:].sum())
        exp = np.append(expected[:k], expected[k:].sum() + samples * (1 - pois.sum()))
        stat = float(((obs - exp) ** 2 / np.maximum(exp, 1e-9)).sum())
        pval = float(chi2.sf(stat, df=k))
        assert pval > 0.01

    def test_two_site_jump_occupancy(self):
        # jump-only system: occupancy matches the per-particle matrix
        # exponential within 3 sigma
        q = 0.8
        sys2 = SiteSystem(
            jump=np.array([[0.0, q], [0.0, 0.0]]), birth=np.zeros(2), death=np.zeros(2)
        )
        t, samples = 0.6, 20_000
        emp = gillespie_empirical(sys2, Configuration((1, 0)), t, samples, seed=5, box=(1, 1))
        p = 1 - math.exp(-q * t)
        got = emp.weights[0, 1]
        sd = math.sqrt(p * (1 - p) / samples)
        assert abs(got - p) < 3 * sd

    def test_empirical_matches_uniformizer(self):
        rng = np.random.default_rng(6)
        sysr = random_order1(rng)
        mu0 = Measure.point_mass((1, 1))
        t, samples = 0.5, 20_000
        emp = gillespie_empirical(sysr, Configuration((1, 1)), t, samples, seed=11, box=(9, 9))
        ref = truncated_generator_evolve(mu0, sysr, t, box=(9, 9), tol=1e-9)
        tv = 0.5 * np.abs(emp.weights - ref.weights).sum()
        states = 10 * 10
        assert tv < 4.0 * math.sqrt(states / samples)
