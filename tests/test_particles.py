import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import chi2

from stablepgf import bdchain, particles
from stablepgf.bdchain import BirthDeathRates
from stablepgf.measures import InputRangeError, Measure, marginal_sum, pgf
from stablepgf.particles import (
    Configuration,
    PGFWithExpFactor,
    SiteSystem,
    exact_pgf_transform,
    gillespie_empirical,
    _gillespie_runs,
    gillespie_sample,
    _philox_uniforms,
    single_jump_transform,
    truncated_generator_evolve,
)
from stablepgf.polycore import _U, MultiPoly, UniPoly
from stablepgf.stability import Verdict, is_real_rooted, is_stable_multi

from series_counts import counted_series


def random_order1(rng, n=2, birth_hi=0.8):
    return SiteSystem(
        jump=rng.uniform(0, 0.6, (n, n)),
        birth=rng.uniform(0, birth_hi, n),
        death=rng.uniform(0.2, 1.0, n),
    )


def reference_gillespie_run(system, init, t, rng, max_events):
    """One run at a time, one scalar draw at a time: the sampler as it was
    before runs were batched, kept as the reference for every run's path."""
    n = system.n
    counts = list(init.counts)
    if len(counts) != n:
        raise ValueError("configuration length does not match site count")
    now = 0.0
    jump = system.jump
    for _ in range(max_events):
        rates = []
        total = 0.0
        for i in range(n):
            br = system.birth_rate(i, counts[i])
            if br > 0:
                rates.append((br, i, 1, -1))
                total += br
            dr = system.death_rate(i, counts[i])
            if dr > 0:
                rates.append((dr, i, -1, -1))
                total += dr
            if counts[i] > 0:
                for j in range(n):
                    if j != i and jump[i, j] > 0:
                        r = float(jump[i, j]) * counts[i]
                        rates.append((r, i, 0, j))
                        total += r
        if total <= 0.0:
            break
        now += -math.log(rng.random()) / total
        if now >= t:
            break
        u = rng.random() * total
        acc = 0.0
        for r, i, d, j in rates:
            acc += r
            if u <= acc:
                if d == 1:
                    counts[i] += 1
                elif d == -1:
                    counts[i] -= 1
                else:
                    counts[i] -= 1
                    counts[j] += 1
                break
        else:
            continue
    else:
        raise RuntimeError("event-count cap exceeded")
    return Configuration(tuple(counts))


class CountingStream:
    """A scalar Philox stream keyed (seed, key) that counts its draws."""

    def __init__(self, seed, key):
        self.rng = np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


def reference_runs(system, init, t, seed, keys, max_events=1_000_000):
    """Final counts of the reference runs keyed (seed, k) for k in keys."""
    return [
        reference_gillespie_run(system, init, t, CountingStream(seed, k), max_events).counts
        for k in keys
    ]


def batched_runs(system, init, t, seed, keys, max_events=1_000_000):
    keys = np.asarray(keys, dtype=np.uint64)
    return [tuple(row) for row in _gillespie_runs(system, init, t, seed, keys, max_events).tolist()]


@st.composite
def sampler_cases(draw):
    """A 1-3 site system, order-1 or with general birth and death rates
    (zero rates included), a start, a time and a seed."""
    n = draw(st.integers(1, 3))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    jump = np.array([[draw(rate) for _ in range(n)] for _ in range(n)])
    birth = np.array([draw(rate) for _ in range(n)])
    death = np.array([draw(rate) for _ in range(n)])
    fns = {}
    if draw(st.booleans()):
        fns = {
            "birth_fn": lambda i, k: float(birth[i]) / (1 + k),
            "death_fn": lambda i, k: float(death[i]) * k * (k + 1) / 2,
        }
    system = SiteSystem(jump=jump, birth=birth, death=death, **fns)
    init = Configuration(tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))))
    return system, init, draw(st.floats(0.0, 3.0)), draw(st.integers(0, 2**63))


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

    def test_to_measure_with_a_zero_exponential_rate(self):
        # x_1 * exp(0.5 (x_2 - 1)): the first coordinate is not convolved
        f = PGFWithExpFactor(MultiPoly.from_dict({(1, 0): 1.0}, 2), (0.0, 0.5))
        m = f.to_measure((2, 12))
        pois = Measure.poisson(0.5, box=12).weights
        assert not m.weights[0].any() and not m.weights[2].any()
        assert np.allclose(m.weights[1], pois, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "rates", [(0.5,), (0.5, 0.5, 0.5), (math.nan, 0.0), (0.0, math.inf), (-0.1, 0.0)]
    )
    def test_rates_must_match_variables(self, rates):
        with pytest.raises(ValueError, match="one finite rate >= 0 per variable"):
            PGFWithExpFactor(MultiPoly.from_dict({(0, 0): 1.0}, 2), rates)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        jumps=st.sampled_from(["full", "zero", "upper", "lower"]),
        deaths=st.booleans(),
        t=st.floats(0.01, 20),
    )
    @settings(max_examples=120, deadline=None)
    def test_blocks_match_expm(self, seed, n, jumps, deaths, t):
        # Van Loan's matrix with the death column: expm gives e^{tG}, its
        # integral and the death probabilities as the top blocks
        rng = np.random.default_rng(seed)
        jump = {"full": lambda J: J, "zero": np.zeros_like, "upper": np.triu, "lower": np.tril}[jumps](
            rng.uniform(0, 2, (n, n))
        )
        death = rng.uniform(0, 2, n) if deaths else np.zeros(n)
        system = SiteSystem(jump=jump, birth=rng.uniform(0.1, 2, n), death=death)
        G = jump * (1 - np.eye(n))
        G -= np.diag(G.sum(axis=1) + death)
        B = np.zeros((2 * n + 1, 2 * n + 1))
        B[:n] = np.hstack([G, np.eye(n), death[:, None]])
        E = expm(B * t)
        # x_i maps to its row: sum_j M_ij x_j plus the death probability
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        for i, unit in enumerate(units):
            out = exact_pgf_transform(MultiPoly.from_dict({unit: 1.0}, n), system, t)
            terms = out.poly.terms_dict()
            got = [terms.get(u, 0.0) for u in units] + [terms.get((0,) * n, 0.0)]
            assert np.abs(np.array(got) - E[i, list(range(n)) + [2 * n]]).sum() <= 1e-13
        want = system.birth @ E[:n, n : 2 * n]
        assert (np.abs(np.array(out.exp_rates) - want) <= 1e-12 * want).all()

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


class TestTransformTimeRange:
    """A large t costs only squarings: the blocks stay nonnegative, and at
    t = 1e300 the birth rates are the stationary b (-G)^-1."""

    system = SiteSystem(jump=np.array([[0.0, 0.5], [0.3, 0.0]]), birth=np.array([1.0, 0.2]), death=np.array([1.0, 0.0]))
    f = MultiPoly.from_dict({(1, 1): 1.0}, 2)

    def test_long_time_has_no_negative_coefficient(self):
        out = exact_pgf_transform(self.f, self.system, 1e4)
        assert min(c for _, c in out.poly.terms) >= 0
        assert min(out.exp_rates) >= 0

    def test_stationary_rates(self):
        out = exact_pgf_transform(self.f, self.system, 1e300)
        assert out.exp_rates == pytest.approx((1.2, 8 / 3), rel=1e-12, abs=0)

    def test_zero_time_keeps_terms_and_rates(self):
        f = PGFWithExpFactor(self.f, (0.3, 0.7))
        out = exact_pgf_transform(f, self.system, 0.0)
        assert out.poly.terms == f.poly.terms
        assert out.exp_rates == f.exp_rates

    def test_overflowing_lambda_t_refused(self):
        fast = SiteSystem(jump=np.array([[0.0, 1e10], [0.3, 0.0]]), birth=np.ones(2), death=np.zeros(2))
        with pytest.raises(InputRangeError, match="overflows"):
            exact_pgf_transform(self.f, fast, 1e300)


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
        # a dense step matrix on the 15^3 states of the first box alone is
        # 91 MB; the CSR step of earlier versions peaked at 49.6 MB on the
        # 13^4 states of the second
        for n, b, cap in [(3, 14, 16e6), (4, 12, 20e6)]:
            system = SiteSystem(jump=np.full((n, n), 0.5), birth=np.full(n, 0.4), death=np.ones(n))
            mu = Measure.point_mass((1,) * n)
            tracemalloc.start()
            try:
                out = truncated_generator_evolve(mu, system, 0.5, box=(b,) * n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cap
            assert abs(out.weights.sum() - 1.0) <= out.tail_bound + 1e-12

    def test_box_defaults_to_the_initial_law(self):
        sys1 = SiteSystem(jump=np.zeros((1, 1)), birth=np.zeros(1), death=np.array([1.0]))
        mu = Measure.point_mass((3,))
        out = truncated_generator_evolve(mu, sys1, 0.4)
        assert out.shape == (4,)
        ref = truncated_generator_evolve(mu, sys1, 0.4, box=(3,))
        assert np.array_equal(out.weights, ref.weights) and out.tail_bound == ref.tail_bound

    def test_zero_rates_keep_the_law(self):
        sys0 = SiteSystem(jump=np.zeros((2, 2)), birth=np.zeros(2), death=np.zeros(2))
        mu = Measure.product(Measure.bernoulli(0.4), Measure.bernoulli(0.2))
        out = truncated_generator_evolve(mu, sys0, 5.0, box=(2, 2))
        assert np.array_equal(out.weights[:2, :2], mu.weights) and not out.weights[2].any()
        assert out.tail_bound == mu.tail_bound

    def test_box_too_small_raises(self):
        sys1 = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([2.0]), death=np.zeros(1))
        with pytest.raises(ValueError):
            truncated_generator_evolve(Measure.point_mass((0,)), sys1, 2.0, box=(2,), tol=1e-10)

    @pytest.mark.parametrize("weights", [np.full(3, 1 / 3), np.full((2, 2, 2), 1 / 8)])
    def test_law_of_another_dimension_refused(self, weights):
        system = SiteSystem(jump=np.array([[0.0, 0.5], [0.3, 0.0]]), birth=np.ones(2), death=np.ones(2))
        with pytest.raises(ValueError, match=f"law has {weights.ndim} coordinates, system has 2 sites"):
            truncated_generator_evolve(Measure(weights), system, 0.5, box=(2, 2))

    @pytest.mark.parametrize("death", [1.0, 0.0])
    def test_start_mass_outside_the_box_escapes(self, death):
        system = SiteSystem(jump=np.zeros((2, 2)), birth=np.zeros(2), death=np.full(2, death))
        mu = Measure(np.array([[1 - 1e-10, 0, 0], [0, 0, 0], [0, 0, 1e-10]]))
        # pure death on {0, 1}^2 sends no mass out of the box: all that
        # escapes is the start law's mass at (2, 2)
        with pytest.raises(ValueError, match="box too small for tolerance: escaped mass 1.000e-10"):
            truncated_generator_evolve(mu, system, 0.5, box=(1, 1))
        out = truncated_generator_evolve(mu, system, 0.5, box=(1, 1), tol=1e-9)
        assert out.tail_bound - mu.tail_bound >= 1e-10

    def test_one_site_general_rates_match_evolve(self):
        beta, delta = (lambda i, k: 2.0 / (1 + k)), (lambda i, k: 0.5 * k + 0.3 * k * k)
        system = SiteSystem(jump=np.zeros((1, 1)), birth=np.zeros(1), death=np.zeros(1), birth_fn=beta, death_fn=delta)
        rates = BirthDeathRates(beta=lambda k: beta(0, k), delta=lambda k: delta(0, k))
        mu = Measure(np.array([0.1, 0.2, 0.0, 0.3, 0.4]))
        with counted_series(bdchain, particles) as runs:
            out = truncated_generator_evolve(mu, system, 0.8, box=(30,))
            ref = bdchain.evolve(mu, rates, 0.8)
        size = max(out.shape[0], ref.shape[0])
        gap = np.abs(np.pad(out.weights, (0, size - out.shape[0])) - np.pad(ref.weights, (0, size - ref.shape[0])))
        # Both sides run the same kind of step: each entry is a sum of at
        # most m = 3 nonnegative products (stay, birth from below, death
        # from above) of an entry and a chance.  A step's l1 rounding is
        # then within (2m + 1) u of the mass: m - 1 additions, one rounding
        # per product and per chance rate/lambda, and m more in stay = 1 -
        # (sum of m - 1 rates)/lambda.  The steps are nonexpansive in l1,
        # the error of step j reaches the sum with weight P(N >= j), which
        # sum to lambda t, and each of the J accumulations adds at most u.
        # A run of time pieces is bounded piece by piece.
        rounding = sum((7 * max(run.lam_ts) + run.terms) * _U for run in runs)
        assert gap.sum() <= out.tail_bound + ref.tail_bound + rounding

    # quadratic death at each site and births, jumps between all sites, on
    # the 4^3 box: with births 0.4 mass leaves the box above tol
    @pytest.mark.parametrize("birth", [0.0, 0.4])
    def test_three_site_general_rates_match_expm(self, birth):
        rng = np.random.default_rng(5)
        jump, b, t = rng.uniform(0.2, 0.6, (3, 3)), 4, 0.6
        system = SiteSystem(
            jump=jump, birth=np.full(3, birth), death=np.zeros(3), death_fn=lambda i, k: (0.2 + 0.1 * i) * k * k
        )
        shape = (b + 1,) * 3
        S = math.prod(shape)
        Q = np.zeros((S + 1, S + 1))  # the overflow state S absorbs
        for state in np.ndindex(shape):
            a = np.ravel_multi_index(state, shape)
            for i, k in enumerate(state):
                moves = [(i, 1, system.birth_rate(i, k)), (i, -1, system.death_rate(i, k))]
                moves += [(j, 1, jump[i, j] * k) for j in range(3) if j != i]
                for site, d, rate in (m for m in moves if m[2] > 0):
                    to = list(state)
                    to[site] += d
                    if site != i:
                        to[i] -= 1
                    Q[a, np.ravel_multi_index(to, shape) if to[site] <= b else S] += rate
                    Q[a, a] -= rate
        mu = Measure.product(Measure.bernoulli(0.6), Measure.point_mass(2, shape=(3,)), Measure.bernoulli(0.3))
        v0 = np.zeros(S + 1)
        v0[:S].reshape(shape)[:2, :3, :2] = mu.weights
        exact = v0 @ expm(Q * t)
        with counted_series(particles) as runs:
            if birth:
                with pytest.raises(ValueError, match="box too small for tolerance"):
                    truncated_generator_evolve(mu, system, t, box=(b,) * 3)
            else:
                truncated_generator_evolve(mu, system, t, box=(b,) * 3)
        [run] = runs
        [lam_t], terms, [(acc, tail)] = run.lam_ts, run.terms, run.sums
        assert (exact[S] > 1e-3) == bool(birth)
        # (2m + 1) lambda t + J rounding units as in the one-site case, with
        # m = 3 * 4 + 1 products per entry of the box.  The overflow entry
        # adds what leaves in one dot product of S terms with chances of at
        # most m - 1 rates over lambda, so it rounds by at most (S + m) u of
        # that mass, which sums to the escaped mass over the series, plus u
        # of itself per term.  expm's own error is far smaller.
        rounding = (27 * lam_t + terms) * _U + (S + 13 + terms) * _U * acc[S]
        assert np.abs(acc - exact).sum() <= tail + rounding


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
            _gillespie_runs(busy, Configuration((0,)), 100.0, 3, np.zeros(1, dtype=np.uint64), 20)

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


class TestBatchedRuns:
    """Every run of the batched sampler ends where the scalar reference run
    on the same Philox stream ends."""

    @given(sampler_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_run_matches_reference(self, case):
        system, init, t, seed = case
        keys = range(1, 31)
        expected = reference_runs(system, init, t, seed, keys)
        assert batched_runs(system, init, t, seed, keys) == expected

    def test_runs_past_their_first_block(self):
        busy = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([5.0]), death=np.array([5.0]))
        init, t, seed, keys = Configuration((0,)), 3.0, 17, range(1, 41)
        streams = [CountingStream(seed, k) for k in keys]
        ref = [reference_gillespie_run(busy, init, t, s, 1_000_000).counts for s in streams]
        # windows of 3 and then 12 blocks hold a run's first 12 and next 48
        # uniforms: runs outgrow the first
        assert max(s.draws for s in streams) > 48
        assert batched_runs(busy, init, t, seed, keys) == ref

    def test_sample_is_run_zero(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            system = random_order1(rng, n=2)
            init, t = Configuration((1, 2)), 1.5
            got = gillespie_sample(system, init, t, seed=seed)
            assert got.counts == reference_runs(system, init, t, seed, [0])[0]

    def test_empirical_counts_every_run(self):
        system = random_order1(np.random.default_rng(8), n=2)
        init, t, seed, samples = Configuration((1, 0)), 0.8, 23, 400
        emp = gillespie_empirical(system, init, t, samples, seed=seed, box=(3, 3))
        w = np.zeros((4, 4))
        for counts in reference_runs(system, init, t, seed, range(1, samples + 1)):
            if max(counts) <= 3:
                w[counts] += 1.0
        assert np.array_equal(emp.weights, w / samples)
        assert emp.tail_bound == (samples - w.sum()) / samples + 1e-12

    def test_cap_reached_by_one_run_among_many(self):
        system = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([1.0]), death=np.array([1.0]))
        init, t, seed, keys = Configuration((0,)), 2.0, 4, range(1, 41)
        streams = [CountingStream(seed, k) for k in keys]
        for s in streams:
            reference_gillespie_run(system, init, t, s, 1_000_000)
        # two draws per event, one for the step that passes t
        events = [(s.draws - 1) // 2 for s in streams]
        most = max(events)
        assert events.count(most) == 1
        with pytest.raises(RuntimeError, match="event-count cap exceeded"):
            reference_runs(system, init, t, seed, keys, max_events=most)
        with pytest.raises(RuntimeError, match="event-count cap exceeded"):
            batched_runs(system, init, t, seed, keys, max_events=most)
        assert batched_runs(system, init, t, seed, keys, max_events=most + 1) == reference_runs(
            system, init, t, seed, keys, max_events=most + 1
        )

    def test_general_rates_called_once_per_site_and_count(self):
        calls = []

        def birth_fn(i, k):
            calls.append((i, k))
            return 0.6 / (1 + k)

        system = SiteSystem(
            jump=np.array([[0.0, 0.4], [0.3, 0.0]]),
            birth=np.zeros(2),
            death=np.array([0.5, 0.7]),
            birth_fn=birth_fn,
        )
        gillespie_empirical(system, Configuration((2, 1)), 2.0, 500, seed=3, box=(8, 8))
        assert calls and len(calls) == len(set(calls))

    def test_death_at_empty_site_rejected(self):
        system = SiteSystem(
            jump=np.zeros((1, 1)), birth=np.zeros(1), death=np.zeros(1), death_fn=lambda i, k: 1.0
        )
        with pytest.raises(ValueError, match="empty site"):
            gillespie_sample(system, Configuration((0,)), 1.0, seed=1)


WORD = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestPhiloxKernel:
    """_philox_uniforms against numpy's own Philox4x64-10 stream."""

    @given(
        seed=WORD,
        keys=st.lists(WORD, min_size=1, max_size=4),
        first=st.integers(1, 2**63),
        count=st.integers(1, 40),
    )
    @example(seed=0, keys=[0, 2**64 - 1], first=1, count=3)
    @example(seed=2**64 - 1, keys=[2**64 - 1, 0], first=1, count=1)
    @example(seed=2**64 - 1, keys=[2**64 - 1], first=2**63, count=40)
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, seed, keys, first, count):
        got = _philox_uniforms(seed, np.array(keys, dtype=np.uint64), first, count)
        assert got.shape == (len(keys), 4 * count)
        for row, key in zip(got, keys):
            bits = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
            bits.advance(first - 1)  # the next block drawn is block `first`
            assert np.array_equal(row, np.random.Generator(bits).random(4 * count))


class TestWindows:
    """A run's uniforms come in windows of 3, 12, 48, ... blocks, at most
    _DRAW_WORDS doubles over the live runs: a lone run's windows start at
    steps 0, 6, 30, 126, 510, 2046, 8190 (the first at the cap of 4096
    blocks), 16382, ..."""

    two_sites = SiteSystem(
        jump=np.array([[0.0, 0.5], [0.5, 0.0]]), birth=np.array([2.0, 2.0]), death=np.ones(2)
    )
    busy = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([50.0]), death=np.array([1.0]))

    @staticmethod
    def kernel_calls(monkeypatch):
        """(live runs, first block, block count) of each kernel call."""
        calls = []

        def counted(seed, keys, first, count):
            calls.append((len(keys), first, count))
            return _philox_uniforms(seed, keys, first, count)

        monkeypatch.setattr(particles, "_philox_uniforms", counted)
        return calls

    @staticmethod
    def contiguous(calls):
        # each window starts where the last one ended
        return all(f + c == g for (_, f, c), (_, g, _) in zip(calls, calls[1:]))

    def test_lone_run_across_capped_windows(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        init, t, seed = Configuration((0,)), 200.0, 12
        stream = CountingStream(seed, 0)
        ref = reference_gillespie_run(self.busy, init, t, stream, 1_000_000)
        assert stream.draws > 2 * 16_382 + 2  # into the second window at the cap
        assert gillespie_sample(self.busy, init, t, seed=seed) == ref
        counts = [c for _, _, c in calls]
        assert counts[:8] == [3, 12, 48, 192, 768, 3072, 4096, 4096]
        assert set(counts[6:]) == {4096} and self.contiguous(calls)

    def test_lone_run_makes_few_kernel_calls(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        init, t, seed = Configuration((1, 1)), 300.0, 5
        stream = CountingStream(seed, 0)
        ref = reference_gillespie_run(self.two_sites, init, t, stream, 1_000_000)
        assert stream.draws > 2 * 2_046  # drawing per step would take > 1000 calls
        assert gillespie_sample(self.two_sites, init, t, seed=seed) == ref
        assert 1 <= len(calls) <= 8 and self.contiguous(calls)

    def test_windows_of_many_runs_stay_small(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        init, t, seed, keys = Configuration((0,)), 1.0, 3, range(1, 1001)
        got = batched_runs(self.busy, init, t, seed, keys)
        assert got == reference_runs(self.busy, init, t, seed, keys)
        assert all(4 * live * c <= max(particles._DRAW_WORDS, 4 * live) for live, _, c in calls)
        assert calls[0] == (1000, 1, 3) and calls[1][2] == 4 and self.contiguous(calls)


class TestSamplerInputBoundary:
    system = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([1.0]), death=np.array([1.0]))

    def sample(self, t=1.0, seed=1, counts=(0,)):
        return gillespie_sample(self.system, Configuration(counts), t, seed=seed)

    def empirical(self, t=1.0, samples=10, seed=1, box=(4,), counts=(0,)):
        return gillespie_empirical(self.system, Configuration(counts), t, samples, seed, box)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            self.sample(t=t)
        with pytest.raises(ValueError, match="t must be finite"):
            self.empirical(t=t)

    def test_negative_t(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            self.sample(t=-0.5)
        with pytest.raises(ValueError, match="t must be >= 0"):
            self.empirical(t=-0.5)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            self.empirical(samples=samples)

    @pytest.mark.parametrize("samples", [2.5, 3.0, None])
    def test_samples_must_be_an_integer(self, monkeypatch, samples):
        monkeypatch.setattr(particles, "_gillespie_runs", None)  # no run may start
        with pytest.raises(ValueError, match="samples must be an integer"):
            self.empirical(samples=samples)

    def test_box_length(self):
        with pytest.raises(ValueError, match="box length"):
            self.empirical(box=(4, 4))

    def test_configuration_length(self):
        with pytest.raises(ValueError, match="configuration length"):
            self.sample(counts=(0, 0))
        with pytest.raises(ValueError, match="configuration length"):
            self.empirical(counts=(0, 0))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            self.sample(seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            self.empirical(seed=-1)

    @pytest.mark.parametrize("seed", [2.5, 4.0, np.float64(3.0), None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            self.sample(seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            self.empirical(seed=seed)

    def test_seed_above_the_key_range(self):
        with pytest.raises(ValueError, match="seed must be < 2\\*\\*64"):
            self.sample(seed=2**64)
        with pytest.raises(ValueError, match="seed must be < 2\\*\\*64"):
            self.empirical(seed=2**64)
        self.sample(seed=2**64 - 1)

    def test_numpy_integer_seed(self):
        assert self.sample(seed=np.uint64(3)) == self.sample(seed=3)
        assert np.array_equal(
            self.empirical(seed=np.uint64(3)).weights, self.empirical(seed=3).weights
        )

    @pytest.mark.parametrize("counts", [(1.5,), (np.float64(2.0),), (True,), (np.False_,)])
    def test_non_integer_occupancy(self, counts):
        with pytest.raises(ValueError, match="occupancies must be integers"):
            Configuration(counts)

    def test_zero_time_keeps_the_start(self):
        assert self.sample(t=0.0, counts=(3,)).counts == (3,)


class TestNonFiniteRates:
    @pytest.mark.parametrize("field", ["jump", "birth", "death"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_site_system(self, field, bad):
        rates = {"jump": np.zeros((2, 2)), "birth": np.ones(2), "death": np.ones(2)}
        rates[field].flat[1] = bad
        with pytest.raises(ValueError, match="rates must be finite"):
            SiteSystem(**rates)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rate_functions(self, bad):
        system = SiteSystem(
            jump=np.zeros((1, 1)), birth=np.ones(1), death=np.zeros(1), birth_fn=lambda i, k: bad
        )
        with pytest.raises(ValueError, match="rates must be finite"):
            truncated_generator_evolve(Measure.point_mass((0,)), system, 0.5, box=(4,))
        with pytest.raises(ValueError, match="rates must be finite"):
            gillespie_sample(system, Configuration((0,)), 0.5, seed=1)


class TestOverflowingRateSums:
    """Every rate is a finite float, but a sum of them is not: each call is
    refused at once, before numpy overflows or a sampler spins to its cap."""

    @staticmethod
    def refused(call):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputRangeError, match="rates must be finite"):
                call()
        assert time.perf_counter() - start < 1.0

    def test_birth_plus_death(self):
        system = SiteSystem(
            jump=np.zeros((1, 1)),
            birth=np.zeros(1),
            death=np.zeros(1),
            birth_fn=lambda i, k: 1e308,
            death_fn=lambda i, k: 1e308 * k,
        )
        self.refused(lambda: gillespie_sample(system, Configuration((1,)), 0.1, 1))
        self.refused(
            lambda: truncated_generator_evolve(Measure.point_mass((1,)), system, 0.1, box=(3,))
        )

    def test_jumps_on_two_sites(self):
        jump = np.array([[0.0, 1e308], [1e308, 0.0]])
        system = SiteSystem(jump=jump, birth=np.zeros(2), death=np.zeros(2))
        self.refused(
            lambda: truncated_generator_evolve(Measure.point_mass((1, 0)), system, 0.1, box=(1, 1))
        )
        self.refused(lambda: gillespie_sample(system, Configuration((1, 0)), 0.1, 1))
        self.refused(
            lambda: gillespie_empirical(system, Configuration((1, 0)), 0.1, 10, 1, box=(1, 1))
        )

    def test_per_particle_out_rate(self):
        # jumps and death out of site 0 sum past the float range
        self.refused(
            lambda: SiteSystem(
                jump=np.array([[0.0, 1e308], [0.0, 0.0]]),
                birth=np.zeros(2),
                death=np.array([1e308, 0.0]),
            )
        )


class TestNegativeRates:
    @pytest.mark.parametrize("field,at", [("jump", 1), ("birth", 0), ("death", 0)])
    def test_site_system(self, field, at):
        # site 0's jumps and death, 2 each, would offset a single -1
        rates = {
            "jump": np.array([[0.0, 2.0], [0.0, 0.0]]),
            "birth": np.ones(2),
            "death": np.array([2.0, 0.0]),
        }
        rates[field].flat[at] = -1.0
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            SiteSystem(**rates)

    @pytest.mark.parametrize("fn", ["birth_fn", "death_fn"])
    def test_rate_functions(self, fn):
        system = SiteSystem(
            jump=np.zeros((1, 1)), birth=np.ones(1), death=np.ones(1), **{fn: lambda i, k: -1.0}
        )
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            truncated_generator_evolve(Measure.point_mass((1,)), system, 0.5, box=(4,))
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            gillespie_sample(system, Configuration((1,)), 0.5, seed=1)
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            gillespie_empirical(system, Configuration((1,)), 0.5, 10, seed=1, box=(4,))


class TestBoxBoundary:
    """A box is one integral top count >= 0 per site, checked before
    anything is sized by it."""

    system = SiteSystem(jump=np.array([[0.0, 0.5], [0.3, 0.0]]), birth=np.ones(2), death=np.ones(2))
    callers = {
        "truncated_generator_evolve": lambda s, box: truncated_generator_evolve(
            Measure.point_mass((1, 0)), s, 0.5, box=box
        ),
        "gillespie_empirical": lambda s, box: gillespie_empirical(s, Configuration((1, 0)), 0.5, 10, 1, box),
        "to_measure": lambda s, box: exact_pgf_transform(pgf(Measure.point_mass((1, 0))), s, 0.5).to_measure(box),
    }

    @pytest.mark.parametrize("caller", sorted(callers))
    @pytest.mark.parametrize("box", [(-1, 4), (4, -1), (-1, 10**12)])
    def test_negative_entry(self, caller, box):
        with pytest.raises(ValueError, match="box entries must be integers >= 0"):
            self.callers[caller](self.system, box)

    @pytest.mark.parametrize("caller", sorted(callers))
    @pytest.mark.parametrize("box", [(2.5, 4), (4, math.nan), (math.inf, 4), (2.5, 10**12)])
    def test_non_integral_entry(self, caller, box):
        with pytest.raises(ValueError, match="box entries must be integers >= 0"):
            self.callers[caller](self.system, box)

    @pytest.mark.parametrize("caller", sorted(callers))
    @pytest.mark.parametrize("box", [(True, 4), (4, False), (np.True_, 4), (4, np.False_)])
    def test_bool_entry(self, caller, box):
        with pytest.raises(ValueError, match="box entries must be integers >= 0"):
            self.callers[caller](self.system, box)

    @pytest.mark.parametrize("caller", sorted(callers))
    @pytest.mark.parametrize("box", [(4,), (4, 4, 4)])
    def test_length_other_than_site_count(self, caller, box):
        with pytest.raises(ValueError, match="box length does not match site count"):
            self.callers[caller](self.system, box)

    @pytest.mark.parametrize("caller", sorted(callers))
    def test_integral_floats_accepted(self, caller):
        out = self.callers[caller](self.system, (16.0, np.int64(16)))
        assert out.weights.shape == (17, 17)
