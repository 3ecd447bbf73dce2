import math

import numpy as np
import pytest
from scipy.linalg import expm

from stablepgf import particles
from stablepgf.bdchain import (
    BirthDeathRates,
    _bd_uniformize,
    _rate_arrays,
    backward_residual,
    birth_monotonicity_probe,
    evolve,
    generator,
    hermite_root_law,
    kingman,
    kummer_root_law,
    lie_split_evolve,
    quadratic_map_counterexample,
    transition,
    tv_distance,
    wf_residual,
)
from stablepgf.cli import _random_real_rooted
from stablepgf.measures import Measure, _poisson_weights, bp_decompose, poisson_box
from stablepgf.particles import SiteSystem, exact_pgf_transform, truncated_generator_evolve
from stablepgf.polycore import MultiPoly, UniPoly
from stablepgf.stability import Verdict


class TestGenerator:
    def test_pure_death(self):
        Q = generator(BirthDeathRates(lambda k: 0.0, lambda k: float(k)), 2)
        assert Q.tolist() == [[0, 0, 0], [1, -1, 0], [0, 2, -2]]

    def test_constant_birth_clamped(self):
        Q = generator(BirthDeathRates.mm_infty(2.0, 0.0), 3)
        assert all(Q[k, k + 1] == 2.0 for k in range(3))
        assert Q[3, 3] == 0.0  # clamped edge

    def test_kingman_rate(self):
        Q = generator(BirthDeathRates.kingman_coalescent(), 5)
        assert Q[3, 2] == 3.0

    def test_non_finite_rate(self):
        with pytest.raises(ValueError, match="rates must be finite"):
            generator(BirthDeathRates(lambda k: math.nan, lambda k: 0.0), 2)

    def test_delta0_enforced(self):
        with pytest.raises(ValueError):
            BirthDeathRates(lambda k: 0.0, lambda k: 1.0 + k)


class TestTransition:
    def test_identity_at_zero(self):
        sg = transition(BirthDeathRates.mm_infty(1.0, 1.0), 0.0, 4)
        assert np.allclose(sg.matrix, np.eye(5))

    def test_pure_death_closed_form(self):
        t = 0.7
        sg = transition(BirthDeathRates(lambda k: 0.0, lambda k: float(k)), t, 2, tol=1e-14)
        assert sg.matrix[1, 0] == pytest.approx(1 - math.exp(-t), abs=1e-12)
        assert sg.matrix[1, 1] == pytest.approx(math.exp(-t), abs=1e-12)

    def test_two_state_quadratic_death(self):
        t = 0.3
        sg = transition(BirthDeathRates.quadratic_death(), t, 2, tol=1e-14)
        assert sg.matrix[2, 1] == pytest.approx(1 - math.exp(-2 * t), abs=1e-12)

    def test_rows_substochastic_and_nonnegative(self):
        sg = transition(BirthDeathRates.mm_infty(2.0, 0.3), 0.8, 12)
        assert (sg.matrix >= 0).all()
        sums = sg.matrix.sum(axis=1)
        assert (sums <= 1 + 1e-12).all()
        assert (1 - sums <= sg.trunc_error + 1e-12).all()

    @pytest.mark.parametrize(
        "rates,t,N",
        [
            (BirthDeathRates.quadratic_death(1.3), 0.1, 40),
            # births stop at the top state, so evolve never doubles N
            (BirthDeathRates(lambda k: float(max(12 - k, 0)), lambda k: float(k)), 0.7, 12),
        ],
    )
    def test_rows_match_single_vector_evolve(self, rates, t, N):
        sg = transition(rates, t, N, tol=1e-13)
        for j in range(N + 1):
            ev = evolve(Measure.point_mass(j, shape=(N + 1,)), rates, t, tol=1e-13, N=N)
            row = np.zeros(N + 1)
            w = ev.poly.coeffs_float()
            row[: len(w)] = w
            assert np.abs(sg.matrix[j] - row).max() <= 1e-15

    def test_matches_expm_oracle(self):
        rates = BirthDeathRates.from_polynomial(0.8, 0.5, 0.3)
        N = 30
        sg = transition(rates, 0.4, N, tol=1e-13)
        P = expm(generator(rates, N) * 0.4)
        assert np.abs(sg.matrix[:15, :15] - P[:15, :15]).max() < 1e-11


def reference_series(v0, step, lam_t, tol, min_terms):
    """The series loop that allocates every term: v = step(v); acc += w_j v."""
    v = np.array(v0, dtype=float)
    if lam_t == 0.0:
        return v, 0.0
    w, tail = _poisson_weights(lam_t, tol, min_terms + 1)
    acc = w[0] * v
    for wj in w[1:].tolist():
        v = step(v)
        if wj > 0.0:
            acc += wj * v
    return acc, tail


def reference_bd_uniformize(v0, beta_arr, delta_arr, t, tol):
    """The birth-death step as three allocating products, births always added."""
    N = len(beta_arr) - 1
    out_rate = beta_arr + delta_arr
    lam = float(out_rate.max())
    stay = np.append(np.maximum(1.0 - out_rate / lam, 0.0), 1.0)
    up = beta_arr / lam
    down = delta_arr[1:] / lam

    def step(v):
        nxt = v * stay
        nxt[..., 1:] += v[..., :-1] * up
        nxt[..., :-2] += v[..., 1:-1] * down
        return nxt

    return reference_series(v0, step, lam * t, tol, N + 4)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestUniformizedSeries:
    """The in-place series against the allocating loop, bit for bit."""

    rates = {
        "quadratic-death": BirthDeathRates.quadratic_death(1.3),
        "kingman": BirthDeathRates.kingman_coalescent(),
        "birth-death": BirthDeathRates.from_polynomial(0.9, 0.5, 0.3),
        "mm-infty": BirthDeathRates.mm_infty(2.0, 1.0),
    }

    @pytest.mark.parametrize("name", sorted(rates))
    @pytest.mark.parametrize("t", [0.0, 0.05, 0.7])
    @pytest.mark.parametrize("block", [False, True])
    def test_matches_reference(self, name, t, block):
        N = 24
        beta, delta = _rate_arrays(self.rates[name], N)
        if block:
            v0 = np.eye(N + 1, N + 2)
        else:
            v0 = np.zeros(N + 2)
            v0[5:12] = np.arange(1.0, 8.0) / 28.0
        acc, tail = _bd_uniformize(v0, beta, delta, t, 1e-13)
        ref, ref_tail = reference_bd_uniformize(v0, beta, delta, t, 1e-13)
        assert_same_bits(acc, ref)
        assert tail == ref_tail

    def test_kingman_with_underflowing_weights(self):
        n, t = 150, 0.5
        beta, delta = _rate_arrays(BirthDeathRates.kingman_coalescent(), n)
        w, _ = _poisson_weights(float(delta.max()) * t, 1e-13, n + 5)
        assert w[0] == 0.0 and w[-1] > 0.0
        v0 = np.zeros(n + 2)
        v0[n] = 1.0
        acc, tail = _bd_uniformize(v0, beta, delta, t, 1e-13)
        ref, ref_tail = reference_bd_uniformize(v0, beta, delta, t, 1e-13)
        assert_same_bits(acc, ref)
        assert tail == ref_tail
        coeffs = kingman(n, True, t).poly.coeffs_float()  # trailing zeros trimmed
        assert np.array_equal(coeffs, ref[: len(coeffs)]) and not ref[len(coeffs) : -1].any()

    @pytest.mark.parametrize("v0", [[0.5, -0.0, 0.5], [1.0, 1.0, -0.0], [1.0, -1e-10, 0.0]])
    def test_signed_input_without_births(self, v0):
        # the birth product turns -0.0 into +0.0 here, so it is not skipped
        beta, delta = np.zeros(2), np.array([0.0, 1.0])
        acc, tail = _bd_uniformize(np.array(v0), beta, delta, 0.5, 1e-13)
        ref, ref_tail = reference_bd_uniformize(np.array(v0), beta, delta, 0.5, 1e-13)
        assert_same_bits(acc, ref)
        assert tail == ref_tail

    def test_two_site_product_space(self, monkeypatch):
        system = SiteSystem(
            jump=np.array([[0.0, 0.7], [0.4, 0.0]]), birth=np.array([0.5, 0.2]), death=np.array([1.0, 0.6])
        )
        mu = Measure.product(Measure.bernoulli(0.3), Measure.bernoulli(0.6))
        out = truncated_generator_evolve(mu, system, 0.4, box=(12, 12))

        def allocating(v0, step, lam_t, tol, min_terms):
            def fresh(v):
                nxt = np.empty_like(v)
                step(v, nxt)
                return nxt

            return reference_series(v0, fresh, lam_t, tol, min_terms)

        monkeypatch.setattr(particles, "_uniformized_series", allocating)
        ref = truncated_generator_evolve(mu, system, 0.4, box=(12, 12))
        assert_same_bits(out.weights, ref.weights)
        assert out.tail_bound == ref.tail_bound


class TestEvolve:
    def test_identity_at_zero(self):
        mu = Measure.point_mass(3)
        ev = evolve(mu, BirthDeathRates.mm_infty(1.0, 1.0), 0.0)
        assert ev.poly.coeffs_float()[3] == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(Measure.point_mass(3), BirthDeathRates.quadratic_death(), -0.01)

    def test_mm_infty_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            b, d, t = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.1, 2.0)
            ev = evolve(Measure.point_mass(0, shape=(1,)), BirthDeathRates.mm_infty(b, d), t, tol=1e-13)
            mean = (b / d) * (1 - math.exp(-d * t))
            pois = Measure.poisson(mean, box=ev.poly.degree).weights
            assert np.abs(ev.poly.coeffs_float() - pois).max() < 1e-10

    def test_probability_conserved(self):
        rng = np.random.default_rng(2)
        mu = _random_real_rooted(rng)
        ev = evolve(mu, BirthDeathRates.from_polynomial(1.0, 0.5, 0.5), 0.7, tol=1e-12)
        assert abs(ev.poly.coeffs_float().sum() - 1.0) <= ev.tail_bound + 1e-12

    def test_quadratic_death_keeps_roots_real(self):
        base = UniPoly.from_roots([-0.5, -0.5]).coeffs_float()
        mu = Measure(base / base.sum())
        for t in np.logspace(-3, 0, 6):
            ev = evolve(mu, BirthDeathRates.quadratic_death(), float(t), tol=1e-13)
            assert ev.certificate().verdict is Verdict.STABLE

    def test_ehrenfest_control_preserves_low_degree(self):
        # finitely many nonzero rates: beta_k = n-k, delta_k = k preserves
        # real-rootedness for inputs of degree <= n
        n = 6
        rates = BirthDeathRates(lambda k: float(max(n - k, 0)), lambda k: float(k))
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu = _random_real_rooted(rng, deg_max=n)
            for t in (0.05, 0.3, 1.0):
                ev = evolve(mu, rates, t, tol=1e-13, N=n)
                assert ev.certificate().verdict is not Verdict.REFUTED


class TestBackwardResidual:
    def test_linear_death_chain(self):
        rates = BirthDeathRates(lambda k: 0.0, lambda k: float(k))
        sg = transition(rates, 0.5, 6, tol=1e-13)
        assert backward_residual(rates, sg, 1, 0) < 1e-6

    def test_near_zero_time(self):
        rates = BirthDeathRates.mm_infty(1.0, 1.0)
        sg = transition(rates, 1e-3, 6, tol=1e-13)
        assert backward_residual(rates, sg, 2, 3) < 1e-6

    def test_kingman_interior(self):
        rates = BirthDeathRates.kingman_coalescent()
        sg = transition(rates, 0.4, 10, tol=1e-13)
        for j, k in ((3, 2), (5, 1), (8, 4)):
            assert backward_residual(rates, sg, j, k) < 1e-6

    def test_at_time_zero_recovers_generator(self):
        # one-sided difference from the identity approximates the Q entry
        rates = BirthDeathRates.mm_infty(1.3, 0.4)
        sg = transition(rates, 0.0, 6, tol=1e-13)
        assert backward_residual(rates, sg, 2, 3) < 1e-3


class TestWrightFisher:
    def test_single_particle_static(self):
        assert wf_residual(Measure.point_mass(1), 0.1) == 0.0

    def test_delta3(self):
        assert wf_residual(Measure.point_mass(3), 0.1) < 1e-6

    def test_delta5_both_times(self):
        for t in (0.05, 0.2):
            assert wf_residual(Measure.point_mass(5), t) < 1e-6

    def test_time_below_default_step(self):
        # the default step 1e-5 exceeds t, so it is clamped to t
        assert wf_residual(Measure.point_mass(3), 5e-6) < 1e-6

    def test_time_zero_second_order(self):
        # a first-order one-sided difference would read 3.8e-4 here
        assert wf_residual(Measure.point_mass(3), 0.0) <= 1e-7


class TestHermiteLaw:
    def test_n2_w_minus1_closed_form(self):
        # roots of the evolved (z+1)^2/4 law sit at -1 +/- 2 sqrt(t) + O(t)
        recs = hermite_root_law(-1.0, 2, None, [1e-6])
        assert recs[0]["report"] < 1e-2

    def test_reports_decrease(self):
        recs = hermite_root_law(-0.5, 2, None, [4.0 ** (-j) for j in range(3, 10)])
        reports = [r["report"] for r in recs]
        assert all(b / a < 0.9 for a, b in zip(reports, reports[1:]))

    def test_single_root_bounded(self):
        recs = hermite_root_law(-0.5, 1, None, [1e-4, 1e-5])
        assert all(r["report"] < 10 for r in recs)

    def test_with_extra_factor(self):
        q = UniPoly.from_roots([-2.0]).scale(1 / 3.0)
        recs = hermite_root_law(-0.5, 3, q, [1e-6])
        assert recs[0]["report"] < 1e-2

    def test_rejects_nonnegative_w(self):
        with pytest.raises(ValueError):
            hermite_root_law(0.5, 2, None, [1e-4])


class TestKummerLaw:
    def test_n1_empty(self):
        assert kummer_root_law(1, [1e-4])[0]["roots"] == []

    def test_n2_limit_minus_two(self):
        recs = kummer_root_law(2, [1e-5])
        assert abs(recs[0]["roots"][0].real / 1e-5 + 2.0) < 1e-3

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_small_t_reports(self, n):
        recs = kummer_root_law(n, [1e-5])
        assert recs[0]["report"] < 1e-3
        assert len(recs[0]["roots"]) == n - 1


class TestCounterexample:
    def test_t_zero_stable(self):
        poly, cert = quadratic_map_counterexample(0.4, 0.0)
        assert cert.verdict is Verdict.STABLE

    def test_half_refuted_all_t(self):
        for t in np.linspace(0.01, 1.0, 12):
            poly, cert = quadratic_map_counterexample(0.5, float(t))
            assert cert.verdict is Verdict.REFUTED

    def test_matches_transition_linearity(self):
        # closed form == linear extension over the two-state semigroup
        t = 0.37
        sg = transition(BirthDeathRates.quadratic_death(), t, 2, tol=1e-14)
        r = 0.3
        image = np.array([r * r, -2 * r, 0.0])
        image[:3] += sg.matrix[2][:3]  # T_t[x^2] row from state 2
        image[1] += 0.0
        poly, _ = quadratic_map_counterexample(r, t)
        # T_t[(x-r)^2] = T_t[x^2] - 2r x + r^2
        expect = np.array([r * r, -2 * r + sg.matrix[2, 1], sg.matrix[2, 2]])
        assert np.abs(poly.coeffs_float() - expect).max() < 1e-12

    def test_off_center_returns_real_for_large_t(self):
        # the double-root counterexample is a small-t phenomenon away from
        # r=1/2: at r=0.3 the image is real-rooted again for t >~ 0.917
        _, cert_late = quadratic_map_counterexample(0.3, 1.0)
        assert cert_late.verdict is Verdict.STABLE
        for t in np.linspace(0.02, 0.9, 8):
            _, cert = quadratic_map_counterexample(0.3, float(t))
            assert cert.verdict is Verdict.REFUTED

    def test_r_validated(self):
        with pytest.raises(ValueError):
            quadratic_map_counterexample(1.2, 0.1)


class TestBirthMonotonicityProbe:
    def test_constant_birth_stable(self):
        rates = BirthDeathRates.mm_infty(1.0, 0.0)
        recs = birth_monotonicity_probe(rates, 0, [1e-4, 1e-3])
        assert all(r["verdict"] == "Stable" for r in recs)

    def test_increasing_birth_refuted(self):
        rates = BirthDeathRates.from_sequences([1.0, 2.0], beta_rest=1.0)
        recs = birth_monotonicity_probe(rates, 0, [1e-4, 3e-4, 1e-3])
        assert all(r["verdict"] == "Refuted" for r in recs)

    def test_decreasing_birth_not_refuted(self):
        rates = BirthDeathRates.from_sequences([2.0, 1.0], beta_rest=1.0)
        recs = birth_monotonicity_probe(rates, 0, [1e-4, 3e-4, 1e-3])
        assert all(r["verdict"] != "Refuted" for r in recs)

    def test_interior_start(self):
        rates = BirthDeathRates.from_sequences([1.0, 1.0, 1.0, 2.0], beta_rest=1.0)
        recs = birth_monotonicity_probe(rates, 2, [1e-4])
        assert recs[0]["verdict"] == "Refuted"


class TestKingman:
    def test_single_lineage_frozen(self):
        ev = kingman(1, True, 5.0)
        assert ev.poly.coeffs_float()[1] == 1.0

    def test_two_lineages_closed_form(self):
        t = 0.9
        ev = kingman(2, True, t)
        w = ev.poly.coeffs_float()
        assert w[1] == pytest.approx(1 - math.exp(-t), abs=1e-12)
        assert w[2] == pytest.approx(math.exp(-t), abs=1e-12)

    def test_big_n_decomposes(self):
        ev = kingman(100, True, 0.5)
        dec = bp_decompose(ev.to_measure())
        assert dec.q in (0, 1)
        assert dec.residual < 1e-8

    @pytest.mark.parametrize("n", [50, 100, 150, 200, 300, 400, 800])
    def test_tail_bound_near_tol(self, n):
        # series tail up to tol/2 plus the rounding of the Poisson weights
        assert kingman(n, True, 0.5).tail_bound <= 2e-13

    def test_tail_bound_covers_expm(self):
        n, t = 150, 0.5
        ev = kingman(n, True, t)
        oracle = expm(generator(BirthDeathRates.kingman_coalescent(), n) * t)[n]
        w = ev.poly.coeffs_float()
        gap = float(np.abs(w - oracle[: len(w)]).sum() + oracle[len(w) :].sum())
        assert gap <= ev.tail_bound + 1e-13


class TestLieSplit:
    def test_identity_at_zero(self):
        mu = Measure.point_mass(4)
        ev = lie_split_evolve(mu, 1.0, 1.0, 1.0, 0.0, 16)
        assert ev.poly.coeffs_float()[4] == 1.0

    def test_converges_to_combined(self):
        mu = Measure.point_mass(5)
        ref = evolve(mu, BirthDeathRates.from_polynomial(1.0, 1.0, 1.0), 0.5, tol=1e-14)
        tvs = [
            tv_distance(lie_split_evolve(mu, 1.0, 1.0, 1.0, 0.5, s), ref)
            for s in (16, 64, 256)
        ]
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[2] < 1e-5

    def test_matches_expm_substep_product(self):
        # the same sub-steps as exact propagators of the truncated chains,
        # whose birth out of the top state leaves the box
        b0, d1, d2, t, steps, N = 1.0, 0.5, 1.0, 0.5, 4096, 30
        ks = np.arange(N + 1, dtype=float)

        def propagator(beta, delta, dt):
            Q = np.diag(beta[:-1], 1) + np.diag(delta[1:], -1) - np.diag(beta + delta)
            return expm(Q * dt)

        h = t / steps
        birth = np.full(N + 1, b0)
        half1 = propagator(birth, d1 * ks, h / 2)
        full1 = propagator(birth, d1 * ks, h)
        full2 = propagator(np.zeros(N + 1), d2 * ks * (ks - 1), h)
        ref = np.zeros(N + 1)
        ref[5] = 1.0
        ref = ref @ half1
        for i in range(steps):
            ref = ref @ full2 @ (full1 if i < steps - 1 else half1)
        ev = lie_split_evolve(Measure.point_mass(5), b0, d1, d2, t, steps, N=N)
        w = np.zeros(N + 1)
        w[: ev.poly.degree + 1] = ev.poly.coeffs_float()
        assert np.abs(w - ref).sum() <= ev.tail_bound + 1e-11

    def test_nontrivial_split_tv_decreasing(self):
        mu = Measure.point_mass(5)
        ref = evolve(mu, BirthDeathRates.from_polynomial(1.0, 0.0, 1.0), 0.5, tol=1e-14)
        tvs = [
            tv_distance(lie_split_evolve(mu, 1.0, 0.0, 1.0, 0.5, s), ref)
            for s in (8, 32, 128)
        ]
        assert tvs[0] > tvs[1] > tvs[2]


class TestPreservation:
    def test_random_laws_never_refuted(self):
        rng = np.random.default_rng(7)
        rates = BirthDeathRates.quadratic_death()
        for _ in range(20):
            mu = _random_real_rooted(rng)
            for t in np.logspace(-3, 0, 4):
                ev = evolve(mu, rates, float(t), tol=1e-13)
                assert ev.certificate().verdict is not Verdict.REFUTED

    def test_general_polynomial_family_never_refuted(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            b0, d1, d2 = rng.uniform(0, 2, size=3)
            rates = BirthDeathRates.from_polynomial(float(b0), float(d1), float(d2))
            mu = _random_real_rooted(rng, deg_max=5)
            ev = evolve(mu, rates, 0.4, tol=1e-12)
            assert ev.certificate().verdict is not Verdict.REFUTED


class TestInputBoundary:
    still = BirthDeathRates.from_sequences([0.0])  # every rate 0
    site = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([1.0]), death=np.array([1.0]))
    still_site = SiteSystem(jump=np.zeros((1, 1)), birth=np.zeros(1), death=np.zeros(1))
    callers = {
        "evolve": lambda t: evolve(Measure.point_mass(2), BirthDeathRates.mm_infty(1.0, 1.0), t),
        "evolve-zero-rates": lambda t: evolve(Measure.point_mass(2), TestInputBoundary.still, t),
        "transition": lambda t: transition(BirthDeathRates.quadratic_death(), t, 8),
        "transition-zero-rates": lambda t: transition(TestInputBoundary.still, t, 4),
        "kingman": lambda t: kingman(5, True, t),
        "wf_residual": lambda t: wf_residual(Measure.point_mass(3), t),
        "lie_split_evolve": lambda t: lie_split_evolve(Measure.point_mass(1), 1.0, 1.0, 1.0, t, 4),
        "truncated_generator_evolve": lambda t: truncated_generator_evolve(
            Measure.point_mass((1,)), TestInputBoundary.site, t, box=(30,)
        ),
        "truncated_generator_evolve-zero-rates": lambda t: truncated_generator_evolve(
            Measure.point_mass((1,)), TestInputBoundary.still_site, t
        ),
        "exact_pgf_transform": lambda t: exact_pgf_transform(
            MultiPoly.from_dict({(1,): 1.0}, 1), TestInputBoundary.site, t
        ),
        "hermite_root_law": lambda t: hermite_root_law(-0.5, 2, None, [0.01, t]),
        "kummer_root_law": lambda t: kummer_root_law(3, [0.01, t]),
        "quadratic_map_counterexample": lambda t: quadratic_map_counterexample(0.5, t),
    }
    # Every rate is 0, so each call would return at once without the tol check.
    tol_callers = {
        "evolve": lambda tol: evolve(Measure.point_mass(2), TestInputBoundary.still, 0.5, tol=tol),
        "transition": lambda tol: transition(TestInputBoundary.still, 0.5, 4, tol=tol),
        "truncated_generator_evolve": lambda tol: truncated_generator_evolve(
            Measure.point_mass((1,)), TestInputBoundary.still_site, 0.5, tol=tol
        ),
        "poisson_box": lambda tol: poisson_box(0.0, tol),
    }

    @pytest.mark.parametrize("caller", sorted(callers))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time(self, caller, t):
        with pytest.raises(ValueError, match="t must be >= 0" if t < 0 else "t must be finite"):
            self.callers[caller](t)

    @pytest.mark.parametrize("caller", sorted(tol_callers))
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol(self, caller, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            self.tol_callers[caller](tol)

    @pytest.mark.parametrize("caller", ["hermite_root_law", "kummer_root_law"])
    def test_root_laws_need_positive_time(self, caller):
        with pytest.raises(ValueError, match="t must be > 0"):
            self.callers[caller](0.0)

    @pytest.mark.parametrize("N", [0, -1])
    def test_transition_needs_a_state_above_zero(self, N):
        with pytest.raises(ValueError, match="N must be >= 1"):
            transition(BirthDeathRates.mm_infty(1.0, 1.0), 0.1, N)

    @pytest.mark.parametrize("N", [1, 0, -1])
    def test_box_below_initial_support(self, N):
        mu = Measure.point_mass(2)
        with pytest.raises(ValueError, match="below the initial law's support 2"):
            evolve(mu, BirthDeathRates.mm_infty(1.0, 1.0), 0.1, N=N)
        with pytest.raises(ValueError, match="below the initial law's support 2"):
            lie_split_evolve(mu, 1.0, 1.0, 1.0, 0.1, 4, N=N)

    def test_box_of_one_state_grows(self):
        # M/M/infinity from 0 is Poisson with mean 1 - e^{-t}
        ev = evolve(Measure.point_mass(0), BirthDeathRates.mm_infty(1.0, 1.0), 0.5, N=0)
        mean = 1.0 - math.exp(-0.5)
        ref = [math.exp(-mean) * mean**k / math.factorial(k) for k in range(ev.poly.degree + 1)]
        gap = sum(abs(c - r) for c, r in zip(ev.poly.coeffs, ref)) + 1.0 - sum(ref)
        assert gap <= ev.tail_bound
        ev = evolve(Measure.point_mass(0), self.still, 0.5, N=0)
        assert ev.poly.coeffs == (1.0,) and ev.tail_bound == 0.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_hermite_root_law_needs_a_root(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            hermite_root_law(-0.5, n, None, [0.01])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates(self, bad):
        mu = Measure.point_mass(2)
        with pytest.raises(ValueError, match="rates must be finite"):
            evolve(mu, BirthDeathRates.mm_infty(bad, 1.0), 0.5)
        with pytest.raises(ValueError, match="rates must be finite"):
            evolve(mu, BirthDeathRates.from_sequences([1.0, bad, 1.0]), 0.5)
        with pytest.raises(ValueError, match="rates must be finite"):
            transition(BirthDeathRates.from_sequences([1.0], [0.0, bad]), 0.5, 8)
        with pytest.raises(ValueError, match="rates must be finite"):
            lie_split_evolve(mu, bad, 1.0, 1.0, 0.5, 4)

    @pytest.mark.parametrize(
        "rates",
        [
            BirthDeathRates.from_sequences([1.0, -1.0, 1.0]),
            BirthDeathRates.from_sequences([1.0], [0.0, -2.0]),
        ],
        ids=["birth", "death"],
    )
    def test_negative_rates(self, rates):
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            transition(rates, 0.5, 4)
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            evolve(Measure.point_mass(1), rates, 0.5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: BirthDeathRates.from_polynomial(1.0, bad, 1.0),
            lambda bad: BirthDeathRates.from_polynomial(1.0, 1.0, bad),
            lambda bad: BirthDeathRates.mm_infty(1.0, bad),
            lambda bad: BirthDeathRates.quadratic_death(bad),
        ],
        ids=["from_polynomial-d1", "from_polynomial-d2", "mm_infty", "quadratic_death"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rate_constructors_reject_non_finite(self, make, bad):
        with pytest.raises(ValueError, match="rates must be finite"):
            make(bad)
