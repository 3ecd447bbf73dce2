import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepgf.measures import (
    Measure,
    _poisson_weights,
    bp_decompose,
    bp_synthesize,
    marginal_sum,
    pgf,
    poisson_box,
    project,
)
from stablepgf.polycore import UniPoly
from stablepgf.stability import Verdict, certify_tstable, is_real_rooted

probs = st.floats(min_value=0.05, max_value=0.95)


def random_measure(rng, shape):
    w = rng.uniform(0, 1, size=shape)
    return Measure(w / w.sum())


class TestMeasureBasics:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Measure(np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            Measure(np.array([bad, 1.0]))

    def test_negative_point_mass_rejected(self):
        with pytest.raises(ValueError):
            Measure.point_mass(-3)

    def test_mass_tail_consistency(self):
        with pytest.raises(ValueError):
            Measure(np.array([0.5, 0.1]), tail_bound=0.0)


class TestPgf:
    def test_point_mass(self):
        assert pgf(Measure.point_mass((1, 0))).terms_dict() == {(1, 0): 1.0}

    def test_product_bernoulli(self):
        m = Measure.product(Measure.bernoulli(0.5), Measure.bernoulli(0.5))
        d = pgf(m).terms_dict()
        assert all(abs(v - 0.25) < 1e-15 for v in d.values())
        assert set(d) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_truncated_poisson_tail_recorded(self):
        m = Measure.poisson(1.0, box=8)
        assert m.tail_bound > 0
        assert abs(m.weights[3] - math.exp(-1) / 6) < 1e-15


def decimal_poisson(lam: float, upto: int):
    """P(X = j) for j = 0..upto and P(X > upto), by the ratio recurrence
    from the mode in 40-digit decimal, summed until terms fall below 1e-60
    of the mode's."""
    with localcontext() as ctx:
        ctx.prec = 40
        L, mode = Decimal(lam), int(lam)
        terms = [Decimal(1)]
        for j in range(mode, 0, -1):
            terms.append(terms[-1] * j / L)
        terms.reverse()
        j = mode
        while j < upto or terms[-1] > Decimal("1e-60"):
            terms.append(terms[-1] * L / (j + 1))
            j += 1
        total = sum(terms)
        return [t / total for t in terms[: upto + 1]], sum(terms[upto + 1 :]) / total


def reference_poisson_weights(lam: float, tol: float, min_len: int):
    """_poisson_weights with its normalizer summed by fsum in ascending index order."""
    if lam == 0.0:
        return np.eye(1, max(min_len, 1))[0], 0.0
    mode = int(lam)
    terms = [1.0]
    for j in range(mode, 0, -1):
        terms.append(terms[-1] * (j / lam))
        if terms[-1] == 0.0:
            break
    lo, terms = mode + 1 - len(terms), terms[::-1]
    partial, last, j, R = sum(terms), 1.0, mode, -1
    q = lam / (j + 1)
    while True:
        q_next = lam / (j + 2)
        rest = last * q / (1.0 - q_next)
        if R < 0 and j >= min_len - 1 and rest <= 0.5 * tol * partial:
            R, tail = j, rest
        if R >= 0 and rest < 2.0**-60 * partial:
            break
        last *= q
        terms.append(last)
        partial += last
        j, q = j + 1, q_next
    total = math.fsum(terms)
    w = np.zeros(R + 1)
    w[lo:] = np.array(terms[: R + 1 - lo]) / total
    return w, tail / total + (2.0 * math.sqrt(lam + 1.0) + 4.0) * 2.0**-53


class TestPoissonWeights:
    @pytest.mark.parametrize("lam", [1e2, 1e4, 2.2e4, 8e4, 1.6e5])
    def test_bound_covers_decimal_reference(self, lam):
        w, err = _poisson_weights(lam, 1e-13, 1)
        p, tail = decimal_poisson(lam, len(w) - 1)
        gap = sum(abs(Decimal(float(a)) - b) for a, b in zip(w, p))
        assert gap + tail <= Decimal(err)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.5, 7.25, 99.5, 2475.0, 22425.0, 8e4, 1.6e5])
    @pytest.mark.parametrize("tol,min_len", [(1e-13, 1), (1e-10, 60), (1e-14, 3000)])
    def test_normalizer_equals_ascending_fsum(self, lam, tol, min_len):
        w, err = _poisson_weights(lam, tol, min_len)
        ref, ref_err = reference_poisson_weights(lam, tol, min_len)
        assert np.array_equal(w, ref)
        assert err == ref_err

    def test_large_sigma_keeps_its_mass(self):
        # exp(-800) underflows, so weights built up from it are all zero
        m = Measure.poisson(800, box=1000)
        assert m.mass() >= 1 - 1e-11
        assert poisson_box(800) < 1100

    def test_sliced_mass_goes_to_the_tail(self):
        m = Measure.poisson(5.0, box=6)
        p, tail = decimal_poisson(5.0, 6)
        gap = sum(abs(Decimal(float(a)) - b) for a, b in zip(m.weights, p))
        assert gap + tail <= Decimal(m.tail_bound) < Decimal(tail) * 2


class TestProject:
    def test_bernoulli_product(self):
        m = Measure.product(Measure.bernoulli(0.3), Measure.bernoulli(0.8))
        out = project(m, [0])
        assert np.allclose(out.weights, [0.7, 0.3])

    def test_point_mass(self):
        out = project(Measure.point_mass((2, 3)), [1])
        assert out.weights.argmax() == 3

    def test_empty_keep_gives_scalar(self):
        out = project(Measure.point_mass((1, 1)), [])
        assert out.weights.sum() == pytest.approx(1.0)

    @given(st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_substitution_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = random_measure(rng, (3, 4))
        out = project(m, [0])
        # projecting equals substituting 1 into the dropped variable
        f = pgf(m)
        g = pgf(out)
        for x in (0.3, 0.9, 1.7):
            assert g([x]) == pytest.approx(f([x, 1.0]), abs=1e-12)


class TestMarginalSum:
    def test_two_bernoullis(self):
        m = Measure.product(Measure.bernoulli(0.3), Measure.bernoulli(0.8))
        law = marginal_sum(m, [0, 1])
        expect = [0.7 * 0.2, 0.3 * 0.2 + 0.7 * 0.8, 0.3 * 0.8]
        assert np.allclose(law.weights, expect)

    def test_singleton_equals_project(self):
        rng = np.random.default_rng(5)
        m = random_measure(rng, (3, 3))
        assert np.allclose(marginal_sum(m, [1]).weights, project(m, [1]).weights)

    def test_stable_sum_real_rooted(self):
        # dependent but stable law: correlated via a shared jump
        from stablepgf.particles import single_jump_transform
        from stablepgf.polycore import MultiPoly

        f = MultiPoly.from_dict({(0, 0): F(1, 2), (1, 0): F(1, 2)}, 2) * MultiPoly.from_dict(
            {(0, 0): F(1, 2), (0, 1): F(1, 2)}, 2
        )
        f = single_jump_transform(f, 0, 1, F(1, 3))
        w = np.zeros((2, 3))
        for alpha, c in f.terms:
            w[alpha] = float(c)
        law = marginal_sum(Measure(w), [0, 1])
        assert is_real_rooted(UniPoly.from_coeffs(list(law.weights))).verdict is Verdict.STABLE

    def test_projection_commutes_with_marginal(self):
        rng = np.random.default_rng(9)
        m = random_measure(rng, (3, 3, 2))
        a = marginal_sum(project(m, [0, 2]), [0, 1])
        b = marginal_sum(m, [0, 2])
        assert np.allclose(a.weights, b.weights)


class TestBpSynthesize:
    def test_bernoulli(self):
        m = bp_synthesize(0, 0.0, [0.5], box=3)
        assert np.allclose(m.weights, [0.5, 0.5, 0, 0])

    def test_point_mass(self):
        m = bp_synthesize(2, 0.0, [], box=4)
        assert m.weights[2] == 1.0

    def test_poisson_bernoulli_convolution(self):
        m = bp_synthesize(0, 1.0, [0.5], box=40)
        # cross-check by PGF product evaluation
        f = UniPoly.from_coeffs(list(m.weights))
        for x in np.linspace(0.05, 0.95, 10):
            expect = math.exp(x - 1) * (0.5 + 0.5 * x)
            assert f(float(x)) == pytest.approx(expect, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bp_synthesize(0, -1.0, [], box=5)
        with pytest.raises(ValueError):
            bp_synthesize(0, 0.0, [1.5], box=5)
        with pytest.raises(ValueError):
            bp_synthesize(3, 0.0, [], box=2)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma finite and >= 0"):
            bp_synthesize(0, sigma, [], box=5)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            Measure.poisson(sigma)


class TestBpDecompose:
    def test_bernoulli_third(self):
        d = bp_decompose(bp_synthesize(0, 0.0, [1 / 3], box=6))
        assert d.q == 0
        assert abs(d.sigma) < 1e-9
        assert len(d.p_list) == 1 and abs(d.p_list[0] - 1 / 3) < 1e-12
        assert d.residual < 1e-12

    def test_point_mass_three(self):
        d = bp_decompose(Measure.point_mass(3, shape=(6,)))
        assert d.q == 3 and d.sigma == 0.0 and d.p_list == ()

    def test_poisson_two_truncated(self):
        d = bp_decompose(Measure.poisson(2.0, box=80))
        assert d.q == 0
        assert abs(d.sigma - 2.0) < 1e-6
        assert sum(d.p_list) < 1e-6
        assert d.residual < 1e-8

    def test_rejects_non_tstable(self):
        with pytest.raises(ValueError):
            bp_decompose(Measure(np.array([1 / 3, 1 / 3, 1 / 3])))

    def test_json(self):
        d = bp_decompose(bp_synthesize(1, 0.5, [0.4], box=30))
        data = d.to_json()
        assert data["q"] == 1
        assert abs(data["sigma"] - 0.5) < 1e-6
        assert len(data["p"]) == 1

    def test_round_trip_battery(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 100:
            q = int(rng.integers(0, 4))
            sigma = float(rng.uniform(0, 3))
            k = int(rng.integers(0, 7))
            ps = sorted(rng.uniform(0.2, 0.95, size=k), reverse=True)
            if any(abs(a - b) < 0.04 for a, b in zip(ps, ps[1:])):
                continue
            done += 1
            rmax = max([1.0 / p - 1.0 for p in ps], default=1.0)
            box = q + k + poisson_box(sigma * max(1.0, rmax), 1e-12) + 5
            d = bp_decompose(bp_synthesize(q, sigma, list(ps), box=box))
            assert d.q == q
            assert abs(d.sigma - sigma) < 1e-5
            assert len(d.p_list) == k
            assert all(abs(a - b) < 1e-5 for a, b in zip(d.p_list, ps))
            assert d.residual < 1e-7


class TestFiniteSupportEquivalence:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_certify_matches_root_check(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 1, size=int(rng.integers(2, 6)))
        w /= w.sum()
        mu = Measure(w)
        rr = is_real_rooted(UniPoly.from_coeffs(list(mu.weights)))
        ct = certify_tstable({k: float(v) for k, v in enumerate(w)})
        if rr.verdict is Verdict.STABLE:
            assert ct.verdict is Verdict.STABLE
        if rr.verdict is Verdict.REFUTED:
            assert ct.verdict is Verdict.REFUTED
