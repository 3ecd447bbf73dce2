import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepgf.measures import Measure
from stablepgf.polycore import MultiPoly, UniPoly, exact_real_root_count, polarize, real_roots
from stablepgf.stability import (
    Verdict,
    certify_tstable,
    is_real_rooted,
    is_stable_multi,
    tstable_approximant,
    witness_is_valid,
)

neg_rational_roots = st.lists(
    st.fractions(min_value=-3, max_value=0, max_denominator=6), min_size=1, max_size=5
)


class TestIsRealRooted:
    def test_cube_stable(self):
        assert is_real_rooted(UniPoly.from_roots([F(-1)] * 3)).verdict is Verdict.STABLE

    def test_quadratic_refuted_with_witness(self):
        cert = is_real_rooted(UniPoly.from_coeffs([1, 1, 1]))
        assert cert.verdict is Verdict.REFUTED
        w = cert.witness[0]
        assert abs(w - complex(-0.5, math.sqrt(3) / 2)) < 1e-9
        assert w.imag > 0

    def test_double_root_stable(self):
        assert is_real_rooted(UniPoly.from_roots([F(1, 2), F(1, 2)])).verdict is Verdict.STABLE

    def test_zero_poly_inconclusive(self):
        cert = is_real_rooted(UniPoly.zero())
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert "zero" in cert.note

    def test_float_double_root_not_refuted(self):
        p = UniPoly.from_coeffs([0.25, -1.0, 1.0])
        assert is_real_rooted(p).verdict is Verdict.STABLE

    def test_perturbation_blocks_refutation(self):
        # complex roots with tiny imaginary part are not refutable under a
        # large declared coefficient perturbation
        p = UniPoly.from_coeffs([0.2500001, -1.0, 1.0])
        assert is_real_rooted(p, coeff_perturb=1e-3).verdict is not Verdict.REFUTED

    @pytest.mark.parametrize("perturb", [math.inf, math.nan, -1.0])
    def test_bad_perturbation_rejected(self, perturb):
        with pytest.raises(ValueError, match="coeff_perturb must be finite and >= 0"):
            is_real_rooted(UniPoly.from_coeffs([1.0, 0.0, 1.0]), coeff_perturb=perturb)

    @given(neg_rational_roots)
    @settings(max_examples=30, deadline=None)
    def test_exact_stable_reproducible(self, roots):
        p = UniPoly.from_roots(roots)
        assert is_real_rooted(p).verdict is Verdict.STABLE
        assert is_real_rooted(p).verdict is Verdict.STABLE

    @given(neg_rational_roots, st.fractions(min_value=1, max_value=2, max_denominator=4))
    @settings(max_examples=30, deadline=None)
    def test_exact_complex_factor_refuted(self, roots, b):
        # (x^2 + bx + b) with 1 <= b < 4 has discriminant b(b-4) < 0
        p = UniPoly.from_roots(roots) * UniPoly.from_coeffs([b, b, F(1)])
        cert = is_real_rooted(p)
        assert cert.verdict is Verdict.REFUTED
        assert witness_is_valid(p.to_float(), cert.witness)


class TestWitnessSoundness:
    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=3, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_refutations_carry_valid_witnesses(self, coeffs):
        if all(abs(c) < 1e-6 for c in coeffs):
            coeffs = coeffs + [1.0]
        p = UniPoly.from_coeffs(coeffs)
        if p.is_zero or p.degree == 0:
            return
        cert = is_real_rooted(p)
        if cert.verdict is Verdict.REFUTED:
            assert all(z.imag > 0 for z in cert.witness)
            assert witness_is_valid(p, cert.witness)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def trimmed_float_polys(draw):
    """Real roots in [-3, 3], an optional planted complex pair at least 0.5
    off the real axis, and one to three leading coefficients below the
    trimming cutoff, whose roots are dropped before the rest are located.
    Returns the polynomial and whether it has the pair."""
    roots = draw(st.lists(st.floats(min_value=-3, max_value=3), min_size=0, max_size=6))
    p = UniPoly.from_roots(roots)
    pair = draw(st.booleans()) or not roots
    if pair:
        re, im = draw(st.floats(-2, 2)), draw(st.floats(0.5, 2))
        p = p * UniPoly.from_coeffs([re * re + im * im, -2.0 * re, 1.0])
    tiny = st.floats(1e-16, 1e-14).flatmap(lambda v: st.sampled_from([v, -v]))
    tail = draw(st.lists(st.one_of(st.just(0.0), tiny), min_size=0, max_size=2)) + [draw(tiny)]
    return UniPoly.from_coeffs(list(p.coeffs) + tail), pair


@st.composite
def rational_polys(draw):
    """Degree <= 8: rational roots times a rational quadratic, or a
    random rational coefficient vector."""
    if draw(st.booleans()):
        roots = draw(st.lists(small_rationals, min_size=0, max_size=6))
        b, c = draw(small_rationals), draw(small_rationals)
        return UniPoly.from_roots(roots) * UniPoly.from_coeffs([c, b, F(1)])
    coeffs = draw(st.lists(small_rationals, min_size=1, max_size=8))
    lead = draw(small_rationals.filter(lambda v: v != 0))
    return UniPoly.from_coeffs(coeffs + [lead])


class TestOneRootPolicy:
    @given(trimmed_float_polys())
    @settings(max_examples=60, deadline=None)
    def test_float_flags_are_sound(self, case):
        # the exact count of the float coefficients is an independent truth
        p, pair = case
        exact = UniPoly.from_coeffs([F(c) for c in p.coeffs])
        all_real_exactly = exact_real_root_count(exact) == exact.degree
        verdict = is_real_rooted(p).verdict
        real = real_roots(p).real
        if all_real_exactly:
            assert all(real) and verdict is Verdict.STABLE
        if pair:
            # the pair is located and far from the real axis
            assert not all_real_exactly
            assert not all(real) and verdict is not Verdict.STABLE
        if verdict is Verdict.STABLE:
            assert all(real)
        if verdict is Verdict.INCONCLUSIVE:
            assert not all(real)

    def test_trimmed_lead_does_not_certify_a_pair(self):
        # 1 + x^2 + 1e-14 x^4 has roots +-i and about +-1e7 i; trimming
        # drops x^4, so only +-i are located, and they must stay non-real
        p = UniPoly.from_coeffs([1.0, 0.0, 1.0, 0.0, 1e-14])
        assert not any(real_roots(p).real)
        assert is_real_rooted(p).verdict is not Verdict.STABLE

    @pytest.mark.parametrize("deg", range(20, 31))
    def test_planted_pair_is_not_stable(self, deg):
        roots = np.concatenate([-0.05 * 1.3 ** np.arange(deg - 2), [-1 + 0.5j, -1 - 0.5j]])
        p = UniPoly.from_coeffs(list(np.poly(roots).real[::-1]))
        assert not all(real_roots(p).real)
        assert is_real_rooted(p).verdict is not Verdict.STABLE

    @given(rational_polys())
    @settings(max_examples=40, deadline=None)
    def test_exact_verdict_matches_counts(self, p):
        stable = is_real_rooted(p).verdict is Verdict.STABLE
        counted = exact_real_root_count(p) == p.degree
        certified = real_roots(p).certified_real_count == p.degree
        assert stable == counted == certified


class TestIsStableMulti:
    def test_sum_stable(self):
        f = MultiPoly.from_dict({(1, 0): 1, (0, 1): 1}, 2)
        assert is_stable_multi(f).verdict is Verdict.STABLE

    def test_product_minus_one_never_refuted(self):
        # zeros (z, 1/z) can never have both coordinates in the upper
        # half-plane, so the search must not fabricate a witness
        f = MultiPoly.from_dict({(1, 1): 1, (0, 0): -1}, 2)
        assert is_stable_multi(f, budget=300).verdict is not Verdict.REFUTED

    def test_product_plus_one_refuted(self):
        f = MultiPoly.from_dict({(1, 1): 1, (0, 0): 1}, 2)
        cert = is_stable_multi(f)
        assert cert.verdict is Verdict.REFUTED
        assert all(z.imag > 0 for z in cert.witness)
        val, err = f.eval_with_bound(list(cert.witness))
        assert abs(val) <= 8 * err + 1e-9

    @pytest.mark.parametrize("delta", [F(1, 10**6), F(1, 10**7)])
    def test_rayleigh_boundary_refuted(self, delta):
        # bc - ad = -delta: line samples miss the zeros, the criterion does not
        f = MultiPoly.from_dict({(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2 + delta}, 2)
        cert = is_stable_multi(f)
        assert cert.verdict is Verdict.REFUTED
        assert witness_is_valid(f, cert.witness)
        g = MultiPoly.from_dict({(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2 - delta}, 2)
        assert is_stable_multi(g).verdict is Verdict.STABLE

    @given(neg_rational_roots, st.integers(min_value=0, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_gws_polarization_never_refuted(self, roots, extra):
        p = UniPoly.from_roots(roots)
        N = p.degree + extra
        cert = is_stable_multi(polarize(p, N))
        assert cert.verdict is not Verdict.REFUTED

    @given(st.fractions(min_value=1, max_value=3, max_denominator=4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_gws_complex_direction_refuted(self, b, extra):
        p = UniPoly.from_coeffs([b, b, F(1)])
        assert is_real_rooted(p).verdict is Verdict.REFUTED
        cert = is_stable_multi(polarize(p, 2 + extra))
        assert cert.verdict is Verdict.REFUTED

    def test_nonsymmetric_multiaffine_positive_forms(self):
        # products of positive affine forms are stable
        a = MultiPoly.from_dict({(0, 0): 1.0, (1, 0): 2.0, (0, 1): 1.0}, 2)
        b = MultiPoly.from_dict({(0, 0): 2.0, (1, 0): 1.0, (0, 1): 3.0}, 2)
        cert = is_stable_multi(a * b - a.scale(0.0), budget=250)
        assert cert.verdict is not Verdict.REFUTED


class TestApproximants:
    def test_poisson_closed_form_symbolic(self):
        sigma = F(2, 3)
        c = {}
        term = F(1)
        for k in range(41):
            c[k] = term
            term = term * sigma / (k + 1)
        for m in (1, 3, 7, 20):
            fm = tstable_approximant(c, m).poly.to_uni()
            closed = UniPoly.from_coeffs([F(1), sigma / m]).pow(m)
            assert fm.coeffs == closed.coeffs

    def test_constant_sequence(self):
        for m in (1, 2, 9):
            fm = tstable_approximant({0: 1}, m).poly
            assert fm.terms_dict() == {(0,): F(1)}

    def test_half_half(self):
        fm = tstable_approximant({0: F(1, 2), 1: F(1, 2)}, 2).poly.to_uni()
        assert fm.coeffs == (F(1, 2), F(1, 2))

    def test_invariant_coefficient_formula(self):
        c = {(1, 2): F(1, 4), (0, 0): F(3, 4)}
        ap = tstable_approximant(c, 3)
        # (beta_m)_alpha c_alpha / m^{|alpha|} with alpha=(1,2), m=3
        fall = 3 * (3 * 2)
        assert ap.poly.terms_dict()[(1, 2)] == F(1, 4) * F(fall, 3**3)


class TestCertifyTstable:
    def test_poisson_truncated_never_refuted(self):
        sigma = 1.0
        c = {k: math.exp(-sigma) * sigma**k / math.factorial(k) for k in range(61)}
        cert = certify_tstable(c, m_max=20, tail_bound=1e-25)
        assert cert.verdict is not Verdict.REFUTED

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            certify_tstable({0: 0.25, 1: -0.9, 2: 0.9})

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -1.0])
    def test_bad_tail_bound_rejected(self, tail):
        with pytest.raises(ValueError, match="tail_bound must be finite and >= 0"):
            certify_tstable({0: 0.5, 1: 0.5}, tail_bound=tail)

    def test_uniform_three_refuted(self):
        cert = certify_tstable({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})
        assert cert.verdict is Verdict.REFUTED

    def test_finite_support_stable(self):
        cert = certify_tstable({0: F(1, 2), 1: F(1, 3), 2: F(1, 6) * 0}, m_max=5)
        assert cert.verdict is Verdict.STABLE

    def test_truncated_bad_sequence_still_refuted(self):
        # declaring a tail cannot launder a genuinely unstable head
        cert = certify_tstable({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}, tail_bound=1e-12)
        assert cert.verdict is Verdict.REFUTED
        assert cert.m is not None

    def test_multivariate_diagonal_mixture_refuted(self):
        # the law with equal mass at (0,0) and (1,1) has PGF (1 + x1 x2)/2,
        # which vanishes at (i, i); the same measure also fails the
        # negative-association check
        cert = certify_tstable({(0, 0): F(1, 2), (1, 1): F(1, 2)}, m_max=3)
        assert cert.verdict is Verdict.REFUTED

    def test_multivariate_product_not_refuted(self):
        c = {
            (i, j): F(1, 4)
            for i in range(2)
            for j in range(2)
        }
        cert = certify_tstable(c, m_max=5)
        assert cert.verdict is not Verdict.REFUTED

    def test_multivariate_truncated_poisson_not_refuted(self):
        # Poisson(1) x Poisson(1) cut to {0..2}^2 is t-stable; depth-3
        # approximants would read coefficients the box does not hold
        m = Measure.product(Measure.poisson(1.0, box=2), Measure.poisson(1.0, box=2))
        c = {idx: float(v) for idx, v in np.ndenumerate(m.weights)}
        cert = certify_tstable(c, tail_bound=0.154)
        assert cert.verdict is not Verdict.REFUTED

    def test_multivariate_truncated_diagonal_mixture_refuted(self):
        cert = certify_tstable({(0, 0): 0.5, (1, 1): 0.5}, tail_bound=0.1)
        assert cert.verdict is Verdict.REFUTED
        assert cert.m == 1


class TestCoefficientClosure:
    def test_bernoulli_products_converging(self):
        # stable PGFs with coefficientwise-converging parameters stay
        # unrefuted in the limit
        limit_ps = [F(1, 2), F(1, 3), F(1, 5)]
        for j in (1, 2, 5, 20):
            ps = [p + F(1, 100 * j) for p in limit_ps]
            poly = UniPoly.one()
            for p in ps:
                poly = poly * UniPoly.from_coeffs([1 - p, p])
            cert = certify_tstable({k: c for k, c in enumerate(poly.coeffs)})
            assert cert.verdict is Verdict.STABLE
        limit_poly = UniPoly.one()
        for p in limit_ps:
            limit_poly = limit_poly * UniPoly.from_coeffs([1 - p, p])
        cert = certify_tstable({k: c for k, c in enumerate(limit_poly.coeffs)})
        assert cert.verdict is not Verdict.REFUTED

    def test_approximant_convergence_poisson(self):
        # sup-norm of f_m - f on |x| <= 1 decreases in m
        sigma = 1.0
        xs = [np.exp(1j * th) for th in np.linspace(0, 2 * math.pi, 64)]
        sups = []
        for m in (5, 10, 20):
            fm = [math.exp(-sigma) * (1 + sigma * x / m) ** m for x in xs]
            f = [np.exp(sigma * (x - 1)) for x in xs]
            sups.append(max(abs(a - b) for a, b in zip(fm, f)))
        assert sups[0] > sups[1] > sups[2]


def test_certificate_serialization():
    cert = is_real_rooted(UniPoly.from_coeffs([1, 1, 1]))
    data = cert.to_json()
    assert data["verdict"] == "Refuted"
    assert "witness" in data and len(data["witness"][0]) == 2
