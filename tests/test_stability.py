import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepgf import stability
from stablepgf.measures import Measure
from stablepgf.polycore import MultiPoly, UniPoly, exact_real_root_count, polarize, real_roots
from stablepgf.stability import (
    Verdict,
    _disjoint_factors,
    _refutes,
    alternation_is_valid,
    certify_tstable,
    is_real_rooted,
    is_stable_multi,
    real_rooted_batch,
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


class TestBeyondFloatRange:
    """Powers |z|^m past the float range: every check still returns a bool."""

    def test_witness_whose_power_overflows(self):
        # float(10^-400) is 0, so the evaluation cannot accept the exact root
        p = UniPoly.from_coeffs([1, 0, F(1, 10**400)])
        assert witness_is_valid(p, (1e200j,)) is False

    def test_overflowing_allowance_accepts_nothing(self):
        p = UniPoly.from_coeffs([0.0, 1.0, 0.0, 1e-300])
        assert witness_is_valid(p, (1e150j,)) is True
        assert witness_is_valid(p, (1e150j,), coeff_perturb=1e-300) is True
        # 1e-100 |z|^3 = 1e350 is no float: such an allowance bounds nothing
        assert witness_is_valid(p, (1e150j,), coeff_perturb=1e-100) is False

    def test_refutation_test_at_a_far_point(self):
        g = UniPoly.from_coeffs([1.0, 0.0, 1e-300])
        assert _refutes(g, 1e200j, 0.0, 2) is False
        assert _refutes(g, 1e200j, 1e-310, 2) is False

    def test_lower_bound_with_an_overflowing_power(self):
        # x + 1e-300 x^3 vanishes at 1e150 i, where |Im z|^3 = 1e450 but
        # lead * |Im z|^3 = 1e150 is a float
        g = UniPoly.from_coeffs([0.0, 1.0, 0.0, 1e-300])
        assert _refutes(g, 1e150j, 0.0, 3) is True
        assert _refutes(g, 1e150j, 1e-310, 3) is True
        # (x^2 - 1) 1e-300 is real-rooted, and |g(z)| >= 1e100 = lead |Im z|^2
        h = UniPoly.from_coeffs([-1e-300, 0.0, 1e-300])
        assert _refutes(h, 1e200j, 0.0, 2) is False

    def test_root_whose_perturbation_term_overflows(self):
        # 1 + x^29 + 2e-13 x^30 has a real root near -5e12, where
        # 1e-20 |z|^30 is no float
        g = UniPoly.from_coeffs([1.0] + [0.0] * 28 + [1.0, 2e-13])
        cert = is_real_rooted(g, 1e-20)
        assert cert.verdict is Verdict.REFUTED
        assert witness_is_valid(g, cert.witness, 1e-20) is True
        assert cert.witness == is_real_rooted(g).witness

    def test_refutation_test_after_a_caught_overflow(self):
        # the non-real roots near 1e6 i overflow g(z) to NaN right after the
        # slack's own caught overflow, which left errno set for complex abs
        g = UniPoly.from_coeffs([1.0] * 59 + [1e-13, 1e-12])
        assert is_real_rooted(g, 1e-20).verdict is not Verdict.STABLE

    def test_witness_in_the_lower_half_plane(self):
        # a root of 1 + x^2, but not in the open upper half-plane
        assert witness_is_valid(UniPoly.from_coeffs([1.0, 0.0, 1.0]), (-1j,)) is False

    def test_witness_whose_modulus_overflows(self):
        z = 1.5e308 + 1.5e308j
        assert witness_is_valid(UniPoly.from_coeffs([1.0, 1.0]), (z,)) is False
        f = MultiPoly.from_dict({(1, 0): 1.0, (0, 1): 1.0}, 2)
        assert witness_is_valid(f, (1j, z)) is False

    @given(
        st.integers(8, 30).flatmap(lambda n: st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)),
        st.floats(1.5e-13, 1e-11),
    )
    @settings(max_examples=150, deadline=None)
    def test_leading_coefficient_just_above_the_trim(self, low, a):
        # the roots that a carries lie near -1/a, where perturb |z|^n overflows
        g = UniPoly.from_coeffs(low + [a])
        for perturb in (0.0, 1e-20, 1e-13, 1e-9):
            cert = is_real_rooted(g, perturb)
            if cert.verdict is Verdict.REFUTED:
                assert witness_is_valid(g, cert.witness, perturb) is True


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


perturbs = st.one_of(st.just(0.0), st.floats(1e-16, 1e-6))


@st.composite
def float_stacks(draw, real_rooted: bool):
    """A stack of one to five float polynomials of one degree n <= 8, each
    with its own perturbation: products of real roots in [-3, 3], a few of
    them with a complex pair in place of two roots, or, unless
    real_rooted, random coefficients."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if real_rooted or draw(st.booleans()):
            roots = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
            p = UniPoly.from_roots(roots).scale(draw(st.floats(1e-3, 1e3)))
            if n >= 2 and not real_rooted and draw(st.booleans()):
                re, im = draw(st.floats(-3, 3)), draw(st.floats(1e-9, 2))
                p = UniPoly.from_roots(roots[2:]) * UniPoly.from_coeffs([re * re + im * im, -2 * re, 1.0])
            row = list(p.coeffs_float()) + [0.0] * (n + 1 - len(p.coeffs))
        else:
            row = draw(st.lists(st.floats(-2, 2), min_size=n + 1, max_size=n + 1))
        rows.append(row)
    return np.array(rows), np.array([draw(perturbs) for _ in rows])


def planted_pair(deg: int, a: float, b: float) -> UniPoly:
    """certify's float input of degree deg: geometric real roots with a
    planted pair a +- bi in place of the two largest."""
    roots = np.concatenate([-0.05 * 1.3 ** np.arange(deg - 2), [a + 1j * b, a - 1j * b]])
    return UniPoly.from_coeffs(list(np.poly(roots).real[::-1]))


class TestRealRootedBatch:
    @given(float_stacks(real_rooted=True))
    @settings(max_examples=80, deadline=None)
    def test_proven_rows_pass_the_exact_checker(self, stack):
        coeffs, eps = stack
        for row, e, cert in zip(coeffs, eps, real_rooted_batch(coeffs, eps)):
            if cert.alternation is not None:
                p = UniPoly.from_coeffs(list(row))
                assert cert.verdict is Verdict.STABLE and cert.note == "sign alternation"
                assert alternation_is_valid(p, cert.alternation, float(e))
                exact = UniPoly.from_coeffs([F(c) for c in row])
                assert exact_real_root_count(exact) == exact.degree == len(row) - 1

    @given(float_stacks(real_rooted=False))
    @settings(max_examples=80, deadline=None)
    def test_other_verdicts_are_is_real_rooted(self, stack):
        # a proven row is never one that is_real_rooted refutes, and every
        # other row has is_real_rooted's certificate
        coeffs, eps = stack
        for row, e, cert in zip(coeffs, eps, real_rooted_batch(coeffs, eps)):
            single = is_real_rooted(UniPoly.from_coeffs(list(row)), coeff_perturb=float(e))
            if cert.alternation is None:
                assert cert == single
            else:
                assert single.verdict is not Verdict.REFUTED
                assert alternation_is_valid(UniPoly.from_coeffs(list(row)), cert.alternation, float(e))

    @given(
        st.integers(21, 30),
        st.lists(st.tuples(st.floats(-1.1, -0.9), st.floats(0.45, 0.55)), min_size=1, max_size=3),
        perturbs,
    )
    @settings(max_examples=30, deadline=None)
    def test_planted_pairs_are_never_proven(self, deg, pairs, e):
        coeffs = np.array([planted_pair(deg, a, b).coeffs_float() for a, b in pairs])
        certs = real_rooted_batch(coeffs, np.full(len(pairs), e))
        assert all(cert.alternation is None for cert in certs)

    def test_trimmed_lead_pair_is_not_proven(self):
        # roots -1, -2 and about 1.5 +- 1e7 i; is_real_rooted's own verdict
        # on it is unchanged and still the float policy's
        coeffs = [2.0, 3.0, 1 + 1e-14, 0.0, 1e-14]
        [cert] = real_rooted_batch([coeffs], [0.0])
        assert cert.alternation is None
        assert cert == is_real_rooted(UniPoly.from_coeffs(coeffs))

    def test_certificate_json(self):
        # proven: the points are written; other certificates keep their keys
        proven, pair = real_rooted_batch([[2.0, 3.0, 1.0], [1.0, 0.0, 1.0]], [1e-12, 0.0])
        assert proven.to_json() == {
            "verdict": "Stable",
            "tolerance_used": 1e-12,
            "note": "sign alternation",
            "alternation": list(proven.alternation),
        }
        assert alternation_is_valid(UniPoly.from_coeffs([2.0, 3.0, 1.0]), proven.alternation, 1e-12)
        assert "alternation" not in pair.to_json() and pair.verdict is Verdict.REFUTED

    def test_perturbation_above_the_lead_is_not_proven(self):
        [cert] = real_rooted_batch([[2.0, 3.0, 1e-3]], [1e-3])
        assert cert.alternation is None

    @pytest.mark.parametrize(
        "coeffs, eps",
        [
            ([[1.0, math.nan]], [0.0]),
            ([[1.0, math.inf]], [0.0]),
            ([[1.0, 1.0]], [math.nan]),
            ([[1.0, 1.0]], [math.inf]),
            ([[1.0, 1.0]], [-1e-12]),
            ([[1.0, 1.0]], [0.0, 0.0]),
            ([1.0, 1.0], [0.0]),
        ],
    )
    def test_bad_input_rejected(self, coeffs, eps):
        with pytest.raises(ValueError):
            real_rooted_batch(coeffs, eps)

    def test_huge_roots_are_not_proven_and_raise_no_warning(self):
        # roots near 1e300: the points and max(1, |x|)^n leave the float
        # range; a subnormal lead puts the companion past it.  Tier-1 makes
        # every RuntimeWarning an error.
        rows = [[1.0, -1e300, 1.0], [1.0, 1.0, 1e-320], [2.0, 3.0, 1.0]]
        certs = real_rooted_batch(rows, [0.0, 0.0, 0.0])
        assert [cert.alternation is None for cert in certs] == [True, True, False]
        for row, cert in zip(rows[:2], certs):
            assert cert == is_real_rooted(UniPoly.from_coeffs(row))

    def test_degree_zero_and_empty_stacks(self):
        assert real_rooted_batch(np.zeros((0, 3)), []) == []
        assert real_rooted_batch([[2.0], [0.0]], [0.0, 0.0]) == [
            is_real_rooted(UniPoly.from_coeffs([2.0])),
            is_real_rooted(UniPoly.from_coeffs([0.0])),
        ]


class TestAlternationChecker:
    p = UniPoly.from_coeffs([2.0, 3.0, 1.0])  # roots -1 and -2

    def test_accepts_separating_points(self):
        assert alternation_is_valid(self.p, (-3.0, -1.5, 0.0))

    @pytest.mark.parametrize(
        "points, eps",
        [
            ((-3.0, -1.5), 0.0),  # too few points
            ((0.0, -1.5, -3.0), 0.0),  # not increasing
            ((-3.0, -1.5, -1.5), 0.0),
            ((-3.0, -1.0, 0.0), 0.0),  # a root: value 0
            ((-3.0, -1.5, math.nan), 0.0),
            ((-3.0, -1.5, 0.0), 0.2),  # |p(-1.5)| = 0.25 <= 0.2 * 1.5^2
            ((-3.0, -1.5, 0.0), 1.0),  # the lead within the perturbation
            ((-3.0, -1.5, 0.0), -1.0),
            ((-3.0, -1.5, 0.0), math.inf),
        ],
    )
    def test_rejects(self, points, eps):
        assert not alternation_is_valid(self.p, points, eps)

    def test_reads_the_floats_exactly(self):
        # the float 1/3 lies below 1/3, where 3x - 1 is still negative
        p = UniPoly.from_coeffs([-1.0, 3.0])
        assert alternation_is_valid(p, (0.0, 1.0))
        assert not alternation_is_valid(p, (0.0, 1 / 3))


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

    @pytest.mark.parametrize("n", [2, 8])
    def test_square_of_positive_form_never_refuted(self, n):
        # every line restriction of (1 + x/3 + 2y/3)^2 and (1 + sum x_i/8)^2
        # has a double real root, which float roots split into a near-real pair
        weights = [F(1, 3), F(2, 3)] if n == 2 else [F(1, 8)] * n
        form = MultiPoly.from_dict(
            {(0,) * n: 1, **{tuple(int(k == i) for k in range(n)): w for i, w in enumerate(weights)}}, n
        )
        assert is_stable_multi(form * form).verdict is not Verdict.REFUTED

    def test_exact_line_refutation_confirmed(self):
        # (1 + x^2)(1 + y)(1 + 2z): its factor 1 + x^2 has roots +-i
        f = MultiPoly.from_dict({(0, 0, 0): 1, (2, 0, 0): 1}, 3)
        f = f * MultiPoly.from_dict({(0, 0, 0): 1, (0, 1, 0): 1}, 3)
        f = f * MultiPoly.from_dict({(0, 0, 0): 1, (0, 0, 1): 2}, 3)
        cert = is_stable_multi(f)
        assert cert.verdict is Verdict.REFUTED
        assert cert.note == "line-restriction witness"
        assert witness_is_valid(f, cert.witness)

    def test_sampled_multiaffine_inconclusive(self):
        # float input: bc - ad = -1e-6 < 0, but no sampled line refutes it
        f = MultiPoly.from_dict({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 2 + 1e-6}, 2)
        cert = is_stable_multi(f)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.note == "sampled: no refutation in 200 line samples"

    def test_nonsymmetric_multiaffine_positive_forms(self):
        # products of positive affine forms are stable
        a = MultiPoly.from_dict({(0, 0): 1.0, (1, 0): 2.0, (0, 1): 1.0}, 2)
        b = MultiPoly.from_dict({(0, 0): 2.0, (1, 0): 1.0, (0, 1): 3.0}, 2)
        cert = is_stable_multi(a * b - a.scale(0.0), budget=250)
        assert cert.verdict is not Verdict.REFUTED


nonzero_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=10).filter(lambda p: 0 < p < 1)


@st.composite
def stable_factors(draw):
    """A stable rational factor with a nonzero constant term: real-rooted
    univariate, affine Bernoulli 1 - p + px, or bivariate a + bx + cy + dxy
    with bc - ad >= 0."""
    kind = draw(st.sampled_from(["real-rooted", "bernoulli", "rayleigh"]))
    if kind == "real-rooted":
        roots = draw(st.lists(nonzero_rationals, min_size=1, max_size=3))
        return MultiPoly.from_dict({(k,): c for k, c in enumerate(UniPoly.from_roots(roots).coeffs)}, 1)
    if kind == "bernoulli":
        p = draw(unit_rationals)
        return MultiPoly.from_dict({(0,): 1 - p, (1,): p}, 1)
    a, b, c = (draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)) for _ in range(3))
    d = b * c / a * draw(st.sampled_from([0, F(1, 2), 1]))
    return MultiPoly.from_dict({(0, 0): a, (1, 0): b, (0, 1): c, (1, 1): d}, 2)


def embedded_product(factors, n):
    """The product of the factors (block, g), each g in the variables of its
    block out of n."""
    f = MultiPoly.from_dict({(0,) * n: 1}, n)
    for block, g in factors:
        terms = {}
        for alpha, c in g.terms:
            key = [0] * n
            for i, e in zip(block, alpha):
                key[i] = e
            terms[tuple(key)] = c
        f = f * MultiPoly.from_dict(terms, n)
    return f


def permuted_product(draw, factors):
    """The product of the factors in disjoint variables, in a drawn order."""
    n = sum(g.nvars for g in factors)
    order, blocks = draw(st.permutations(range(n))), []
    for g in factors:
        blocks.append(order[: g.nvars])
        order = order[g.nvars :]
    return embedded_product(list(zip(blocks, factors)), n)


SPLIT_NOTE = "factors in disjoint variables, each proven stable"


def splits_further(g):
    """Whether a + bx + cy + dxy has ad = bc, and so is (a + bx)(1 + cy/a)."""
    if g.nvars != 2:
        return False
    coeff = g.terms_dict()
    return coeff[(0, 0)] * coeff.get((1, 1), 0) == coeff[(1, 0)] * coeff[(0, 1)]


class TestDisjointSplit:
    @given(st.data(), st.lists(stable_factors(), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_products_of_stable_factors_proven(self, data, factors):
        f = permuted_product(data.draw, factors)
        # the split found is the finest
        pieces = sum(2 if splits_further(g) else 1 for g in factors)
        assert len(_disjoint_factors(f)) == pieces
        cert = is_stable_multi(f)
        assert cert.verdict is Verdict.STABLE
        assert cert.tolerance_used == 0
        if not (f.is_multi_affine() and (f.is_symmetric() or f.nvars == 2)):
            # the diagonal and Rayleigh routes come first
            assert cert.note == f"product of {pieces} {SPLIT_NOTE}"

    @given(
        st.data(),
        st.lists(stable_factors(), min_size=1, max_size=3),
        st.fractions(min_value=1, max_value=3, max_denominator=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_factor_with_nonreal_pair_never_stable(self, data, factors, b):
        # x^2 + bx + b with 1 <= b < 4 has a non-real pair
        pair = MultiPoly.from_dict({(0,): b, (1,): b, (2,): 1}, 1)
        f = permuted_product(data.draw, factors + [pair])
        cert = is_stable_multi(f)
        assert cert.verdict is not Verdict.STABLE
        if cert.verdict is Verdict.REFUTED:
            assert witness_is_valid(f, cert.witness)

    @given(st.data(), st.lists(stable_factors(), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_moved_coefficient_not_split(self, data, factors):
        f = permuted_product(data.draw, factors)
        split = _disjoint_factors(f)
        k = len(split)
        assert embedded_product(split, f.nvars) == f.scale(f([0] * f.nvars) ** (k - 1))
        alpha, c = data.draw(st.sampled_from(f.terms))
        moved = MultiPoly.from_dict({**f.terms_dict(), alpha: c + F(1, 10**9)}, f.nvars)
        split = _disjoint_factors(moved)
        assert len(split) < k
        if split:
            # what splits satisfies the identity f c0^(k-1) = prod g_B
            c0 = moved([0] * f.nvars)
            assert embedded_product(split, f.nvars) == moved.scale(c0 ** (len(split) - 1))

    @given(st.data(), st.lists(stable_factors(), min_size=2, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_zero_constant_term_falls_through(self, data, factors):
        x = MultiPoly.from_dict({(1,): 1}, 1)
        f = permuted_product(data.draw, factors + [x])
        assert _disjoint_factors(f) == []
        assert not is_stable_multi(f, budget=20).note.endswith(SPLIT_NOTE)

    def test_missing_cross_terms_merge_their_blocks(self):
        # 1 + x + z has no xz term, so single variables do not split it
        f = embedded_product(
            [
                ([0, 2], MultiPoly.from_dict({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 2)),
                ([1], MultiPoly.from_dict({(0,): 1, (1,): 2}, 1)),
            ],
            3,
        )
        assert [block for block, _ in _disjoint_factors(f)] == [[0, 2], [1]]
        # every pair of x, y, z appears in a term, but xyz does not
        cube = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        g = MultiPoly.from_dict({a: 1 for a in cube}, 3)
        assert [block for block, _ in _disjoint_factors(g)] == [[0, 1, 2]]


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

    @given(
        st.dictionaries(st.integers(0, 8), st.fractions(0, 3, max_denominator=12), max_size=8)
        | st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.fractions(0, 3, max_denominator=12),
            max_size=8,
        ),
        st.integers(1, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_on_random_maps(self, c, m):
        # c_alpha prod_i m!/(m - a_i)! / m^|alpha|, from factorials; the
        # float branch with the same operations on float(c_alpha)
        exact, floats = {}, {}
        for key, val in c.items():
            alpha = (key,) if isinstance(key, int) else key
            if max(alpha) > m or val == 0:
                continue
            fall = math.prod(math.factorial(m) // math.factorial(m - a) for a in alpha)
            exact[alpha] = val * fall / F(m) ** sum(alpha)
            floats[alpha] = float(val) * fall / float(m) ** sum(alpha)
        got = tstable_approximant(c, m).poly.terms_dict()
        assert got == exact and all(type(v) is F for v in got.values())
        got = tstable_approximant({k: float(v) for k, v in c.items()}, m).poly.terms_dict()
        assert got == floats and all(type(v) is float for v in got.values())

    @pytest.mark.parametrize("m", [True, 2.0, 2.5, 0, -3])
    def test_depth_must_be_a_count(self, m):
        # True would run as depth 1, and 2.0 failed in math.factorial
        with pytest.raises(ValueError, match="^m must be (an integer|>= 1)$"):
            tstable_approximant({0: F(1, 2), 1: F(1, 2)}, m)


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

    @pytest.mark.parametrize("m_max", [True, 2.0, 2.5, 0, -3])
    def test_depth_cap_must_be_a_count(self, m_max):
        # True ran as depth 1, and 0 and -3 tried no approximant at all
        with pytest.raises(ValueError, match="^m_max must be (an integer|>= 1)$"):
            certify_tstable({0: F(1, 2), 1: F(1, 2)}, m_max=m_max)

    @given(
        st.dictionaries(
            st.integers(0, 12), st.fractions(0, 3, max_denominator=12) | st.floats(0, 3), max_size=10
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_univariate_depths_test_the_approximants(self, c):
        # every polynomial that a depth tries is the approximant's to_uni()
        tried = []
        check = stability.is_real_rooted
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "is_real_rooted", lambda p, **kw: tried.append(p) or check(p, **kw))
            if any(c.values()):
                certify_tstable(c, m_max=8, tail_bound=1e-3)
        for m, p in enumerate(tried, start=1):
            assert p == tstable_approximant(c, m).poly.to_uni()

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

    @pytest.mark.parametrize("coeffs", [(F(1), F(2), F(101, 100)), (1.0, 2.0, 1.01)])
    def test_direct_refutation_fallback(self, coeffs):
        # 1 + 2x + 1.01x^2 has roots near -0.990 +- 0.099i, while each of
        # its approximants up to m_max is real-rooted
        cert = certify_tstable(dict(enumerate(coeffs)))
        assert cert.verdict is Verdict.REFUTED
        assert cert.note == "direct refutation of the finite-support polynomial"
        (z,) = cert.witness
        assert abs(z - (-0.990 + 0.0990j)) < 1e-3
        assert witness_is_valid(UniPoly.from_coeffs(list(coeffs)), cert.witness)

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
