import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stablepgf.polycore import (
    MultiPoly,
    UniPoly,
    _isolate_roots,
    _sturm_factors,
    elem_sym,
    elem_sym_all,
    exact_real_root_count,
    hermite_sum_form,
    kummer_series_poly,
    negative_x_zeros_of_series,
    polarize,
    polarize_multi,
    quadratic_death_cluster_poly,
    real_roots,
)
from stablepgf.stability import Verdict, is_real_rooted, witness_is_valid

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


# reference isolator: Sturm counts over the rationals at every bisection
# step, on a Euclidean chain of Fraction remainders (zero is [])


def _ref_divmod(a, b):
    q, r = [F(0)] * max(1, len(a) - len(b) + 1), [F(v) for v in a]
    while len(r) >= len(b):
        f, shift = r[-1] / b[-1], len(r) - len(b)
        q[shift] = f
        for i, v in enumerate(b):
            r[shift + i] -= f * v
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _positive_multiple(g, h):
    """g = q h for a rational q > 0."""
    q = F(g[-1]) / h[-1]
    return len(g) == len(h) and q > 0 and all(u == q * v for u, v in zip(g, h))


def _ref_sturm_chain(c):
    chain = [[F(v) for v in c], [F(k * v) for k, v in enumerate(c)][1:]]
    while len(chain[-1]) > 1:
        _, r = _ref_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])
    return chain


def _ref_eval(c, x):
    acc = F(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _ref_variations(chain, x):
    signs = [v > 0 for v in (_ref_eval(c, x) for c in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_count(chain, a, b):
    return _ref_variations(chain, a) - _ref_variations(chain, b)


def _ref_isolate_roots(c, width):
    chain = _ref_sturm_chain(c)
    B = 1 + max((abs(F(v, c[-1])) for v in c[:-1]), default=0)
    out = []

    def recurse(lo, hi, cnt):
        if cnt == 0:
            return
        if cnt == 1 and hi - lo <= width:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = _ref_count(chain, lo, mid)
        recurse(lo, mid, left)
        recurse(mid, hi, cnt - left)

    recurse(-B, B, _ref_count(chain, -B, B))
    return out


# reference line restriction: one UniPoly product per term, summed in order


def _ref_restrict_line(f, a, b):
    out = UniPoly.zero(False)
    for alpha, c in f.terms:
        part = UniPoly.from_coeffs([float(c)])
        for ai, bi, e in zip(a, b, alpha):
            if e:
                part = part * UniPoly.from_coeffs([float(ai), float(bi)]).pow(e)
        out = out + part
    return out


def _bits(p):
    return np.array(p.coeffs, dtype=float).tobytes(), p.exact


class TestEval:
    def test_linear_at_i(self):
        val, err = UniPoly.from_coeffs([1, 1]).eval_with_bound(1j)
        assert val == 1 + 1j
        assert err < 1e-12

    def test_product_point(self):
        f = MultiPoly.from_dict({(1, 1): 1}, 2)
        val, _ = f.eval_with_bound((2, 3))
        assert val == 6

    def test_root_of_cube(self):
        p = UniPoly.from_roots([-0.5, -0.5, -0.5])
        val, err = p.eval_with_bound(-0.5)
        assert abs(val) <= max(err, 1e-15)

    def test_dimension_mismatch(self):
        f = MultiPoly.from_dict({(1, 0): 1}, 2)
        with pytest.raises(ValueError):
            f.eval_with_bound([1.0])

    def test_exact_eval_is_exact(self):
        p = UniPoly.from_coeffs([F(1, 3), F(2, 7)])
        val, err = p.eval_with_bound(F(1, 2))
        assert val == F(1, 3) + F(1, 7)
        assert err == 0.0


class TestElemSym:
    def test_e0(self):
        assert elem_sym(0, []) == 1
        assert elem_sym(0, [5, 7]) == 1

    def test_e2_explicit(self):
        assert elem_sym(2, [1, 2, 3]) == 11

    def test_all_ones(self):
        assert elem_sym(3, [1, 1, 1]) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elem_sym(3, [1, 2])

    @given(st.lists(rationals, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_newton_consistency_against_expansion(self, values):
        # prod (x + v_i) has coefficient e_{m-k} on x^k
        p = UniPoly.from_roots([-v for v in values])
        es = elem_sym_all(values)
        m = len(values)
        for k in range(m + 1):
            assert p.coeffs[k] == es[m - k] if k <= p.degree else es[m - k] == 0


class TestPolarize:
    def test_square_to_product(self):
        pol = polarize(UniPoly.from_coeffs([0, 0, 1]), 2)
        assert pol.terms_dict() == {(1, 1): F(1)}

    def test_affine(self):
        pol = polarize(UniPoly.from_coeffs([1, 2]), 2)
        assert pol.terms_dict() == {(0, 0): F(1), (0, 1): F(1), (1, 0): F(1)}

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            polarize(UniPoly.from_coeffs([0, 0, 0, 1]), 2)

    @given(
        st.lists(rationals, min_size=1, max_size=5),
        st.integers(min_value=0, max_value=3),
        rationals,
    )
    @settings(max_examples=40, deadline=None)
    def test_diagonal_identity_exact(self, coeffs, extra, x):
        p = UniPoly.from_coeffs(coeffs)
        N = max(p.degree + extra, p.degree, 1)
        pol = polarize(p, N)
        diag, _ = pol.eval_with_bound([x] * N)
        assert diag == p(x)

    def test_multi_identity_on_multiaffine(self):
        f = MultiPoly.from_dict({(1, 1): 1}, 2)
        out = polarize_multi(f, 1)
        assert out.terms_dict() == {(1, 1): F(1)}

    def test_multi_square(self):
        out = polarize_multi(MultiPoly.from_dict({(2,): 1}, 1), 2)
        assert out.terms_dict() == {(1, 1): F(1)}

    def test_multi_diagonal_identity(self):
        f = MultiPoly.from_dict({(2, 1): F(1, 2), (0, 1): F(1, 3)}, 2)
        out = polarize_multi(f, 2)
        x, y = F(1, 2), F(-2, 3)
        lifted = out([x, x, y, y])
        assert lifted == f([x, y])
        assert out.is_multi_affine()

    def test_multi_degree_guard(self):
        with pytest.raises(ValueError):
            polarize_multi(MultiPoly.from_dict({(3, 0): 1}, 2), 2)


class TestRealRoots:
    def test_known_linear_factors(self):
        p = UniPoly.from_roots([F(-1), F(-2)])
        rl = real_roots(p)
        assert rl.certified_real_count == 2
        got = sorted(z.real for z in rl.roots)
        assert abs(got[0] + 2) <= max(rl.radii) + 1e-12
        assert abs(got[1] + 1) <= max(rl.radii) + 1e-12

    def test_complex_pair(self):
        rl = real_roots(UniPoly.from_coeffs([1, 0, 1]))
        assert rl.certified_real_count == 0
        assert len(rl.roots) == 2

    def test_two_state_death_discriminant_case(self):
        # law of a double root at 1/2 pushed through the two-state chain:
        # discriminant e^{-2t}(e^{-2t}-1) < 0 for t > 0
        t = 0.1
        u = math.exp(-2 * t)
        p = UniPoly.from_coeffs([0.25, -u, u])
        rl = real_roots(p)
        assert rl.certified_real_count == 0
        ims = sorted(z.imag for z in rl.roots)
        assert ims[0] < -1e-3 and ims[1] > 1e-3

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            real_roots(UniPoly.zero())

    def test_multiplicity_counted(self):
        p = UniPoly.from_roots([F(-1, 2)] * 3 + [F(-3)])
        rl = real_roots(p)
        assert rl.certified_real_count == 4
        assert len(rl.roots) == 4

    @given(st.lists(st.fractions(min_value=-3, max_value=0, max_denominator=6), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_roots_within_radius(self, roots):
        p = UniPoly.from_roots(roots)
        rl = real_roots(p)
        assert rl.certified_real_count == len(roots)
        found = sorted(z.real for z in rl.roots)
        for a, b in zip(found, sorted(float(r) for r in roots)):
            assert abs(a - b) < 1e-6


@st.composite
def planted_polys(draw):
    """(p, [(root, multiplicity)]): distinct rational roots, an optional
    irreducible quadratic factor, degree 1..8."""
    roots = draw(st.lists(st.fractions(-4, 4, max_denominator=12), max_size=8, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(roots), max_size=len(roots)))
    quad = draw(st.none() | st.tuples(rationals, st.fractions(F(1, 8), 3, max_denominator=8)))
    room = 6 if quad else 8
    planted = []
    for r, m in zip(roots, mults):
        if m <= room:
            planted.append((r, m))
            room -= m
    p = UniPoly.from_coeffs([draw(st.sampled_from([F(1), F(-3, 2), F(7, 5)]))])
    for r, m in planted:
        p = p * UniPoly.from_roots([r] * m)
    if quad:
        a, b = quad
        p = p * UniPoly.from_coeffs([a * a + b * b, -2 * a, 1])
    assume(p.degree >= 1)
    return p, planted


def _planted(roots, mults=None, quad=None):
    """A planted_polys value with the given roots and quadratic factor."""
    mults = mults or [1] * len(roots)
    p = UniPoly.from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
    if quad:
        p = p * UniPoly.from_coeffs(quad)
    return p, list(zip(roots, mults))


def _planted_quadratic(p, roots):
    """The monic planted quadratic of a planted_polys value, or [1]."""
    linear = UniPoly.from_roots([r for r, m in roots for _ in range(m)])
    quad, rest = _ref_divmod([c / p.lead for c in p.coeffs], linear.coeffs)
    assert not rest
    return quad


DEFAULT_WIDTH = F(1e-12).limit_denominator(10**18)


class TestExactIsolation:
    # x^3 - x has Cauchy bound 2, so its roots 0, 1, -1 are bisection
    # midpoints, and 1 then sits on the right end of its interval
    @given(planted_polys(), st.sampled_from([F(1, 2), F(1, 1000), F(1, 2**20)]))
    @example(_planted([F(0), F(1), F(-1)]), DEFAULT_WIDTH)
    @example(_planted([F(0), F(1, 2), F(-1)], [2, 3, 1]), DEFAULT_WIDTH)
    @example(_planted([F(0), F(3, 4)], [1, 2], quad=[2, 0, 1]), F(1, 1000))
    @settings(max_examples=40, deadline=None)
    def test_intervals_match_sturm_bisection(self, planted, width):
        p, roots = planted
        for f in _sturm_factors(p.coeffs):
            got = _isolate_roots(f, width)
            assert got == _ref_isolate_roots(f.coeffs, width)
            chain = _ref_sturm_chain(f.coeffs)
            for lo, hi in got:
                assert hi - lo <= width
                assert _ref_count(chain, lo, hi) == 1
            mine = [r for r, m in roots if m == f.mult]
            assert len(got) == len(mine)
            for r in mine:
                assert sum(lo < r <= hi for lo, hi in got) == 1
        assert exact_real_root_count(p) == sum(m for _, m in roots)
        assert real_roots(p).certified_real_count == sum(m for _, m in roots)

    @given(planted_polys())
    @example(_planted([F(0), F(1, 2), F(-1)], [2, 3, 1]))
    @example(_planted([F(-2, 3)], [3], quad=[5, 2, 1]))
    @example(_planted([F(0), F(3, 4)], [1, 2], quad=[2, 0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_integer_layer_is_a_positive_multiple_of_the_rational(self, planted):
        p, roots = planted
        # the monic square-free factors by construction: the planted roots
        # of each multiplicity, with the planted quadratic, if any, in the first
        quad = _planted_quadratic(p, roots)
        expected = {}
        for r, m in roots:
            expected[m] = expected.get(m, UniPoly.one()) * UniPoly.from_roots([r])
        if len(quad) > 1:
            expected[1] = expected.get(1, UniPoly.one()) * UniPoly.from_coeffs(quad)
        got = _sturm_factors(p.coeffs)
        assert [f.mult for f in got] == sorted(expected)
        for f in got:
            fac = f.coeffs
            assert all(type(v) is int for v in fac) and math.gcd(*fac) == 1
            assert _positive_multiple(fac, expected[f.mult].coeffs)
            ref = _ref_sturm_chain(fac)
            assert len(f.chain) == len(ref) and all(map(_positive_multiple, f.chain, ref))

    def test_degree_40_product(self):
        planted = [F(k, 7) for k in range(-20, 20)]
        rl = real_roots(UniPoly.from_roots(planted))
        assert rl.certified_real_count == 40
        found = sorted(zip(rl.roots, rl.radii), key=lambda zr: zr[0].real)
        for (z, rad), r in zip(found, planted):
            assert abs(z - float(r)) <= rad


class TestExactVerdict:
    @given(planted_polys())
    @example(_planted([F(1, 2)], [3], quad=[F(1, 4) + F(1, 10**12), -1, 1]))
    @settings(max_examples=40, deadline=None)
    def test_refuted_exactly_when_a_quadratic_is_planted(self, planted):
        p, roots = planted
        quad = _planted_quadratic(p, roots)
        cert = is_real_rooted(p)
        if len(quad) == 1:
            assert cert.verdict is Verdict.STABLE
            return
        assert cert.verdict is Verdict.REFUTED
        a = -quad[1] / 2  # quad = x^2 - 2a x + a^2 + b^2
        b = math.sqrt(quad[0] - a * a)
        assert abs(cert.witness[0] - complex(a, b)) <= 1e-9

    # the non-real roots +-10^(-e/2) i lie closer to the real multiple root
    # than the roots of p's float copy can be told apart
    @pytest.mark.parametrize("mult, e", [(4, 12), (3, 10), (6, 8)])
    def test_witness_is_a_root_of_the_deficient_factor(self, mult, e):
        p = UniPoly.from_roots([F(1)] * mult) * UniPoly.from_coeffs([F(1, 10**e), 0, 1])
        cert = is_real_rooted(p)
        assert cert.verdict is Verdict.REFUTED
        rl = real_roots(p)
        rads = [rad for z, rad in zip(rl.roots, rl.radii) if z == cert.witness[0]]
        assert rads and abs(cert.witness[0] - 1j * 10 ** (-e / 2)) <= rads[0]

    @pytest.mark.parametrize("scale", [F(10) ** 400, F(1, 10**400)], ids=["1e400", "1e-400"])
    def test_scale_beyond_float_range(self, scale):
        p = UniPoly.from_coeffs([scale, 0, scale])
        rl = real_roots(p)
        assert rl.real == (False, False)
        for z, rad in zip(rl.roots, rl.radii):
            assert min(abs(z - 1j), abs(z + 1j)) <= rad
        cert = is_real_rooted(p)
        assert cert.verdict is Verdict.REFUTED and abs(cert.witness[0] - 1j) <= rl.radii[0]


    # roots +-10^(-+200) i: the ratio 10^(+-400) of the monic copy is no float
    @pytest.mark.parametrize("e", [400, -400])
    def test_roots_beyond_float_range(self, e):
        p = UniPoly.from_coeffs([1, 0, F(10) ** -e])
        root = 1j * 10.0 ** (e // 2)
        rl = real_roots(p)
        assert rl.real == (False, False)
        assert sorted(z.imag for z in rl.roots) == pytest.approx([-root.imag, root.imag], rel=1e-9)
        for z, rad in zip(rl.roots, rl.radii):
            assert min(abs(z - root), abs(z + root)) <= rad
        cert = is_real_rooted(p)
        assert cert.verdict is Verdict.REFUTED
        assert abs(cert.witness[0] - root) <= 1e-9 * abs(root)

    def test_pair_rounded_onto_the_real_axis(self):
        # the monic copy of x^2 - 2x + 1 + 10^-20 is (x - 1)^2
        p = UniPoly.from_coeffs([1 + F(1, 10**20), -2, 1])
        cert = is_real_rooted(p)
        assert cert.verdict is Verdict.REFUTED
        assert abs(cert.witness[0] - (1 + 1e-10j)) <= 1e-9 * 1e-10
        assert witness_is_valid(p, cert.witness)
        rl = real_roots(p)
        assert sorted(z.imag for z in rl.roots) == pytest.approx([-1e-10, 1e-10], rel=1e-9)


@st.composite
def polys_on_lines(draw, max_exp):
    """(f, a, b) with 2..6 variables (1..4 above multi-affine degree),
    all-Fraction or all-float coefficients."""
    n = draw(st.integers(2, 6) if max_exp == 1 else st.integers(1, 4))
    coeff = rationals if draw(st.booleans()) else st.floats(-3, 3, allow_nan=False)
    alphas = draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * n), max_size=24, unique=True))
    f = MultiPoly.from_dict({alpha: draw(coeff) for alpha in alphas}, n)
    point = st.lists(st.floats(-4, 4, allow_nan=False), min_size=n, max_size=n)
    return f, draw(point), draw(point)


class TestRestrictLine:
    @given(polys_on_lines(max_exp=1))
    @settings(max_examples=80, deadline=None)
    def test_multi_affine_matches_term_products(self, case):
        f, a, b = case
        assert _bits(f.restrict_line(a, b)) == _bits(_ref_restrict_line(f, a, b))

    @given(polys_on_lines(max_exp=4))
    @settings(max_examples=80, deadline=None)
    def test_within_roundoff_of_term_products(self, case):
        f, a, b = case
        got, ref = f.restrict_line(a, b), _ref_restrict_line(f, a, b)
        absf = MultiPoly.from_dict({alpha: abs(c) for alpha, c in f.terms}, f.nvars)
        scale = _ref_restrict_line(absf, np.abs(a), np.abs(b))
        n = len(scale.coeffs)
        assert got.degree < n and ref.degree < n

        def pad(p):
            return list(p.coeffs) + [0.0] * (n - len(p.coeffs))

        for g, r, s in zip(pad(got), pad(ref), pad(scale)):
            assert abs(g - r) <= 1e-13 * s

    def test_zero_constant_and_one_variable(self):
        zero = MultiPoly.from_dict({}, 3)
        got = zero.restrict_line([1.0, -2.0, 0.5], [1.0, 0.5, 2.0])
        assert _bits(got) == _bits(UniPoly.zero(False))
        const = MultiPoly.from_dict({(0, 0): F(5, 2)}, 2)
        got = const.restrict_line([1.0, -2.0], [1.0, 0.5])
        assert _bits(got) == _bits(UniPoly.from_coeffs([2.5]))
        one = MultiPoly.from_dict({(0,): 1, (1,): -2, (3,): F(1, 2)}, 1)
        got = one.restrict_line([0.5], [2.0])
        exact = one.compose_affine([F(1, 2)], [[2]]).to_uni()
        assert _bits(got) == _bits(exact.to_float())
        assert _bits(got) == _bits(_ref_restrict_line(one, [0.5], [2.0]))


class TestFloatRootPolicy:
    @pytest.mark.parametrize("deg", range(26, 31))
    def test_radii_refer_to_the_input(self, deg):
        # Trimming drops the tiny leading coefficients, so only the smaller
        # roots are located; their radii and realness must still hold for
        # the full-degree input.  Exact signs at points between the planted
        # roots prove one root of the float polynomial per interval.
        planted = -0.05 * 1.3 ** np.arange(deg)
        cs = np.poly(planted)[::-1]
        r = np.sort(planted)
        points = [2.0 * r[0]] + list((r[:-1] + r[1:]) / 2.0) + [r[-1] / 2.0]
        exact = UniPoly.from_coeffs([F(float(c)) for c in cs])
        signs = [exact(F(float(x))) > 0 for x in points]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == deg
        rl = real_roots(UniPoly.from_coeffs(list(cs)))
        assert len(rl.roots) >= deg - 5
        assert all(rl.real)
        for z, rad in zip(rl.roots, rl.radii):
            dist = min(
                math.hypot(max(lo - z.real, 0.0, z.real - hi), z.imag)
                for lo, hi in zip(points, points[1:])
            )
            assert dist <= rad

    def test_exact_complex_roots_carry_input_radii(self):
        p = UniPoly.from_roots([F(-1), F(-2)]) * UniPoly.from_coeffs([5, 2, 1])
        rl = real_roots(p)
        assert rl.real == (True, True, False, False)
        for z, rad in zip(rl.roots[2:], rl.radii[2:]):
            assert min(abs(z - (-1 + 2j)), abs(z - (-1 - 2j))) <= rad


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_coeffs_rejects(self, bad):
        with pytest.raises(ValueError):
            UniPoly.from_coeffs([1.0, bad, 1.0])
        with pytest.raises(ValueError):
            MultiPoly.from_dict({(0, 0): 1.0, (1, 0): bad, (1, 1): 1.0}, 2)
        with pytest.raises(ValueError):
            MultiPoly.from_dict({(0, 1): F(1, 2), (1, 0): bad}, 2)


class TestSpecialFamilies:
    def test_hermite_small(self):
        assert hermite_sum_form(1).coeffs == (F(0), F(1))
        assert hermite_sum_form(2).coeffs == (F(-2), F(0), F(1))
        assert hermite_sum_form(3).coeffs == (F(0), F(-6), F(0), F(1))

    def test_hermite_three_roots(self):
        rl = real_roots(hermite_sum_form(3))
        got = sorted(z.real for z in rl.roots)
        expect = [-math.sqrt(6), 0.0, math.sqrt(6)]
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, expect))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_hermite_distinct_real_roots(self, n):
        p = hermite_sum_form(n)
        assert exact_real_root_count(p) == n
        rl = real_roots(p)
        reals = sorted(z.real for z in rl.roots)
        assert all(b - a > 1e-9 for a, b in zip(reals, reals[1:]))

    def test_kummer_trivial(self):
        assert kummer_series_poly(1).coeffs == (F(1),)

    def test_kummer_three(self):
        assert kummer_series_poly(3).coeffs == (F(1), F(-2), F(1, 2))
        zeros = negative_x_zeros_of_series(kummer_series_poly(3))
        assert abs(zeros[0] - (-1 - 1 / math.sqrt(2))) < 1e-9
        assert abs(zeros[1] - (-1 + 1 / math.sqrt(2))) < 1e-9

    @pytest.mark.parametrize("n", range(2, 13))
    def test_kummer_negative_zero_count(self, n):
        zeros = negative_x_zeros_of_series(kummer_series_poly(n))
        assert len(zeros) == n - 1
        assert all(z < 0 for z in zeros)

    def test_kummer_five_has_four_zeros(self):
        assert len(negative_x_zeros_of_series(kummer_series_poly(5))) == 4

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cluster_poly_negative_zero_count(self, n):
        p = quadratic_death_cluster_poly(n)
        assert exact_real_root_count(p) == n - 1
        rl = real_roots(p)
        assert all(z.real < 0 for z in rl.roots)

    def test_cluster_poly_small_cases(self):
        # n=2: single zero at -2 (exact two-state computation)
        rl = real_roots(quadratic_death_cluster_poly(2))
        assert abs(rl.roots[0].real + 2.0) < 1e-12
        # n=3: zeros -3 +/- sqrt(3)
        got = sorted(z.real for z in real_roots(quadratic_death_cluster_poly(3)).roots)
        assert abs(got[0] - (-3 - math.sqrt(3))) < 1e-9
        assert abs(got[1] - (-3 + math.sqrt(3))) < 1e-9


class TestArithmetic:
    def test_derivative(self):
        assert UniPoly.from_coeffs([0, 0, 0, 1]).derivative().coeffs == (F(0), F(0), F(3))

    def test_substitute(self):
        out = MultiPoly.from_dict({(2,): 1}, 1).compose_affine([1], [[-1]]).to_uni()
        assert out.coeffs == (F(1), F(-2), F(1))

    def test_mul(self):
        out = UniPoly.from_coeffs([1, 1]) * UniPoly.from_coeffs([2, 1])
        assert out.coeffs == (F(2), F(3), F(1))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_compose_affine_agrees_pointwise(self, data):
        n = data.draw(st.integers(1, 3))
        alphas = st.tuples(*[st.integers(0, 3)] * n)
        f = MultiPoly.from_dict(data.draw(st.dictionaries(alphas, rationals, max_size=5)), n)
        c = data.draw(st.lists(rationals, min_size=n, max_size=n))
        M = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
        x = data.draw(st.lists(rationals, min_size=n, max_size=n))
        y = [c[i] + sum(M[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert f.compose_affine(c, M)(x) == f(y)

    def test_json_round_trip_exact(self):
        p = UniPoly.from_coeffs([F(1, 3), F(-2, 7), F(5)])
        assert p.to_json() == ["1/3", "-2/7", "5/1"]
