import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stablepgf import bdchain, cli, particles
from stablepgf.bdchain import (
    _CHUNK_SIZE,
    _CHUNK_TERMS,
    _PROBE_TOL,
    _ROOT_LAW_TOL,
    BirthDeathRates,
    _bd_series,
    _bd_uniformize,
    _rate_arrays,
    _uniformized_series,
    backward_residual,
    birth_monotonicity_probe,
    evolve,
    evolve_grid,
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
from stablepgf.measures import InputRangeError, Measure, _poisson_weights, bp_decompose, poisson_box
from stablepgf.particles import SiteSystem, exact_pgf_transform, truncated_generator_evolve
from stablepgf.polycore import _U, MultiPoly, UniPoly
from stablepgf.stability import Verdict, is_real_rooted

from series_counts import counted_series


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

    @pytest.mark.parametrize("N,digits", [(40, 150), (100, 200), (200, 300)])
    def test_rows_within_trunc_error_of_pure_death_law(self, N, digits):
        # the squared rows against the closed form, with no slack
        t, rates = 0.1, BirthDeathRates.quadratic_death()
        sg = transition(rates, t, N, tol=1e-13)
        for j in sorted({N, 3 * N // 4, N // 2, N // 4, 10, 2}):
            exact = exact_pure_death_law(rates.delta, j, t, digits)
            if j == N:  # the reference has converged
                finer = exact_pure_death_law(rates.delta, j, t, digits + 50)
                assert max(abs(a - b) for a, b in zip(exact, finer)) < Decimal("1e-40")
            row = [Decimal(float(p)) for p in sg.matrix[j]]
            # pure death never moves mass above the start state
            gap = sum(abs(p - e) for p, e in zip(row, exact)) + sum(row[j + 1 :])
            assert gap <= Decimal(sg.trunc_error)

    def test_births_rows_within_trunc_error_of_decimal_series(self):
        # lambda = 12 in every state, so lambda t = 8.4 takes one squaring;
        # no birth leaves the box, which is then the whole chain
        rates = BirthDeathRates(lambda k: float(max(12 - k, 0)), lambda k: float(k))
        t, N = 0.7, 12
        sg = transition(rates, t, N, tol=1e-13)
        exact, oracle_error = decimal_block_law(rates, t, N)
        for row, want in zip(sg.matrix, exact):
            gap = sum(abs(Decimal(float(p)) - w) for p, w in zip(row, want)) + want[-1]
            assert gap + oracle_error <= Decimal(sg.trunc_error)

    def test_decimal_series_matches_pure_death_law(self):
        rates, t, N = BirthDeathRates.quadratic_death(), 0.1, 12
        exact, oracle_error = decimal_block_law(rates, t, N)
        for j in range(N + 1):
            law = exact_pure_death_law(rates.delta, j, t, 60)
            gap = sum(abs(a - b) for a, b in zip(exact[j], law)) + sum(exact[j][j + 1 :])
            # 60 digits leave the closed form's coefficients, below 1e10
            # in modulus, far below 1e-45
            assert gap <= oracle_error + Decimal("1e-45")

    @pytest.mark.parametrize(
        "rates,t,N",
        [
            (BirthDeathRates.quadratic_death(1.3), 0.005, 40),
            (BirthDeathRates(lambda k: float(max(12 - k, 0)), lambda k: float(k)), 0.4, 12),
        ],
    )
    def test_one_series_without_squaring(self, rates, t, N):
        # lambda t <= N/2: the series on the whole block, bit for bit
        beta, delta = _rate_arrays(rates.beta, rates.delta, N)
        assert float((beta + delta).max()) * t <= N / 2
        sg = transition(rates, t, N, tol=1e-13)
        [(P, tail)] = _bd_uniformize(np.eye(N + 1, N + 2), beta, delta, [t], 1e-13)
        assert_same_bits(sg.matrix, P[:, :-1])
        assert sg.trunc_error == float(P[:, -1].max()) + tail

    @pytest.mark.parametrize("N", [200, 400])
    def test_series_stays_near_the_box_size(self, N):
        # Terms are counted, not timed.  One series on the whole block took
        # 4,438 terms at N = 200, and 10.3 s at N = 400 on a 2-core host;
        # the piece at t 2^-k runs about its min_terms of N + 4.
        with counted_series(bdchain) as runs:
            sg = transition(BirthDeathRates.quadratic_death(), 0.1, N)
        assert sum(run.terms for run in runs) <= N + 40
        assert sg.matrix.shape == (N + 1, N + 1)

    @pytest.mark.parametrize("N", [16, 40, 64])
    def test_chain_sizes_within_twice_tol(self, N):
        # the benchmark's transition tasks: scale and t at the top of their
        # range, at the default tol
        sg = transition(BirthDeathRates.quadratic_death(1.01), 0.101, N)
        assert sg.trunc_error <= 2 * bdchain.DEFAULT.uniformization_tol

    def test_matches_expm_oracle(self):
        rates = BirthDeathRates.from_polynomial(0.8, 0.5, 0.3)
        N = 30
        sg = transition(rates, 0.4, N, tol=1e-13)
        P = expm(generator(rates, N) * 0.4)
        assert np.abs(sg.matrix[:15, :15] - P[:15, :15]).max() < 1e-11


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def series_rounding(pieces, squarings=0):
    """A first-order bound on the l1 rounding of a law whose rows have l1
    mass at most 1, made by the birth-death or two-diagonal series pieces
    [(lambda t, J), ...] in turn, then squared `squarings` times:
    2^squarings sum (7 lambda t + J + 1) u.  A step makes at most three
    products and two sums per entry, and its coefficients 1 - r/lambda,
    beta/lambda and delta/lambda (r the out-rate) are off by at most u and
    u r/lambda: 5u of the mass.  Each step is nonnegative and
    l1-nonexpansive, so the error of step i reaches the sum with weight
    P(N >= i), and these sum to lambda t.  The rounded mean fl(lambda t)
    moves the law by at most 2 u lambda t, as the derivative in mu of
    sum_j P(Poisson(mu) = j) v S^j is that sum times S - I.  The J sums
    into the total and the products w_j v_j add (J + 1) u.  The pieces'
    errors add, and each squaring doubles the error of the rows it
    multiplies (its own rounding is _propagator's gamma term)."""
    return math.ldexp(sum(7 * lam_t + J + 1 for lam_t, J in pieces) * _U, squarings)


def decimal_series(v0, stay, up, down, lam_t, digits=30, terms=None):
    """The uniformization series sum_(j=0)^J P(Poisson(lam_t) = j) v0 S^j in
    `digits`-digit decimal, for a row vector or a block of rows v0 and the
    step (v S)_k = v_k stay_k + v_(k-1) up_(k-1) + v_(k+1) down_k (down
    None: two diagonals), read exactly from floats or Decimals, with
    nonnegative coefficients and stay + up + down <= 1 for each state.

    J is `terms`, or else the first J > lam_t - 1 with p_J r / (1 - r) <=
    1e-30, r = lam_t / (J + 1), a bound on P(Poisson(lam_t) > J).  Returns
    (law, rest, error): the law, Decimals shaped like v0; rest = 1 -
    sum_(j <= J) p_j; and 10 n (J + 1) 10^(1 - digits) for n columns, a
    bound on the rounding of rest and of each row's law per unit of its l1
    mass.  Each term takes fewer than 8 n operations on a row, each off by
    at most 10^(1 - digits) / 2 of the mass, the steps pass earlier errors
    on without growth, and the weights' relative errors stay below
    (J + 2) 10^(1 - digits)."""
    exact = np.vectorize(Decimal, otypes=[object])
    with localcontext() as ctx:
        ctx.prec = digits
        v, stay, up = exact(v0), exact(stay), exact(up)
        down = None if down is None else exact(down)
        L = Decimal(lam_t)
        weight = (-L).exp()
        law, mass, J = v * weight, weight, 0
        while J < terms if terms is not None else J + 1 <= L or weight * L / (J + 1 - L) > Decimal("1e-30"):
            J += 1
            weight = weight * L / J
            nxt = v * stay
            nxt[..., 1:] += v[..., :-1] * up
            if down is not None:
                nxt[..., :-1] += v[..., 1:] * down
            v = nxt
            law += v * weight
            mass += weight
        return law, 1 - mass, 10 * v.shape[-1] * (J + 1) * Decimal(10) ** (1 - digits)


def decimal_chain(beta_arr, delta_arr, t, digits=30):
    """(stay, up, down, lambda t) of the uniformized birth-death chain on
    {0..N} with the float rates beta_arr and delta_arr at time t, in
    `digits`-digit decimal, for decimal_series: births out of N go to the
    absorbing overflow state N+1."""
    with localcontext() as ctx:
        ctx.prec = digits
        beta, delta = ([Decimal(r) for r in arr.tolist()] for arr in (beta_arr, delta_arr))
        lam = max(b + d for b, d in zip(beta, delta))
        stay = [1 - (b + d) / lam for b, d in zip(beta, delta)] + [Decimal(1)]
        return stay, [b / lam for b in beta], [d / lam for d in delta[1:]] + [Decimal(0)], lam * Decimal(t)


def l1_gaps(acc, law):
    """The l1 distance of each row of the float array acc to the Decimal
    law (one number for a vector), in 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return np.asarray(np.abs(np.vectorize(Decimal, otypes=[object])(acc) - law).sum(axis=-1))


def drop_bound(N):
    """What the pure-death drop may move out of a row on {0..N}, counted
    once missing from the box and once in the overflow column."""
    return 2 * (N + 1) * 2.0**-1022


def assert_within_chain_budget(v0, beta, delta, ts, sums, run, rows=slice(None)):
    """Each (acc, tail) of sums, the series at the times ts from v0, rows
    of l1 mass at most 1, within tail + series_rounding + drop_bound, plus
    the oracle's rest and error, of decimal_series on the given rows."""
    for (acc, tail), t, lam_t in zip(sums, ts, run.lam_ts):
        law, rest, error = decimal_series(v0[rows], *decimal_chain(beta, delta, t))
        budget = tail + series_rounding([(lam_t, run.terms)]) + drop_bound(len(beta) - 1)
        assert (l1_gaps(acc[rows], law) <= Decimal(budget) + rest + error).all()


class TestUniformizedSeries:
    """The birth-death series within its budget of decimal_series."""

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
        beta, delta = _rate_arrays(self.rates[name].beta, self.rates[name].delta, N)
        if block:
            v0 = np.eye(N + 1, N + 2)
        else:
            v0 = np.zeros(N + 2)
            v0[5:12] = np.arange(1.0, 8.0) / 28.0
        with counted_series(bdchain) as runs:
            sums = _bd_series(v0, beta, delta, [t], 1e-13)
        # every row of a block is its own vector series (TestBlockRows)
        rows = slice(None, None, 6) if block else slice(None)
        assert_within_chain_budget(v0, beta, delta, [t], sums, *runs, rows)

    def test_kingman_with_underflowing_weights(self):
        # the one-piece series; kingman(150) runs in pieces (TestDeathPieces)
        n, t = 150, 0.5
        rates = BirthDeathRates.kingman_coalescent()
        beta, delta = _rate_arrays(rates.beta, rates.delta, n)
        w, _ = _poisson_weights(float(delta.max()) * t, 1e-13, n + 5)
        assert w[0] == 0.0 and w[-1] > 0.0
        with counted_series(bdchain) as runs:
            [(acc, tail)] = _bd_series(*kingman_start(n), [t], 1e-13)
        [run] = runs
        budget = tail + series_rounding([(run.lam_ts[0], run.terms)]) + drop_bound(n)
        assert kingman_gap(acc[:-1], n, t) <= Decimal(budget)

    @pytest.mark.parametrize("v0", [[0.5, -0.0, 0.5], [1.0, 1.0, -0.0], [1.0, -1e-10, 0.0]])
    def test_signed_input_without_births(self, v0):
        # the step adds the birth product here, which turns -0.0 into +0.0;
        # the rounding is bounded on |v0|, so the budget scales with its mass
        beta, delta = np.zeros(2), np.array([0.0, 1.0])
        v0 = np.array(v0)
        with counted_series(bdchain) as runs:
            [(acc, tail)] = _bd_uniformize(v0, beta, delta, [0.5], 1e-13)
        [run] = runs
        law, rest, error = decimal_series(v0, *decimal_chain(beta, delta, 0.5))
        budget = Decimal(tail + series_rounding([(run.lam_ts[0], run.terms)])) + rest + error
        assert l1_gaps(acc, law) <= budget * sum(Decimal(abs(x)) for x in v0.tolist())


def kingman_start(n):
    rates = BirthDeathRates.kingman_coalescent()
    beta, delta = _rate_arrays(rates.beta, rates.delta, n)
    v0 = np.zeros(n + 2)
    v0[n] = 1.0
    return v0, beta, delta


def exact_kingman_law(n, t, top, digits=60):
    """P(X_t = k | X_0 = n), k = 0..top, of Kingman's coalescent in
    `digits`-digit decimal, and a bound on the l1 norm of its rounding
    (Tavare, Theor. Popul. Biol. 26(2), 1984): for k >= 1 the sum over
    j = k..n of e^(-j(j-1)t/2) (2j-1) c_j, c_k = k_(k-1) n_[k] / (k! n_(k))
    and c_(j+1) = -c_j (k+j-1)(n-j) / ((j+1-k)(n+j)), with rising a_(m) and
    falling a_[m].  Each term takes at most 3(j - k) + 8 roundings of
    10^(1 - digits) / 2 of itself, and each of the n sums one of at most
    the sum of the terms' moduli."""
    with localcontext() as ctx:
        ctx.prec = digits
        decay = [(-Decimal(j * (j - 1)) * Decimal(t) / 2).exp() for j in range(n + 1)]
        law, error = [Decimal(0)], Decimal(0)
        for k in range(1, top + 1):
            c = Decimal(math.prod(range(k, 2 * k - 1)) * math.prod(range(n - k + 1, n + 1)))
            c = c / (math.factorial(k) * math.prod(range(n, n + k)))
            total = Decimal(0)
            for j in range(k, n + 1):
                term = decay[j] * (2 * j - 1) * c
                total += term
                error += abs(term) * (2 * (j - k) + 4 + n)
                c = -c * (k + j - 1) * (n - j) / ((j + 1 - k) * (n + j))
            law.append(total)
        return law, error * Decimal(10) ** (1 - digits)


def kingman_gap(weights, n, t, top=40):
    """A bound on the l1 distance of the float law `weights` on {0, 1, ...}
    to Kingman's law at t from n: exact on the states up to `top`, and
    past them the float mass plus the exact law's remaining mass."""
    top = min(top, n)
    exact, error = exact_kingman_law(n, t, top)
    head = np.zeros(top + 1)
    head[: min(top + 1, len(weights))] = weights[: top + 1]
    rest = 1 - sum(exact) if top < n else Decimal(0)
    return l1_gaps(head, exact) + sum(Decimal(abs(w)) for w in weights[top + 1 :].tolist()) + rest + 2 * error


class TestUnderflowDrop:
    """The pure-death drop moves at most (N+1) 2^-1022 of a row, and the
    law stays within its budget of the closed form."""

    def test_kingman_law_matches_pure_death_law(self):
        delta = BirthDeathRates.kingman_coalescent().delta
        exact, error = exact_kingman_law(40, 0.5, 40)
        assert error < Decimal("1e-40")
        gap = sum(abs(a - b) for a, b in zip(exact, exact_pure_death_law(delta, 40, 0.5, 100)))
        assert gap <= error + Decimal("1e-90")

    def test_kingman_bp_law_bit_identical(self):
        # The one-piece series from kingman(100)'s start drops mass, yet no
        # entry of the box changes: the law is, bit for bit, the series
        # without the drop, which a start with a sign bit set takes (-0.0
        # at state 0, which the chain never reaches).
        v0, beta, delta = kingman_start(100)
        signed = v0.copy()
        signed[0] = -0.0
        [(acc, _)] = _bd_series(v0, beta, delta, [0.5], 1e-13)
        [(kept, _)] = _bd_series(signed, beta, delta, [0.5], 1e-13)
        assert 0.0 < acc[-1] <= 101 * 2.0**-1022 and kept[-1] == 0.0
        assert np.array_equal(acc[:-1], kept[:-1])

    @pytest.mark.parametrize("n", [150, 300, 800])
    def test_kingman_moves_only_underflowed_entries(self, n):
        with counted_series(bdchain) as runs:
            [(acc, tail)] = _bd_series(*kingman_start(n), [0.5], 1e-13)
        [run] = runs
        # each of the n + 1 states leaves at most once, below 2^-1022
        assert 0.0 < acc[-1] <= (n + 1) * 2.0**-1022
        budget = tail + series_rounding([(run.lam_ts[0], run.terms)]) + drop_bound(n)
        assert kingman_gap(acc[:-1], n, 0.5) <= Decimal(budget)

    def test_transition_escaped_mass_within_drop_bound(self):
        # quadratic death is Kingman's coalescent at twice the time
        N, t = 64, 0.5
        rates = BirthDeathRates.quadratic_death()
        beta, delta = _rate_arrays(rates.beta, rates.delta, N)
        with counted_series(bdchain) as runs:
            [(acc, tail)] = _bd_uniformize(np.eye(N + 1, N + 2), beta, delta, [t], 1e-13)
        [run] = runs
        # pure death sends no mass out of the box: all of it was dropped
        assert acc[:, -1].any()
        assert (acc[:, -1] <= (N + 1) * 2.0**-1022).all()
        budget = tail + series_rounding([(run.lam_ts[0], run.terms)]) + drop_bound(N)
        for j in (N, 48, 20, 5):
            assert kingman_gap(acc[j, :-1], j, 2 * t) <= Decimal(budget)

    def test_kingman_series_carries_few_subnormals(self):
        # Subnormal operands cost microcode assists: counted, not timed.
        # The one series that drops nothing carries 2,796,700 of them over
        # 23,549 terms here; the pieces take 6,432 terms.
        n, counts = 300, []
        subnormals = lambda out: counts.append(np.count_nonzero((out > 0.0) & (out < 2.0**-1022)))  # noqa: E731
        with counted_series(bdchain, on_term=subnormals):
            kingman(n, True, 0.5)
        assert len(counts) == 6432
        assert sum(counts) < n


def exact_pure_death_law(delta, n, t, digits):
    """P(X_t = k | X_0 = n), k = 0..n, of the pure-death chain with death
    rates delta(k), distinct from state 1 up, in `digits`-digit decimal:
    P = sum_j a_kj exp(-mu_j t) with a_nn = 1, a_kj = mu_(k+1) a_(k+1)j /
    (mu_k - mu_j) for j > k and a_kk = -sum_(j>k) a_kj."""
    with localcontext() as ctx:
        ctx.prec = digits
        mu = [Decimal(delta(k)) for k in range(n + 1)]
        decay = [(-m * Decimal(t)).exp() for m in mu]
        law, row = [Decimal(0)] * (n + 1), {n: Decimal(1)}
        law[n] = decay[n]
        for k in range(n - 1, 0, -1):
            row = {j: mu[k + 1] * a / (mu[k] - mu[j]) for j, a in row.items()}
            row[k] = -sum(row.values())
            law[k] = sum(a * decay[j] for j, a in row.items())
        return law


def decimal_block_law(rates, t, N, digits=50):
    """P(t) of the birth-death chain on {0..N}, births out of N absorbed in
    an overflow state N+1, in `digits`-digit decimal: decimal_series on the
    identity block, one row per start state over the N+2 states, and a bound
    on each row's l1 distance to the exact P(t), rest and rounding."""
    law, rest, error = decimal_series(
        np.eye(N + 1, N + 2), *decimal_chain(*_rate_arrays(rates.beta, rates.delta, N), t, digits), digits
    )
    return law, rest + error


class TestDeathPieces:
    """The pure-death vector series in time pieces, each at its top live rate."""

    @pytest.mark.parametrize("n", [100, 150, 300, 800])
    def test_kingman_matches_piecewise_reference(self, n):
        # m + 1 pieces of lengths t 2^-m, t 2^-m, t 2^(1-m), ..., t/2,
        # m = floor(log2(lambda t / (8 (n + 5)))), each on the states 0..top
        # of the current law at their largest rate delta(top), with the law
        # within tail_bound and the pieces' rounding of the closed form
        t, delta = 0.5, BirthDeathRates.kingman_coalescent().delta
        m = int(np.floor(np.log2(delta(n) * t / (8 * (n + 5)))))
        assert m >= 1
        with counted_series(bdchain) as runs:
            ev = kingman(n, True, t)
        hs = [t / 2**m] + [t / 2**k for k in range(m, 0, -1)]
        assert len(runs) == m + 1
        assert [run.lam_ts for run in runs] == [[delta(len(run.v0) - 2) * h] for run, h in zip(runs, hs)]
        rounding = series_rounding([(run.lam_ts[0], run.terms) for run in runs])
        assert kingman_gap(ev.weights, n, t) <= Decimal(ev.tail_bound + rounding)

    @pytest.mark.parametrize("n", [50, 68])
    def test_one_piece_below_the_split(self, n):
        [(one, one_tail)] = _bd_series(*kingman_start(n), [0.5], 1e-13)
        [(acc, tail)] = _bd_uniformize(*kingman_start(n), [0.5], 1e-13)
        assert_same_bits(acc, one)
        assert tail == one_tail

    def test_blocks_and_sign_bits_run_one_series(self):
        N = 150  # three pieces for its pure-death vector
        v0, beta, delta = kingman_start(N)
        signed = v0.copy()
        signed[0] = -0.0
        for v in (np.stack([v0, v0]), signed):
            [(one, one_tail)] = _bd_series(v, beta, delta, [0.5], 1e-13)
            [(acc, tail)] = _bd_uniformize(v, beta, delta, [0.5], 1e-13)
            assert_same_bits(acc, one)
            assert tail == one_tail

    @pytest.mark.parametrize(
        "rates,n,digits",
        [
            (BirthDeathRates.kingman_coalescent(), 100, 150),
            (BirthDeathRates.kingman_coalescent(), 150, 200),
            (BirthDeathRates.kingman_coalescent(), 300, 250),
            (BirthDeathRates.quadratic_death(), 40, 100),  # two pieces
        ],
    )
    def test_tail_bound_covers_exact_law(self, rates, n, digits):
        exact = exact_pure_death_law(rates.delta, n, 0.5, digits)
        # the reference has converged: 50 more digits change no entry by 1e-40
        finer = exact_pure_death_law(rates.delta, n, 0.5, digits + 50)
        assert max(abs(a - b) for a, b in zip(exact, finer)) < Decimal("1e-40")
        ev = evolve(Measure.point_mass(n), rates, 0.5, tol=1e-13)
        w = [Decimal(float(c)) for c in ev.poly.coeffs_float()]
        gap = sum(abs(a - b) for a, b in zip(w, exact)) + sum(exact[len(w) :])
        assert gap <= Decimal(ev.tail_bound)


def exact_mm_infty_law(n, b, d, t, size, digits):
    """P(X_t = k | X_0 = n), k = 0..size-1, of M/M/infinity with birth rate
    b and death rate d k, in `digits`-digit decimal: Bin(n, e^(-dt)) plus
    an independent Poisson(b (1 - e^(-dt)) / d)."""
    with localcontext() as ctx:
        ctx.prec = digits
        p = (-Decimal(d) * Decimal(t)).exp()
        mean = Decimal(b) * (1 - p) / Decimal(d)
        binom = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        pois = [(-mean).exp() * mean**k / math.factorial(k) for k in range(size)]
        return [sum(binom[j] * pois[k - j] for j in range(min(k, n) + 1)) for k in range(size)]


def chain_sized_births_law():
    """A degree-80 real-rooted law, roots spread over (-3.05, -0.05), as in
    the benchmark's evolve tasks."""
    roots = -(0.05 + 2.95 * (np.arange(80) + 0.5) / 80)
    w = np.poly(roots)[::-1]
    return Measure(w / w.sum())


class TestBirthPieces:
    """A births vector series in pruned time pieces."""

    @pytest.mark.parametrize(
        "n,b,d,t,boxes",
        [
            (20, 1.0, 5.0, 2.0, [40, 37, 31]),
            (50, 2.0, 6.0, 2.0, [80, 52, 42]),
            (80, 1.0, 1.0, 8.0, [130, 72]),  # one series was over its bound
            pytest.param(
                30, 3.0, 2.0, 4.0, [100, 90],
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="tail_bound leaves out the rounding of the steps: 1.2e-14 of the 5.83e-14 gap",
                ),
            ),
        ],
    )
    def test_tail_bound_covers_exact_law(self, n, b, d, t, boxes):
        with counted_series(bdchain) as runs:
            ev = evolve(Measure.point_mass(n), BirthDeathRates.mm_infty(b, d), t, tol=1e-13)
        # one series per piece, each on its pruned range plus the overflow
        assert [len(run.v0) - 2 for run in runs] == boxes
        exact = exact_mm_infty_law(n, b, d, t, len(ev.weights), 80)
        w = [Decimal(float(c)) for c in ev.weights]
        gap = sum(abs(a - e) for a, e in zip(w, exact)) + (1 - sum(exact))
        assert gap <= Decimal(ev.tail_bound)

    def test_chain_sized_call_takes_few_terms(self):
        # one series on the whole box took 1,502 terms
        with counted_series(bdchain) as runs:
            ev = evolve(chain_sized_births_law(), BirthDeathRates.from_polynomial(1.0, 1.0, 1.0), 0.15)
        assert sum(run.terms for run in runs) == 657
        assert ev.tail_bound <= 2 * bdchain.DEFAULT.uniformization_tol

    def test_pruned_mass_lands_in_overflow(self):
        N, tol = 30, 1e-13
        rates = BirthDeathRates.from_polynomial(1.0, 0.5, 0.3)
        beta, delta = _rate_arrays(rates.beta, rates.delta, N)
        v0 = np.zeros(N + 2)
        v0[:6] = [0.25, 0.25, 0.2, 0.1, 0.1, 0.1]
        v0[6:10] = 4e-15  # suffix masses 1.6e-14 ... 4e-15, all below tol/4
        [(at_zero, tail), (later, _)] = _bd_uniformize(v0, beta, delta, [0.0, 0.02], tol)
        pruned = v0[6:10].sum()
        assert tail == 0.0
        assert_same_bits(at_zero[:6], v0[:6])
        assert not at_zero[6:-1].any() and at_zero[-1] == pruned
        assert later[-1] >= pruned
        # the piece runs on states 0..5 + H, H = N - 9 the input's headroom
        [(one, _)] = _bd_series(np.append(v0[:6], np.zeros(N - 9 + 1)), beta[: N - 3], delta[: N - 3], [0.02], tol)
        assert_same_bits(later[: N - 3], one[:-1])
        assert later[-1] == pruned + one[-1]

    def test_nothing_pruned_above_the_floor(self):
        v = np.array([0.5, 0.25, 0.125, 2.0**-40, 2.0**-41, 0.0, 0.0])
        suffix = 2.0**-40 + 2.0**-41
        assert bdchain._top_state(v, 0.0) == 4
        assert bdchain._top_state(v, 2.0**-42) == 4
        assert bdchain._top_state(v, 2.0**-41) == 3  # a suffix mass at the floor is pruned
        assert bdchain._top_state(v, suffix) == 2
        assert bdchain._top_state(v, 1.0) == 0
        # every suffix mass above tol/4 and m = 0: the one series, bit for bit
        N = 24
        rates = TestUniformizedSeries.rates["mm-infty"]
        beta, delta = _rate_arrays(rates.beta, rates.delta, N)
        v0 = np.zeros(N + 2)
        v0[5:12] = np.arange(1.0, 8.0) / 28.0
        ts = [0.0, 0.05, 0.7]
        for (acc, tail), (one, one_tail) in zip(
            _bd_uniformize(v0, beta, delta, ts, 1e-13), _bd_series(v0, beta, delta, ts, 1e-13)
        ):
            assert_same_bits(acc, one)
            assert tail == one_tail


def stencil(shape, seed):
    """A two-diagonal sub-stochastic step with random coefficients, stay +
    up <= 1, and its coefficients (stay, up, down None): like the
    birth-death step it writes out and reads v through slices."""
    rng = np.random.default_rng(seed)
    stay, up = rng.uniform(0.2, 0.5, shape[-1]), rng.uniform(0.1, 0.5, shape[-1] - 1)

    def step(v, out):
        np.multiply(v, stay, out=out)
        out[..., 1:] += v[..., :-1] * up

    return step, stay, up, None


def mass_start(shape, seed):
    """Nonnegative rows of l1 mass below 1, with zeros among the entries."""
    v0 = np.random.default_rng(seed).uniform(0.0, 1.0, shape) / shape[-1]
    v0.flat[::7] = 0.0
    return v0


def chunk_cap(shape):
    return max(2, min(_CHUNK_TERMS, _CHUNK_SIZE // math.prod(shape)))


def assert_series_within_budget(v0, stencil_, lam_ts, tol, min_terms, rows=slice(None)):
    """The series of v0 under stencil_ = (step, stay, up, down) at each mean
    of lam_ts against decimal_series summing the same J + 1 terms with
    exact weights, J the last of the kernel's weights, on the given rows
    of a block (the rows are independent).  tail bounds the l1 error of
    all the weights, rest that of the exact ones past J, so the kernel's
    first J + 1 weights are within tail - rest of the exact ones."""
    step, *coeffs = stencil_
    sums = _uniformized_series(v0, step, lam_ts, tol, min_terms)
    assert len(sums) == len(lam_ts)
    for (acc, tail), lam_t in zip(sums, lam_ts):
        J = len(_poisson_weights(lam_t, tol, min_terms + 1)[0]) - 1
        law, rest, error = decimal_series(v0[rows], *coeffs, lam_t, terms=J)
        budget = Decimal(tail) - rest + Decimal(series_rounding([(lam_t, J)])) + error
        assert (l1_gaps(acc[rows], law) <= budget).all()


# a vector (chunks of 32 terms), a block (chunks of 8) and a block whose
# chunk buffer runs in five column slabs (chunks of 2)
SHAPES = [(40,), (32, 64), (150, 300)]


def slab_rows(shape):
    """The rows to check of a block of SHAPES: all of a vector or of a
    small block; of the largest, every 15th row and the one before it,
    which meet the edges of its five slabs (rows 30, 60, 90 and 120)."""
    return slice(None) if shape[0] < 100 else np.r_[0 : shape[0] : 15, 14 : shape[0] : 15]


class TestChunkedSeries:
    """The chunked kernel within its budget of decimal_series, at the chunk
    boundaries and with several weightings per run."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("offset", ["1", "K-1", "K", "K+1", "2K+1"])
    def test_chunk_boundaries(self, shape, offset):
        K = chunk_cap(shape)
        J = {"1": 1, "K-1": K - 1, "K": K, "K+1": K + 1, "2K+1": 2 * K + 1}[offset]
        # tol = 1 stops the weights at min_terms, and lambda*t = 0.6 J and
        # 0.3 J keep the last ones large, so a term lost or counted twice at
        # a chunk seam shows far above the budget
        w, _ = _poisson_weights(0.6 * J, 1.0, J + 1)
        assert len(w) == J + 1 and w[1:].all()
        lam_ts = [0.6 * J, 0.3 * J]
        assert_series_within_budget(mass_start(shape, J), stencil(shape, J), lam_ts, 1.0, J, slab_rows(shape))

    @pytest.mark.parametrize("shape", SHAPES[:2])
    def test_weights_that_start_at_zero(self, shape):
        # Kingman-like: w[0..70] underflow to 0 and index 71 is inside a chunk
        w, _ = _poisson_weights(1000.0, 1e-13, 5)
        first = int(np.flatnonzero(w)[0])
        assert first == 71 and first % chunk_cap(shape) > 1
        rows = slice(None) if len(shape) == 1 else [0, -1]
        assert_series_within_budget(mass_start(shape, 1), stencil(shape, 1), [1000.0], 1e-13, 4, rows)

    def test_weights_that_end_at_zero(self):
        # min_terms past the underflow of the upper weights
        w, _ = _poisson_weights(1e-3, 1e-13, 121)
        assert w[-1] == 0.0 and w[1] > 0.0
        assert_series_within_budget(mass_start((40,), 2), stencil((40,), 2), [1e-3], 1e-13, 120)

    @pytest.mark.parametrize("lam_t,min_terms", [(1000.0, 4), (1e-3, 120)])
    def test_zero_weights_leave_signed_zeros(self, lam_t, min_terms):
        # Entry 0 starts at -0.0 and is -0.0 in every term of positive
        # weight but +0.0 in one of weight 0, which must not be added: the
        # sum of -0.0 terms is -0.0.
        w, _ = _poisson_weights(lam_t, 1e-13, min_terms + 1)
        positive = np.flatnonzero(w)
        flip = 1 if positive[0] > 1 else positive[-1] + 1
        assert w[flip] == 0.0
        terms = []

        def sign_step(v, out):
            terms.append(1)
            np.multiply(v, -1.0 if len(terms) in (flip, flip + 1) else 1.0, out=out)

        v0 = np.full(40, 0.025)
        v0[0] = -0.0
        [(acc, _)] = _uniformized_series(v0, sign_step, [lam_t], 1e-13, min_terms)
        assert acc[0] == 0.0 and np.signbit(acc[0])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_several_weightings_share_the_terms(self, shape):
        lam_ts = [0.0, 2.0, 17.0, 40.0, 17.0, 1e-3]
        rows = slice(None) if len(shape) == 1 else [0, -1]
        assert_series_within_budget(mass_start(shape, 3), stencil(shape, 3), lam_ts, 1e-13, 3, rows)

    def test_every_mean_is_checked_before_any_term(self):
        calls = []
        with pytest.raises(InputRangeError):
            _uniformized_series(np.ones(3), lambda v, out: calls.append(1), [1.0, 2e7], 1e-13, 3)
        assert not calls

    @pytest.mark.parametrize("offset", [0, 1, 31, 32, 33, 65])
    def test_particle_step(self, offset):
        # one site, whose product-space step is tridiagonal plus the dot
        # product that feeds the overflow state; its coefficients are read
        # off the step's rows
        system = SiteSystem(jump=np.zeros((1, 1)), birth=np.array([0.5]), death=np.array([1.0]))
        with counted_series(particles) as runs:
            truncated_generator_evolve(Measure.bernoulli(0.3), system, 0.4, box=(12,))
        [run] = runs
        v0, step = run.v0, run.step
        assert chunk_cap(v0.shape) == 32
        S = np.zeros((v0.size, v0.size))
        for i, row in enumerate(S):
            step(np.eye(1, v0.size, i)[0], row)
        stay, up, down = np.diag(S), np.diag(S, 1), np.diag(S, -1)
        assert np.array_equal(S, np.diag(stay) + np.diag(up, 1) + np.diag(down, -1))
        J = max(offset, 1)
        assert_series_within_budget(v0, (step, stay, up, down), [0.6 * J, 0.4 * J], 1.0, J)

    @pytest.mark.parametrize("block", [False, True])
    def test_birth_death_step_over_several_times(self, block):
        # the step's slice cache and the block drop schedule on a shared run
        N, ts = 24, [0.05, 0.7, 0.0, 0.3, 0.7]
        for rates in (BirthDeathRates.quadratic_death(1.3), BirthDeathRates.from_polynomial(0.9, 0.5, 0.3)):
            beta, delta = _rate_arrays(rates.beta, rates.delta, N)
            if block:
                v0 = np.eye(N + 1, N + 2)[::8]
            else:
                v0 = np.zeros(N + 2)
                v0[5:12] = np.arange(1.0, 8.0) / 28.0
            with counted_series(bdchain) as runs:
                sums = _bd_series(v0, beta, delta, ts, 1e-13)
            assert_within_chain_budget(v0, beta, delta, ts, sums, *runs)


@st.composite
def block_cases(draw):
    """(rows, beta, delta, t): one to four nonnegative rows of l1 mass below
    1 on {0..N} plus the overflow column, and the rates of a chain with or
    without births, at lambda t up to 60."""
    N, scale = draw(st.integers(2, 30)), draw(st.floats(0.1, 2.0))
    rates = draw(st.sampled_from([
        BirthDeathRates.from_polynomial(scale, 0.5, 0.3), BirthDeathRates.mm_infty(scale, 1.0),
        BirthDeathRates.quadratic_death(scale), BirthDeathRates.kingman_coalescent(),
    ]))
    beta, delta = _rate_arrays(rates.beta, rates.delta, N)
    t = draw(st.floats(0.0, 60.0)) / float((beta + delta).max())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(0.0, 1.0, (draw(st.integers(1, 4)), N + 2)) / (N + 2)
    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
    rows[:, -1] = 0.0
    return rows, beta, delta, t


class TestBlockRows:
    """What _bd_series states of a block: its rows are their own series."""

    @given(block_cases())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_their_vector_series(self, case):
        # With births each row of the block is, bit for bit, the series of
        # that row alone.  Under pure death a vector drops underflowed
        # states after every term and a block after every
        # _BLOCK_DROP_EVERY-th, so the two may differ only in entries that
        # are below 2^-1018 in both, and each overflow entry is what the
        # drop moved, at most (N+1) 2^-1022.
        rows, beta, delta, t = case
        [(block, block_tail)] = _bd_series(rows, beta, delta, [t], 1e-13)
        for got, v0 in zip(block, rows):
            [(one, tail)] = _bd_series(v0, beta, delta, [t], 1e-13)
            assert tail == block_tail
            if beta.any():
                assert_same_bits(got, one)
                continue
            differ = got[:-1] != one[:-1]
            assert (got[:-1][differ] < 2.0**-1018).all() and (one[:-1][differ] < 2.0**-1018).all()
            assert max(got[-1], one[-1]) <= len(beta) * 2.0**-1022


QUAD_DEATH_5 = BirthDeathRates.quadratic_death(5.0)
# from 11 at scale 5, t = 3 and 6 run in time pieces; -0.0 with births
PIECES_CASE = (Measure.point_mass(11), QUAD_DEATH_5, [3.0, 0.05, 0.0, 3.0, 6.0], 1e-13)
SIGNED_CASE = (
    Measure(np.array([0.5, -0.0, 0.5])), BirthDeathRates.from_polynomial(1.0, 0.5, 0.3), [1.0, 0.0, 0.5, 1.0], 1e-12
)


@st.composite
def grid_cases(draw):
    """(mu, rates, times, tol): laws with -0.0 entries and tiny negative
    weights, pure death past the piece split, births whose first box
    grows with t, t = 0 and repeated times."""
    size = draw(st.integers(1, 12))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    marks = np.array(draw(st.lists(st.sampled_from(["", "", "-0", "tiny"]), min_size=size, max_size=size)))
    raw[marks != ""] = 0.0
    if not raw.any():
        raw[-1], marks[-1] = 1.0, ""
    w = raw / raw.sum()
    w[marks == "-0"] = -0.0
    w[marks == "tiny"] = -1e-12
    mu = Measure(w)
    if draw(st.booleans()):
        rates = draw(st.sampled_from([BirthDeathRates.kingman_coalescent(), QUAD_DEATH_5]))
        t_max = 6.0
    else:
        b0, d1, d2 = (draw(st.floats(lo, 1.0)) for lo in (0.05, 0.0, 0.0))
        rates = BirthDeathRates.from_polynomial(b0, d1, d2)
        t_max = 1.0
    pool = [0.0, 1e-4, 0.05, 0.5, t_max] + draw(st.lists(st.floats(0.0, t_max), max_size=2))
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    tol = draw(st.sampled_from([1e-12, 1e-13]))
    return mu, rates, times, tol


class TestEvolveGrid:
    @given(grid_cases())
    @settings(max_examples=60, deadline=None)
    @example(PIECES_CASE)
    @example(SIGNED_CASE)
    def test_equals_evolve_per_time(self, case):
        mu, rates, times, tol = case
        grid = evolve_grid(mu, rates, times, tol=tol)
        assert len(grid) == len(times)
        for ev, t in zip(grid, times):
            one = evolve(mu, rates, t, tol=tol)
            assert_same_bits(ev.weights, one.weights)
            assert ev.tail_bound == one.tail_bound

    def test_pure_death_grid_runs_one_series_plus_pieces(self):
        # from 11 at scale 5 (lambda = 550), t = 3 and 6 run in pieces and
        # 0.05 and 0.1 share one run (lambda t below 2 * 8 * 5 = 80)
        with counted_series(bdchain) as runs:
            evolve_grid(Measure.point_mass(11), QUAD_DEATH_5, [0.05, 3.0, 0.1, 6.0])
        calls = [len(run.lam_ts) for run in runs]
        assert calls[0] == 2  # the shared run
        assert len(calls) > 3 and set(calls[1:]) == {1}  # one run per piece

    def test_empty_grid(self):
        assert evolve_grid(Measure.point_mass(2), BirthDeathRates.quadratic_death(), []) == []

    def test_every_time_is_checked_first(self, monkeypatch):
        monkeypatch.setattr(bdchain, "_bd_uniformize", None)  # no series may run
        with pytest.raises(ValueError, match="t must be >= 0"):
            evolve_grid(Measure.point_mass(3), BirthDeathRates.quadratic_death(), [0.1, -1.0])
        with pytest.raises(InputRangeError):
            evolve_grid(Measure.point_mass(3), BirthDeathRates.quadratic_death(), [0.1, 1e7])

    @pytest.mark.parametrize("state", [4, 13])
    @pytest.mark.parametrize(
        "bad,message", [(-1.0, "rates must be nonnegative"), (math.nan, "rates must be finite")]
    )
    def test_rates_above_the_support_are_checked_first(self, monkeypatch, state, bad, message):
        # from 3 a pure-death first box is 3, yet a bad birth or death rate
        # of any of states 4..13 is refused before any series runs
        monkeypatch.setattr(bdchain, "_bd_uniformize", None)
        for rates in (
            BirthDeathRates(lambda k: bad if k == state else 0.0, lambda k: float(k)),
            BirthDeathRates(lambda k: 0.0, lambda k: bad if k == state else float(k)),
        ):
            with pytest.raises(ValueError, match=message):
                evolve_grid(Measure.point_mass(3), rates, [0.1])


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
            assert is_real_rooted(ev.poly, coeff_perturb=ev.tail_bound).verdict is Verdict.STABLE

    def test_ehrenfest_control_preserves_low_degree(self):
        # finitely many nonzero rates: beta_k = n-k, delta_k = k preserves
        # real-rootedness for inputs of degree <= n
        n = 6
        rates = BirthDeathRates(lambda k: float(max(n - k, 0)), lambda k: float(k))
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu = _random_real_rooted(rng, deg_max=n)
            for t in (0.05, 0.3, 1.0):
                ev = evolve(mu, rates, t, tol=1e-13)
                assert is_real_rooted(ev.poly, coeff_perturb=ev.tail_bound).verdict is not Verdict.REFUTED


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

    @pytest.mark.parametrize("k", [-1, 7])
    def test_k_outside_the_box(self, monkeypatch, k):
        rates = BirthDeathRates.mm_infty(1.0, 1.0)
        sg = transition(rates, 0.5, 6, tol=1e-13)
        monkeypatch.setattr(bdchain, "_bd_uniformize", None)  # no series may run
        with pytest.raises(ValueError, match="k must be >= 0" if k < 0 else "k must lie in 0..N"):
            backward_residual(rates, sg, 2, k)

    @pytest.mark.parametrize(
        "j,k,name",
        [(2, True, "k"), (2, 2.5, "k"), (2, 4.0, "k"), (True, 2, "j"), (np.bool_(False), 2, "j"), (2.0, 2, "j")],
    )
    def test_indices_must_be_integers(self, monkeypatch, j, k, name):
        # numpy would read plus[True, k] as a mask and return a row
        rates = BirthDeathRates.mm_infty(1.0, 1.0)
        sg = transition(rates, 0.5, 6, tol=1e-13)
        monkeypatch.setattr(bdchain, "_bd_uniformize", None)  # no series may run
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            backward_residual(rates, sg, j, k)

    @pytest.mark.parametrize(
        "rates,t,N,j,k",
        [
            (BirthDeathRates(lambda k: 0.0, lambda k: float(k)), 0.5, 6, 1, 0),
            (BirthDeathRates.mm_infty(1.0, 1.0), 1e-3, 6, 2, 3),
            (BirthDeathRates.kingman_coalescent(), 0.4, 10, 8, 4),
            (BirthDeathRates.mm_infty(1.3, 0.4), 0.0, 6, 2, 3),
            (BirthDeathRates.quadratic_death(), 0.5, 64, 5, 2),  # a block that drops
        ],
    )
    def test_equals_two_transitions(self, rates, t, N, j, k):
        # P(t + h) and P(t - h) come from one series with two weightings
        sg = transition(rates, t, N, tol=1e-13)
        h = 1e-4 * max(t, 1.0)
        h = min(h, t) if t > 0 else h
        plus = transition(rates, t + h, N, tol=_PROBE_TOL).matrix
        minus = transition(rates, t - h if t - h > 0 else 0.0, N, tol=_PROBE_TOL).matrix
        dt = (plus[j, k] - minus[j, k]) / (2 * h if t - h > 0 else (t + h))
        (b,), (d,) = _rate_arrays(rates.beta, rates.delta, j, j)
        P = sg.matrix
        rhs = b * P[j + 1, k] + d * P[j - 1, k] - (b + d) * P[j, k]
        assert backward_residual(rates, sg, j, k) == abs(dt - rhs)


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

    @pytest.mark.parametrize("start,t", [(5, 0.0), (5, 0.2), (3, 5e-6), (8, 1.0)])
    def test_matches_per_time_evolve(self, start, t):
        # one evolve per stencil time and one at t, as before evolve_grid
        mu, rates = Measure.point_mass(start), BirthDeathRates.quadratic_death()
        h = 1e-5 * max(t, 1.0)
        if t > 0:
            h = min(h, t)
            stencil = ((t - h, -1.0), (t + h, 1.0))
        else:
            stencil = ((0.0, -3.0), (h, 4.0), (2 * h, -1.0))
        phis = [(evolve(mu, rates, s, tol=_PROBE_TOL).poly, c) for s, c in stencil]
        d2 = evolve(mu, rates, t, tol=_PROBE_TOL).poly.derivative().derivative()
        worst = 0.0
        for z in np.linspace(-0.9, 0.9, 20):
            dt = sum(c * phi(z) for phi, c in phis) / (2 * h)
            worst = max(worst, abs(dt - z * (1 - z) * d2(z)))
        assert wf_residual(mu, t) == worst


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
        rates = BirthDeathRates.from_sequences([1.0, 2.0, 1.0])
        recs = birth_monotonicity_probe(rates, 0, [1e-4, 3e-4, 1e-3])
        assert all(r["verdict"] == "Refuted" for r in recs)

    def test_decreasing_birth_not_refuted(self):
        rates = BirthDeathRates.from_sequences([2.0, 1.0])
        recs = birth_monotonicity_probe(rates, 0, [1e-4, 3e-4, 1e-3])
        assert all(r["verdict"] != "Refuted" for r in recs)

    def test_interior_start(self):
        rates = BirthDeathRates.from_sequences([1.0, 1.0, 1.0, 2.0, 1.0])
        recs = birth_monotonicity_probe(rates, 2, [1e-4])
        assert recs[0]["verdict"] == "Refuted"

    @pytest.mark.parametrize("k", [True, np.bool_(True), 1.5, 1.0, -1])
    def test_start_must_be_a_count(self, monkeypatch, k):
        monkeypatch.setattr(bdchain, "evolve_grid", None)  # no series may run
        with pytest.raises(ValueError, match="k must be >= 0" if k == -1 else "k must be an integer"):
            birth_monotonicity_probe(BirthDeathRates.mm_infty(1.0, 1.0), k, [0.01])

    def test_witness_pinned(self):
        # pure birth never feeds a lower state, so the coefficients 0..k+2
        # and the witness do not depend on the box top
        recs = birth_monotonicity_probe(BirthDeathRates.from_sequences([1.0, 2.0, 1.0]), 0, [1e-4])
        assert recs[0]["witness"] == (complex(-9999.833336111093, 10000.49998611185),)


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
        dec = bp_decompose(ev)
        assert dec.q in (0, 1)
        assert dec.residual < 1e-8

    def test_large_atom_decomposes(self):
        # the fit once divided by x^q, which is 0 in floats on its smallest
        # node from q = 327
        dec = bp_decompose(kingman(500, True, 1e-9))
        assert dec.q == 498 and math.isfinite(dec.sigma)

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
        # on lie_split_evolve's box, 5 + ceil(10 + 5 b0 t) + 20 = 38, whose
        # birth out of the top state leaves the box
        b0, d1, d2, t, steps, N = 1.0, 0.5, 1.0, 0.5, 4096, 38
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
        ev = lie_split_evolve(Measure.point_mass(5), b0, d1, d2, t, steps)
        w = np.zeros(N + 1)
        w[: ev.poly.degree + 1] = ev.poly.coeffs_float()
        assert np.abs(w - ref).sum() <= ev.tail_bound + 1e-11

    @pytest.mark.parametrize("steps", [2.5, 4.0, "4", None])
    def test_steps_must_be_an_integer(self, monkeypatch, steps):
        monkeypatch.setattr(bdchain, "_rate_arrays", None)  # nothing may be sized
        with pytest.raises(ValueError, match="steps must be an integer"):
            lie_split_evolve(Measure.point_mass(5), 1.0, 1.0, 1.0, 0.5, steps)

    def test_nontrivial_split_tv_decreasing(self):
        mu = Measure.point_mass(5)
        ref = evolve(mu, BirthDeathRates.from_polynomial(1.0, 0.0, 1.0), 0.5, tol=1e-14)
        tvs = [
            tv_distance(lie_split_evolve(mu, 1.0, 0.0, 1.0, 0.5, s), ref)
            for s in (8, 32, 128)
        ]
        assert tvs[0] > tvs[1] > tvs[2]


def gamma(n):
    """gamma_n = n u / (1 - n u): the relative error bound of an n-term sum
    of products, in any order (Higham, Accuracy and Stability, 3.1)."""
    return n * _U / (1 - n * _U)


class TestLieSplitPowers:
    """lie_split_evolve as mu H1 (F2 F1)^(steps-1) F2 H1, the power by
    squaring, with H1 and F2 from _propagator and F1 = H1 H1."""

    # the trotter-split defaults, with a tail_bound on the start law
    mu = Measure(np.eye(1, 6, 5)[0], tail_bound=2.0**-30)
    args = (1.0, 1.0, 1.0, 0.5)

    @staticmethod
    def substeps(mu, b0, d1, d2, t, steps):
        """mu H1 F2 F1 ... F2 H1, one vector-matrix product per sub-step,
        on lie_split_evolve's box and with _propagator's H1 and F2 as it
        builds them; returns (law with the overflow entry last, N)."""
        support = int(np.flatnonzero(mu.weights)[-1])
        N = support + int(math.ceil(10.0 + 5.0 * b0 * t)) + 20
        chain1, chain2 = BirthDeathRates.mm_infty(b0, d1), BirthDeathRates.quadratic_death(d2)
        h = t / steps
        half1, _ = bdchain._propagator(*_rate_arrays(chain1.beta, chain1.delta, N), h / 2.0, _ROOT_LAW_TOL)
        full2, _ = bdchain._propagator(*_rate_arrays(chain2.beta, chain2.delta, N), h, _ROOT_LAW_TOL)
        full1 = half1 @ half1
        v = np.zeros(N + 2)
        v[: support + 1] = mu.weights[: support + 1]
        for P in [half1] + [full2, full1] * (steps - 1) + [full2, half1]:
            v = v @ P
        return v, N

    @staticmethod
    def allowance(steps, N):
        # Every factor is nonnegative with row sums at most 1, so a computed
        # product of n-term sums adds at most gamma_n to a row's l1 error
        # and passes earlier errors on without growth; all sums here have at
        # most N + 2 terms.  Both ways use the same H1, F2 and F1 = H1 H1.
        # The loop makes 2 steps + 1 vector products.  The powers make 4
        # vector products, F2 F1 (one gamma in each of its steps - 1
        # copies) and at most steps - 2 more products, one gamma each, as a
        # product tree of steps - 1 leaves has steps - 2 inner nodes: 2
        # steps + 1 gammas as well.  The two laws differ by at most the
        # sum, to first order in u.
        return (4 * steps + 2) * gamma(N + 2)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4096])
    def test_matches_the_step_loop(self, steps):
        ev = lie_split_evolve(self.mu, *self.args, steps)
        ref, N = self.substeps(self.mu, *self.args, steps)
        assert ev.weights.shape == ref[:-1].shape
        assert np.abs(ev.weights - ref[:-1]).sum() <= self.allowance(steps, N)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4096])
    def test_tail_bound_composition(self, monkeypatch, steps):
        # stand-in propagators, which send 2^-12 of each row's mass to the
        # overflow state so that the overflow entry stands far above the
        # rounding, with stand-in errors, 2^-20 for H1 and 2^-28 for F2, so
        # that each count of 2 err(H1) + steps err(F2) + (steps-1) err(F1),
        # err(F1) = 2 err(H1) + gamma_(N+2), shows
        errors = iter([2.0**-20, 2.0**-28])
        propagator = bdchain._propagator

        def leaky(beta_arr, delta_arr, t, tol):
            P, _ = propagator(beta_arr, delta_arr, t, tol)
            P[:-1, -1] += 2.0**-12 * P[:-1, :-1].sum(axis=1)
            P[:-1, :-1] *= 1 - 2.0**-12
            return P, next(errors)

        monkeypatch.setattr(bdchain, "_propagator", leaky)
        ev = lie_split_evolve(self.mu, *self.args, steps)
        errors = iter([2.0**-20, 2.0**-28])
        ref, N = self.substeps(self.mu, *self.args, steps)
        err_f1 = 2 * 2.0**-20 + gamma(N + 2)
        listed = self.mu.tail_bound + ref[-1] + 2 * 2.0**-20 + steps * 2.0**-28 + (steps - 1) * err_f1
        # the overflow entry is a coordinate of the law's vector, within the
        # allowance of the loop's; each side sums five nonnegative numbers
        # with three products among them, within gamma_8 of the total
        slack = self.allowance(steps, N) + 2 * gamma(8) * listed
        assert abs(ev.tail_bound - listed) <= slack


class TestOneLawType:
    engines = {
        "evolve": lambda: [evolve(Measure.point_mass(3), BirthDeathRates.mm_infty(1.0, 1.0), 0.5)],
        "evolve_grid": lambda: evolve_grid(
            Measure.point_mass(3), BirthDeathRates.quadratic_death(), [0.0, 0.1, 0.5]
        ),
        "kingman": lambda: [kingman(5, True, 0.5)],
        "lie_split_evolve": lambda: [lie_split_evolve(Measure.point_mass(1), 1.0, 1.0, 1.0, 0.5, 4)],
    }

    @pytest.mark.parametrize("engine", sorted(engines))
    def test_engines_return_measures(self, engine):
        laws = self.engines[engine]()
        assert laws and all(type(law) is Measure and law.ndim == 1 for law in laws)

    def test_tv_distance_refuses_a_2d_measure(self):
        one, two = Measure.point_mass(1), Measure.point_mass((1, 0))
        for a, b in ((one, two), (two, one), (two, two)):
            with pytest.raises(ValueError, match="univariate measures only"):
                tv_distance(a, b)

    def test_tv_distance_pads_the_shorter_law(self):
        assert tv_distance(Measure.point_mass(0), Measure.point_mass(0, shape=(4,))) == 0.0
        assert tv_distance(Measure.point_mass(0), Measure.point_mass(3)) == 1.0


class TestPreservation:
    def test_random_laws_never_refuted(self):
        rng = np.random.default_rng(7)
        rates = BirthDeathRates.quadratic_death()
        for _ in range(20):
            mu = _random_real_rooted(rng)
            for t in np.logspace(-3, 0, 4):
                ev = evolve(mu, rates, float(t), tol=1e-13)
                assert is_real_rooted(ev.poly, coeff_perturb=ev.tail_bound).verdict is not Verdict.REFUTED

    def test_general_polynomial_family_never_refuted(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            b0, d1, d2 = rng.uniform(0, 2, size=3)
            rates = BirthDeathRates.from_polynomial(float(b0), float(d1), float(d2))
            mu = _random_real_rooted(rng, deg_max=5)
            ev = evolve(mu, rates, 0.4, tol=1e-12)
            assert is_real_rooted(ev.poly, coeff_perturb=ev.tail_bound).verdict is not Verdict.REFUTED


class TestQuadDeathPreserveBlocks:
    """quad-death-preserve evolves every start law through one transition
    block per time; each law it checks is held against the exact one."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_checked_laws_match_exact_pure_death(self, monkeypatch, seed):
        params = {"count": 10, "deg_max": 8, "t_points": 7}
        blocks, checked = [], []
        transition_, verdict = bdchain.transition, cli.stability.is_real_rooted

        def recording(*args, **kwargs):
            blocks.append(transition_(*args, **kwargs))
            return blocks[-1]

        def judged(poly, coeff_perturb):
            checked.append((poly, coeff_perturb))
            return verdict(poly, coeff_perturb=coeff_perturb)

        monkeypatch.setattr(bdchain, "transition", recording)
        monkeypatch.setattr(cli.stability, "is_real_rooted", judged)
        with counted_series(bdchain) as runs:
            passed, payload, _ = cli._run_quad_death_preserve(params, seed)
        monkeypatch.undo()
        assert passed and payload["checked"] == 70 and payload["refuted"] == 0

        rng = np.random.default_rng(seed)
        laws = [_random_real_rooted(rng, 8) for _ in range(10)]
        d_max = max(len(mu.weights) - 1 for mu in laws)
        assert [(b.N, b.t) for b in blocks] == [(d_max, t) for t in payload["t_grid"]]
        assert len(runs) == len(blocks)
        delta = BirthDeathRates.quadratic_death().delta
        # the t-th block serves the 10 laws in their order
        for block, run, row in zip(blocks, runs, range(0, 70, 10)):
            # the block's series ran at h = t 2^-k, lambda = d_max (d_max - 1)
            [lam_h] = run.lam_ts
            k = round(math.log2(delta(d_max) * block.t / lam_h))
            # the closed form's coefficients stay below 26 in modulus for
            # n <= 8, so 60 digits leave it far more than double precision
            exact = [exact_pure_death_law(delta, n, block.t, 60) for n in range(d_max + 1)]
            for mu, (poly, perturb) in zip(laws, checked[row : row + 10]):
                n = len(mu.weights)  # degree + 1
                assert perturb == mu.tail_bound + block.trunc_error
                want = [
                    sum(Decimal(m) * exact[i][k] for i, m in enumerate(mu.weights) if i >= k)
                    for k in range(n)
                ]
                got = np.zeros(n)
                got[: poly.degree + 1] = poly.coeffs_float()
                gap = sum(abs(Decimal(g) - w) for g, w in zip(got, want))
                # the block's rows have mass 1; gamma_n bounds the product
                # mu P(t) of n-term sums of nonnegative numbers, mu of mass 1
                rounding = series_rounding([(lam_h, run.terms)], k) + gamma(n)
                assert gap <= Decimal(perturb + rounding)


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

    def test_box_of_one_state_grows(self):
        # from state 0 the first box is 0 + ceil(10 + 5 b t) with births and
        # 1 without: M/M/infinity from 0 is Poisson with mean 1 - e^{-t}
        ev = evolve(Measure.point_mass(0), BirthDeathRates.mm_infty(1.0, 1.0), 0.5)
        mean = 1.0 - math.exp(-0.5)
        ref = [math.exp(-mean) * mean**k / math.factorial(k) for k in range(ev.poly.degree + 1)]
        gap = sum(abs(c - r) for c, r in zip(ev.poly.coeffs, ref)) + 1.0 - sum(ref)
        assert gap <= ev.tail_bound
        ev = evolve(Measure.point_mass(0), self.still, 0.5)
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
            transition(BirthDeathRates(lambda k: 1.0, lambda k: bad if k == 1 else 0.0), 0.5, 8)
        with pytest.raises(ValueError, match="rates must be finite"):
            lie_split_evolve(mu, bad, 1.0, 1.0, 0.5, 4)

    def test_rate_sums_past_the_float_range(self):
        # every rate is finite, but beta + delta overflows from state 1 on
        huge = BirthDeathRates.mm_infty(1e308, 1e308)
        mu = Measure.point_mass(1)
        for call in (
            lambda: evolve(mu, huge, 0.1),
            lambda: transition(huge, 0.1, 3),
            lambda: generator(huge, 3),
        ):
            with pytest.raises(InputRangeError, match="rates must be finite"):
                call()

    cap_callers = {
        "transition": lambda: transition(BirthDeathRates.mm_infty(1.0, 1.0), 1e9, 3),
        # lambda*t = 4000 * 3999, and the block alone would take 128 MB
        "transition-block": lambda: transition(BirthDeathRates.quadratic_death(), 1.0, 4000),
        "kingman": lambda: kingman(5, True, 1e300),
        # births at rate 1e6 for t = 100 would size the box at 5e8 states
        "evolve-births": lambda: evolve(
            Measure.point_mass(1), BirthDeathRates.mm_infty(1e6, 1.0), 100.0
        ),
        "lie_split_evolve": lambda: lie_split_evolve(
            Measure.point_mass(1), 1e6, 1.0, 1.0, 100.0, 4
        ),
        "truncated_generator_evolve": lambda: truncated_generator_evolve(
            Measure.point_mass((1,)), TestInputBoundary.site, 1e300, box=(30,)
        ),
        "poisson_box": lambda: poisson_box(1e300),
    }

    @pytest.mark.parametrize("caller", sorted(cap_callers))
    def test_series_cap_refused_before_allocating(self, caller):
        tracemalloc.start()
        try:
            with pytest.raises(InputRangeError, match="above the cap 1e\\+07"):
                self.cap_callers[caller]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the weights alone would take 8 bytes per unit of lambda*t
        assert peak < 2**22

    def test_lie_split_box_cap_refused_before_allocating(self):
        # b0*t = 2e5 is far below the series cap, but the box would hold
        # about 1e6 states and each dense propagator 8 TB
        tracemalloc.start()
        try:
            with pytest.raises(InputRangeError, match="Lie split box N = 1000031 is above the cap"):
                lie_split_evolve(Measure.point_mass(1), 2e5, 1.0, 1.0, 1.0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "rates",
        [
            BirthDeathRates.from_sequences([1.0, -1.0, 1.0]),
            BirthDeathRates(lambda k: 1.0, lambda k: -2.0 if k == 1 else 0.0),
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
