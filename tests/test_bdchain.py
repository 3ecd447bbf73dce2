import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stablepgf import bdchain, particles
from stablepgf.bdchain import (
    _BLOCK_DROP_EVERY,
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


def reference_bd_uniformize_parent(v0, beta_arr, delta_arr, t, tol):
    """The birth-death step as three allocating products, births always
    added, and nothing dropped: the kernel before underflowed states left
    the box.  Frozen."""
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


def reference_bd_uniformize(v0, beta_arr, delta_arr, t, tol):
    """The frozen loop, plus the drop of a pure-death chain on input without
    sign bits: on a vector after every term, on a block after every
    _BLOCK_DROP_EVERY-th, the top states whose entry is below 2^-1022 in
    every row are added, highest first, to the overflow column and zeroed."""
    N = len(beta_arr) - 1
    out_rate = beta_arr + delta_arr
    lam = float(out_rate.max())
    stay = np.append(np.maximum(1.0 - out_rate / lam, 0.0), 1.0)
    up = beta_arr / lam
    down = delta_arr[1:] / lam
    drops = not up.any() and not np.signbit(v0).any()
    every = _BLOCK_DROP_EVERY if np.ndim(v0) == 2 else 1
    terms, live = 0, N + 1  # states live..N are zero in every row

    def step(v):
        nonlocal terms, live
        nxt = v * stay
        nxt[..., 1:] += v[..., :-1] * up
        nxt[..., :-2] += v[..., 1:-1] * down
        terms += 1
        if drops and terms % every == 0:
            below = (nxt[..., :-1] < 2.0**-1022).reshape(-1, N + 1).all(axis=0)
            while live > 0 and below[live - 1]:
                live -= 1
                nxt[..., -1] = nxt[..., -1] + nxt[..., live]
            nxt[..., live:-1] = 0.0
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
        beta, delta = _rate_arrays(self.rates[name].beta, self.rates[name].delta, N)
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
        # the one-piece series; kingman(150) runs in pieces (TestDeathPieces)
        n, t = 150, 0.5
        rates = BirthDeathRates.kingman_coalescent()
        beta, delta = _rate_arrays(rates.beta, rates.delta, n)
        w, _ = _poisson_weights(float(delta.max()) * t, 1e-13, n + 5)
        assert w[0] == 0.0 and w[-1] > 0.0
        v0 = np.zeros(n + 2)
        v0[n] = 1.0
        acc, tail = _bd_series(v0, beta, delta, t, 1e-13)
        ref, ref_tail = reference_bd_uniformize(v0, beta, delta, t, 1e-13)
        assert_same_bits(acc, ref)
        assert tail == ref_tail

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


def kingman_start(n):
    rates = BirthDeathRates.kingman_coalescent()
    beta, delta = _rate_arrays(rates.beta, rates.delta, n)
    v0 = np.zeros(n + 2)
    v0[n] = 1.0
    return v0, beta, delta


class TestUnderflowDrop:
    """The pure-death series against the frozen loop that drops nothing."""

    def test_kingman_bp_law_bit_identical(self):
        # the one-piece series from kingman(100)'s start
        n, t = 100, 0.5
        old, old_tail = reference_bd_uniformize_parent(*kingman_start(n), t, 1e-13)
        acc, tail = _bd_series(*kingman_start(n), t, 1e-13)
        assert_same_bits(acc[:-1], old[:-1])
        # the parent's tail_bound: input tail + escaped mass + series tail
        assert 0.0 + acc[-1] + tail == 0.0 + old[-1] + old_tail

    @pytest.mark.parametrize("n", [150, 300, 800])
    def test_kingman_moves_only_underflowed_entries(self, n):
        t = 0.5
        old, old_tail = reference_bd_uniformize_parent(*kingman_start(n), t, 1e-13)
        acc, tail = _bd_series(*kingman_start(n), t, 1e-13)
        differ = acc != old
        assert differ.any()
        assert (acc[differ] < 1e-290).all() and (old[differ] < 1e-290).all()
        assert tail == old_tail
        assert 0.0 + acc[-1] + tail == 0.0 + old[-1] + old_tail
        # each of the n + 1 states leaves at most once, below 2^-1022
        assert acc[-1] <= (n + 1) * 2.0**-1022

    def test_transition_escaped_mass_within_drop_bound(self):
        N = 64
        rates = BirthDeathRates.quadratic_death()
        beta, delta = _rate_arrays(rates.beta, rates.delta, N)
        acc, _ = _bd_uniformize(np.eye(N + 1, N + 2), beta, delta, 0.5, 1e-13)
        old, _ = reference_bd_uniformize_parent(np.eye(N + 1, N + 2), beta, delta, 0.5, 1e-13)
        assert acc[:, -1].any() and not old[:, -1].any()
        assert (acc[:, -1] <= (N + 1) * 2.0**-1022).all()

    def test_kingman_series_carries_few_subnormals(self, monkeypatch):
        # Subnormal operands cost microcode assists: counted, not timed.
        # The one series that drops nothing carries 2,796,700 of them over
        # 23,549 terms here; the pieces take 6,432 terms.
        n = 300
        counts = []
        series = bdchain._uniformized_series

        def counting(v0, step, lam_t, tol, min_terms):
            def counted(v, out):
                step(v, out)
                counts.append(np.count_nonzero((out > 0.0) & (out < 2.0**-1022)))

            return series(v0, counted, lam_t, tol, min_terms)

        monkeypatch.setattr(bdchain, "_uniformized_series", counting)
        kingman(n, True, 0.5)
        assert len(counts) == 6432
        assert sum(counts) < n


def reference_death_pieces(v0, beta_arr, delta_arr, t, tol):
    """The pure-death vector series in m + 1 time pieces of lengths t 2^-m,
    t 2^-m, t 2^(1-m), ..., t/2, m = floor(log2(lambda t / (8 (top + 5))))
    with top v0's highest nonzero state and lambda the largest out-rate of
    states 0..top.  Each piece is the frozen loop with drops, at tolerance
    tol / (m + 1), on states 0..top of the current law plus a fresh
    overflow column, whose mass is added to the law's.  Frozen."""
    top = np.flatnonzero(v0[:-1])[-1]
    lam = float((beta_arr + delta_arr)[: top + 1].max())
    m = int(np.floor(np.log2(lam * t / (8 * (top + 5)))))
    assert m >= 1
    v, tail = np.array(v0, dtype=float), 0.0
    for h in [t / 2**m] + [t / 2**k for k in range(m, 0, -1)]:
        top = np.flatnonzero(v[:-1])[-1]
        sub = np.append(v[: top + 1], 0.0)
        acc, piece_tail = reference_bd_uniformize(sub, beta_arr[: top + 1], delta_arr[: top + 1], h, tol / (m + 1))
        v[: top + 1] = acc[:-1]
        v[-1] = v[-1] + acc[-1]
        tail += piece_tail
    return v, tail


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


class TestDeathPieces:
    """The pure-death vector series in time pieces, each at its top live rate."""

    @pytest.mark.parametrize("n", [100, 150, 300, 800])
    def test_kingman_matches_piecewise_reference(self, n):
        ref, ref_tail = reference_death_pieces(*kingman_start(n), 0.5, 1e-13)
        ev = kingman(n, True, 0.5)
        coeffs = ev.poly.coeffs_float()  # trailing zeros trimmed
        assert_same_bits(coeffs, ref[: len(coeffs)])
        assert not ref[len(coeffs) : -1].any()
        assert ev.tail_bound == 0.0 + ref[-1] + ref_tail

    @pytest.mark.parametrize("n", [50, 68])
    def test_one_piece_below_the_split(self, n):
        one, one_tail = _bd_series(*kingman_start(n), 0.5, 1e-13)
        acc, tail = _bd_uniformize(*kingman_start(n), 0.5, 1e-13)
        assert_same_bits(acc, one)
        assert tail == one_tail

    def test_blocks_births_and_sign_bits_run_one_series(self):
        N = 150  # three pieces for its pure-death vector
        v0, beta, delta = kingman_start(N)
        signed = v0.copy()
        signed[0] = -0.0
        births = np.full(N + 1, 1e-3)
        for v, b in [(np.stack([v0, v0]), beta), (signed, beta), (v0, births)]:
            one, one_tail = _bd_series(v, b, delta, 0.5, 1e-13)
            acc, tail = _bd_uniformize(v, b, delta, 0.5, 1e-13)
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


def allocating(step):
    """step(v, out) as the allocating step(v) of reference_series."""

    def fresh(v):
        nxt = np.empty_like(v)
        step(v, nxt)
        return nxt

    return fresh


def stencil_step(shape, seed):
    """A two-diagonal step with random coefficients: like the birth-death
    step it writes out and reads v through slices."""
    rng = np.random.default_rng(seed)
    stay, up = rng.uniform(0.2, 0.8, shape[-1]), rng.uniform(0.1, 0.5, shape[-1] - 1)

    def step(v, out):
        np.multiply(v, stay, out=out)
        out[..., 1:] += v[..., :-1] * up

    return step


def signed_start(shape, seed):
    """Entries of both signs, with -0.0 and +0.0 among them."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(shape)
    v0.flat[::7] = -0.0
    v0.flat[3::11] = 0.0
    return v0


def chunk_cap(shape):
    return max(2, min(_CHUNK_TERMS, _CHUNK_SIZE // math.prod(shape)))


def assert_series_matches_reference(v0, step, lam_ts, tol, min_terms):
    sums = _uniformized_series(v0, step, lam_ts, tol, min_terms)
    assert len(sums) == len(lam_ts)
    for (acc, tail), lam_t in zip(sums, lam_ts):
        ref, ref_tail = reference_series(v0, allocating(step), lam_t, tol, min_terms)
        assert_same_bits(acc, ref)
        assert tail == ref_tail


# a vector (chunks of 32 terms), a block (chunks of 8) and a block whose
# chunk buffer runs in five column slabs (chunks of 2)
SHAPES = [(40,), (32, 64), (150, 300)]


class TestChunkedSeries:
    """The chunked kernel against the one-term-at-a-time reference_series,
    at the chunk boundaries and with several weightings per run."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("offset", ["1", "K-1", "K", "K+1", "2K+1"])
    def test_chunk_boundaries(self, shape, offset):
        K = chunk_cap(shape)
        J = {"1": 1, "K-1": K - 1, "K": K, "K+1": K + 1, "2K+1": 2 * K + 1}[offset]
        # tol = 1 stops the weights at min_terms, and lambda*t = 0.6 J
        # keeps the last ones large enough to move the sum's bits
        w, _ = _poisson_weights(0.6 * J, 1.0, J + 1)
        assert len(w) == J + 1 and w[1:].all()
        v0, step = signed_start(shape, J), stencil_step(shape, J)
        acc, tail = _uniformized_series(v0, step, 0.6 * J, 1.0, J)
        ref, ref_tail = reference_series(v0, allocating(step), 0.6 * J, 1.0, J)
        assert_same_bits(acc, ref)
        assert tail == ref_tail

    @pytest.mark.parametrize("shape", SHAPES[:2])
    def test_weights_that_start_at_zero(self, shape):
        # Kingman-like: w[0..70] underflow to 0 and index 71 is inside a chunk
        w, _ = _poisson_weights(1000.0, 1e-13, 5)
        first = int(np.flatnonzero(w)[0])
        assert first == 71 and first % chunk_cap(shape) > 1
        v0, step = signed_start(shape, 1), stencil_step(shape, 1)
        assert_series_matches_reference(v0, step, [1000.0], 1e-13, 4)

    def test_weights_that_end_at_zero(self):
        # min_terms past the underflow of the upper weights
        w, _ = _poisson_weights(1e-3, 1e-13, 121)
        assert w[-1] == 0.0 and w[1] > 0.0
        v0, step = signed_start((40,), 2), stencil_step((40,), 2)
        assert_series_matches_reference(v0, step, [1e-3], 1e-13, 120)

    @pytest.mark.parametrize("lam_t,min_terms", [(1000.0, 4), (1e-3, 120)])
    def test_zero_weights_leave_signed_zeros(self, lam_t, min_terms):
        # Entry 0 starts at -0.0 and is -0.0 in every term of positive
        # weight but +0.0 in one of weight 0, which must not be added.
        w, _ = _poisson_weights(lam_t, 1e-13, min_terms + 1)
        positive = np.flatnonzero(w)
        flip = 1 if positive[0] > 1 else positive[-1] + 1
        assert w[flip] == 0.0

        def sign_step():
            terms = []

            def step(v, out):
                terms.append(1)
                np.multiply(v, -1.0 if len(terms) in (flip, flip + 1) else 1.0, out=out)

            return step

        v0 = signed_start((40,), 5)
        v0[0] = -0.0
        acc, tail = _uniformized_series(v0, sign_step(), lam_t, 1e-13, min_terms)
        ref, ref_tail = reference_series(v0, allocating(sign_step()), lam_t, 1e-13, min_terms)
        assert np.signbit(ref[0])
        assert_same_bits(acc, ref)
        assert tail == ref_tail

    @pytest.mark.parametrize("shape", SHAPES)
    def test_several_weightings_share_the_terms(self, shape):
        lam_ts = [0.0, 2.0, 17.0, 40.0, 17.0, 1e-3]
        v0, step = signed_start(shape, 3), stencil_step(shape, 3)
        assert_series_matches_reference(v0, step, lam_ts, 1e-13, 3)

    def test_scalar_and_sequence_agree(self):
        v0, step = signed_start((40,), 4), stencil_step((40,), 4)
        acc, tail = _uniformized_series(v0, step, 7.5, 1e-13, 3)
        ((acc_seq, tail_seq),) = _uniformized_series(v0, step, [7.5], 1e-13, 3)
        assert_same_bits(acc, acc_seq)
        assert tail == tail_seq

    def test_every_mean_is_checked_before_any_term(self):
        calls = []
        with pytest.raises(InputRangeError):
            _uniformized_series(np.ones(3), lambda v, out: calls.append(1), [1.0, 2e7], 1e-13, 3)
        assert not calls

    @pytest.mark.parametrize("offset", [0, 1, 31, 32, 33, 65])
    def test_particle_step(self, monkeypatch, offset):
        system = SiteSystem(
            jump=np.array([[0.0, 0.7], [0.4, 0.0]]), birth=np.array([0.5, 0.2]), death=np.array([1.0, 0.6])
        )
        mu = Measure.product(Measure.bernoulli(0.3), Measure.bernoulli(0.6))
        captured = {}

        def capture(v0, step, lam_t, tol, min_terms):
            captured.update(v0=v0.copy(), step=step)
            return _uniformized_series(v0, step, lam_t, tol, min_terms)

        monkeypatch.setattr(particles, "_uniformized_series", capture)
        truncated_generator_evolve(mu, system, 0.4, box=(12, 12))
        v0, step = captured["v0"], captured["step"]
        assert chunk_cap(v0.shape) == 32
        J = max(offset, 1)
        w, _ = _poisson_weights(0.6 * J, 1.0, J + 1)
        assert len(w) == J + 1
        assert_series_matches_reference(v0, step, [0.6 * J, 3.0], 1.0, J)

    @pytest.mark.parametrize("block", [False, True])
    def test_birth_death_step_over_several_times(self, block):
        # the step's slice cache and the block drop schedule on a shared run
        N, ts = 24, [0.05, 0.7, 0.0, 0.3, 0.7]
        for rates in (BirthDeathRates.quadratic_death(1.3), BirthDeathRates.from_polynomial(0.9, 0.5, 0.3)):
            beta, delta = _rate_arrays(rates.beta, rates.delta, N)
            if block:
                v0 = np.eye(N + 1, N + 2)
            else:
                v0 = np.zeros(N + 2)
                v0[5:12] = np.arange(1.0, 8.0) / 28.0
            for (acc, tail), t in zip(_bd_series(v0, beta, delta, ts, 1e-13), ts):
                ref, ref_tail = reference_bd_uniformize(v0, beta, delta, t, 1e-13)
                assert_same_bits(acc, ref)
                assert tail == ref_tail


QUAD_DEATH_5 = BirthDeathRates.quadratic_death(5.0)
# from 11 at scale 5, t = 3 and 6 run in time pieces; -0.0 with births
PIECES_CASE = (Measure.point_mass(11), QUAD_DEATH_5, [3.0, 0.05, 0.0, 3.0, 6.0], None, 1e-13)
SIGNED_CASE = (
    Measure(np.array([0.5, -0.0, 0.5])), BirthDeathRates.from_polynomial(1.0, 0.5, 0.3), [1.0, 0.0, 0.5, 1.0], 4, 1e-12
)


@st.composite
def grid_cases(draw):
    """(mu, rates, times, N, tol): laws with -0.0 entries and tiny negative
    weights, pure death past the piece split, births whose first box
    grows with t, a fixed N, t = 0 and repeated times."""
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
    N = draw(st.one_of(st.none(), st.integers(max(size - 1, 0), size + 15)))
    tol = draw(st.sampled_from([1e-12, 1e-13]))
    return mu, rates, times, N, tol


class TestEvolveGrid:
    @given(grid_cases())
    @settings(max_examples=60, deadline=None)
    @example(PIECES_CASE)
    @example(SIGNED_CASE)
    def test_equals_evolve_per_time(self, case):
        mu, rates, times, N, tol = case
        grid = evolve_grid(mu, rates, times, tol=tol, N=N)
        assert len(grid) == len(times)
        for ev, t in zip(grid, times):
            one = evolve(mu, rates, t, tol=tol, N=N)
            assert ev.t is t
            assert_same_bits(np.array(ev.poly.coeffs), np.array(one.poly.coeffs))
            assert ev.tail_bound == one.tail_bound

    def test_pure_death_grid_runs_one_series_plus_pieces(self, monkeypatch):
        # from 11 at scale 5, t = 3 and 6 run in pieces and the rest share one run
        calls = []
        series = bdchain._uniformized_series

        def counting(v0, step, lam_t, tol, min_terms):
            calls.append(np.ndim(lam_t))
            return series(v0, step, lam_t, tol, min_terms)

        monkeypatch.setattr(bdchain, "_uniformized_series", counting)
        evolve_grid(Measure.point_mass(11), QUAD_DEATH_5, [0.05, 3.0, 0.5, 6.0])
        assert calls[0] == 1  # the shared run, for 0.05 and 0.5
        assert len(calls) > 3 and not any(calls[1:])  # one scalar run per piece

    def test_empty_grid(self):
        assert evolve_grid(Measure.point_mass(2), BirthDeathRates.quadratic_death(), []) == []

    def test_every_time_is_checked_first(self, monkeypatch):
        monkeypatch.setattr(bdchain, "_bd_uniformize", None)  # no series may run
        with pytest.raises(ValueError, match="t must be >= 0"):
            evolve_grid(Measure.point_mass(3), BirthDeathRates.quadratic_death(), [0.1, -1.0])
        with pytest.raises(InputRangeError):
            evolve_grid(Measure.point_mass(3), BirthDeathRates.quadratic_death(), [0.1, 1e7])


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

    def test_large_atom_decomposes(self):
        # the fit once divided by x^q, which is 0 in floats on its smallest
        # node from q = 327
        dec = bp_decompose(kingman(500, True, 1e-9).to_measure())
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

    @pytest.mark.parametrize("b0,d1", [(1.0, 0.5), (0.0, 0.7)])  # d1 alone drops underflow
    def test_chain1_propagators_share_one_series(self, b0, d1):
        N, h = 30, 0.5 / 16
        chain1 = BirthDeathRates.mm_infty(b0, d1)
        beta, delta = _rate_arrays(chain1.beta, chain1.delta, N)
        eye = np.eye(N + 1, N + 2)
        shared = _bd_uniformize(eye, beta, delta, [h / 2.0, h], _ROOT_LAW_TOL)
        for (acc, tail), dt in zip(shared, [h / 2.0, h]):
            one, one_tail = _bd_uniformize(eye, beta, delta, dt, _ROOT_LAW_TOL)
            assert_same_bits(acc, one)
            assert tail == one_tail

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
            transition(BirthDeathRates(lambda k: 1.0, lambda k: bad if k == 1 else 0.0), 0.5, 8)
        with pytest.raises(ValueError, match="rates must be finite"):
            lie_split_evolve(mu, bad, 1.0, 1.0, 0.5, 4)

    def test_rate_sums_past_the_float_range(self):
        # every rate is finite, but beta + delta overflows from state 1 on
        huge = BirthDeathRates.mm_infty(1e308, 1e308)
        mu = Measure.point_mass(1)
        for call in (
            lambda: evolve(mu, huge, 0.1),
            lambda: evolve(mu, huge, 0.1, N=3),
            lambda: transition(huge, 0.1, 3),
            lambda: generator(huge, 3),
        ):
            with pytest.raises(InputRangeError, match="rates must be finite"):
                call()

    cap_callers = {
        "transition": lambda: transition(BirthDeathRates.mm_infty(1.0, 1.0), 1e9, 3),
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
