"""Multi-site particle systems on finite site sets.

Order-1 systems (constant birth, linear death, linear jumps) admit an
exact generating-function transform: each particle moves independently
under a per-particle matrix exponential, so the PGF pulls back through an
affine substitution, while births contribute an exponential factor with
rates obtained from the same augmented block-matrix exponential.  A product
state-space uniformizer and a Gillespie sampler serve as independent
cross-checks and also accept general per-site rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import bdchain
from .bdchain import _check_time, _rate_arrays, _uniformized_series
from .config import DEFAULT
from .measures import InputRangeError, Measure, _check_count, _check_tol
from .polycore import MultiPoly

_MAX_EVENTS = 1_000_000  # events one Gillespie run may take before it gives up
# Doubles in one window of Gillespie uniforms, over all live runs, unless
# one block (4 doubles) per run is more.
_DRAW_WORDS = 2**14
# Philox4x64-10's multipliers, lanes 0 and 2, as 32-bit limbs, and its Weyl
# key increments (Salmon, Moraes, Dror & Shaw, SC 2011).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)[:, :, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)[:, :, None]


@dataclass(frozen=True)
class SiteSystem:
    """Per-particle jump rates plus per-site birth/death parameters.

    jump[i][j] is the rate at which one particle at site i jumps to j
    (diagonal ignored).  birth[i] and death[i] are the order-1 reaction
    parameters: birth at constant rate birth[i], death at rate
    death[i] * occupancy.  Supplying birth_fn/death_fn (site, count) -> rate
    makes the system general; only the simulator and the truncated
    uniformizer accept those.
    """

    jump: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    birth_fn: Callable[[int, int], float] | None = None
    death_fn: Callable[[int, int], float] | None = None

    def __post_init__(self):
        jump = np.asarray(self.jump, dtype=float)
        birth = np.asarray(self.birth, dtype=float)
        death = np.asarray(self.death, dtype=float)
        object.__setattr__(self, "jump", jump)
        object.__setattr__(self, "birth", birth)
        object.__setattr__(self, "death", death)
        n = jump.shape[0]
        if jump.shape != (n, n) or birth.shape != (n,) or death.shape != (n,):
            raise ValueError("inconsistent system dimensions")
        # site i as a chain on {0, 1}: births at birth[i], and its one
        # particle leaves at rate sum_(j != i) jump[i, j] + death[i]
        for i, (b, row) in enumerate(zip(birth.tolist(), jump.tolist())):
            out = sum(row[:i] + row[i + 1 :], death[i].item())
            _rate_arrays(lambda k: b, lambda k: k * out, 1)
        if (jump[~np.eye(n, dtype=bool)] < 0).any() or (death < 0).any():
            raise ValueError("rates must be nonnegative")

    @property
    def n(self) -> int:
        return self.jump.shape[0]

    @property
    def is_order1(self) -> bool:
        return self.birth_fn is None and self.death_fn is None

    def birth_rate(self, i: int, k: int) -> float:
        return self.birth_fn(i, k) if self.birth_fn else float(self.birth[i])

    def death_rate(self, i: int, k: int) -> float:
        return self.death_fn(i, k) if self.death_fn else float(self.death[i]) * k


def _box_shape(box: Sequence[int], n: int) -> tuple:
    """The array shape of a box of top counts, one per site of n, each an
    integral value >= 0 and not a bool; checked before anything is sized
    by the box."""
    if len(box) != n:
        raise ValueError("box length does not match site count")
    ok = (not isinstance(b, (bool, np.bool_)) and b >= 0 and float(b).is_integer() for b in box)
    if not all(ok):
        raise ValueError("box entries must be integers >= 0")
    return tuple(int(b) + 1 for b in box)


def _site_rates(system: SiteSystem, tops: Sequence[int], first: int, peaks: list) -> list:
    """Birth and death rates, a (2, tops[i] + 1 - first) array per site i,
    of counts first..tops[i] as _rate_arrays checks them.  peaks[i] rises
    to the largest beta + delta + k * (jump rate out of i) over those counts;
    the sum of the peaks, in Python floats where an overflow is inf, bounds
    every out-rate of the states covered and must be finite."""
    rates = []
    for i, (top, row) in enumerate(zip(tops, system.jump.tolist())):
        beta, delta = partial(system.birth_rate, i), partial(system.death_rate, i)
        rate = np.array(_rate_arrays(beta, delta, top, first))
        J = sum(row[:i] + row[i + 1 :])
        out = (b + d + k * J for k, (b, d) in enumerate(rate.T.tolist(), first))
        peaks[i] = max(peaks[i], *out)
        rates.append(rate)
    if not math.isfinite(sum(peaks)):
        raise InputRangeError("rates must be finite")
    return rates


@dataclass(frozen=True)
class Configuration:
    counts: tuple

    def __post_init__(self):
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in self.counts):
            raise ValueError("occupancies must be integers")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative occupancy")


def single_jump_transform(f: MultiPoly, i: int, j: int, p: float) -> MultiPoly:
    """Substitute x_i <- p*x_j + (1-p)*x_i: each particle at i moved to j
    independently with probability p."""
    if i == j:
        raise ValueError("source and target sites must differ")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0,1]")
    mat = [[int(k == m) for m in range(f.nvars)] for k in range(f.nvars)]
    mat[i][i], mat[i][j] = 1 - p, p
    return f.compose_affine([0] * f.nvars, mat)


@dataclass(frozen=True)
class PGFWithExpFactor:
    """poly(x) * prod_i exp(exp_rates[i] * (x_i - 1)), each rate finite >= 0."""

    poly: MultiPoly
    exp_rates: tuple

    def __post_init__(self):
        if len(self.exp_rates) != self.nvars or not all(math.isfinite(r) and r >= 0 for r in self.exp_rates):
            raise ValueError(f"exp_rates must be one finite rate >= 0 per variable: {self.exp_rates}")

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def __call__(self, point: Sequence) -> complex:
        val = self.poly(point)
        for lam, x in zip(self.exp_rates, point):
            val *= np.exp(lam * (x - 1.0))
        return val

    def to_measure(self, box: Sequence[int]) -> Measure:
        """Expand onto a finite box: the polynomial part convolved with an
        independent truncated Poisson per coordinate."""
        shape = _box_shape(box, self.nvars)
        w = np.zeros(shape)
        for alpha, c in self.poly.terms:
            if all(a < s for a, s in zip(alpha, shape)):
                w[alpha] += float(c)
        w = np.maximum(w, 0.0)
        for axis, lam in enumerate(self.exp_rates):
            if lam == 0.0:
                continue
            pois = Measure.poisson(float(lam), box=shape[axis] - 1).weights
            w = np.apply_along_axis(lambda col: np.convolve(col, pois)[: shape[axis]], axis, w)
        return Measure(w, tail_bound=max(0.0, 1.0 - float(w.sum())))


def _order1_blocks(system: SiteSystem, t: float):
    """e^{tG}, integral_0^t e^{uG} du and the death probabilities by t of
    the per-particle generator G: the top blocks of e^{tB}, B = [[G, I, d],
    [0, 0, 0], [0, 0, 0]], d the death rates (Van Loan, IEEE TAC 23(3),
    1978).  The series runs B's site rows, uniformized at the largest
    out-rate lambda, with n integral columns fed at rate 1/lambda and the
    dead state as the absorbing column, at h = t 2^-k, k = _halvings(lambda
    t, n), and tolerance 1e-15; the other rows of e^{hB} are the identity's,
    and the matrix is squared k times.  All rates 0 give I and t I at once.

    A term j row has mass 1 on the sites and dead state, as the kernel
    needs, but up to j/lambda on the integral, whose sum is at most h.  As
    j P(X = j) = lambda h P(X = j - 1), X ~ Poisson(lambda h), the integral
    misses at most h (tail + P(X = J)), tail the kernel's bound and J its
    last term: an error relative to h.  Squaring [[M, A, c], [0, I, 0],
    [0, 0, 1]] at time s gives the integral M A + A; with M within e and A
    within s a, that is within 2s (a + e/2) to first order, so relative to
    its time the integral's error grows like the sites'.
    """
    n = system.n
    J = np.array(system.jump)
    np.fill_diagonal(J, 0.0)
    outflow = J.sum(axis=1) + system.death
    lam = float(outflow.max())
    if lam == 0.0:
        return np.eye(n), t * np.eye(n), np.zeros(n)
    if not math.isfinite(lam * t):
        raise InputRangeError("lambda*t overflows the float range")
    S = np.eye(2 * n + 1)  # the one-jump matrix I + B/lambda
    S[:n, :n] = J / lam + np.diag(1.0 - outflow / lam)
    S[:n, n:] = np.hstack([np.eye(n), system.death[:, None]]) / lam
    k = bdchain._halvings(lam * t, n)
    [(rows, _)] = _uniformized_series(
        np.eye(n, 2 * n + 1), lambda v, out: np.matmul(v, S, out=out), [lam * math.ldexp(t, -k)], 1e-15, n + 4
    )
    P = np.vstack([rows, np.eye(n + 1, 2 * n + 1, n)])
    for _ in range(k):
        P = P @ P
    return P[:n, :n], P[:n, n : 2 * n], P[:n, 2 * n]


def exact_pgf_transform(
    f: MultiPoly | PGFWithExpFactor, system: SiteSystem, t: float
) -> PGFWithExpFactor:
    """Closed-form image of a PGF under an order-1 system for time t.

    Each variable is substituted by the affine per-particle transition
    s_i(t) = P(dead by t | i) + sum_j P(at j at t | i) x_j, and constant
    births multiply in an exponential factor whose rates are the
    birth-vector integral of the semigroup, from _order1_blocks.
    """
    if not system.is_order1:
        raise ValueError("exact transform requires order-1 rates")
    _check_time(t)
    if isinstance(f, MultiPoly):
        f = PGFWithExpFactor(f, (0.0,) * f.nvars)
    n = system.n
    if f.nvars != n:
        raise ValueError("variable count does not match site count")
    M, A, dead = _order1_blocks(system, t)
    lam_new = system.birth @ A
    lam_through = np.asarray(f.exp_rates, dtype=float) @ M
    poly = f.poly.compose_affine(list(dead), M.tolist())
    return PGFWithExpFactor(poly, tuple(lam_through + lam_new))


def truncated_generator_evolve(
    mu: Measure,
    system: SiteSystem,
    t: float,
    box: Sequence[int] | None = None,
    tol: float = DEFAULT.uniformization_tol,
) -> Measure:
    """Uniformization on the product state space with an absorbing overflow.

    Accepts general per-site rates; the escaping-mass bound, with the start
    law's mass outside the box, lands in the result's tail_bound.  An escape
    above tol means the box is too small and raises instead of silently
    degrading.
    """
    _check_tol(tol)
    _check_time(t)
    n = system.n
    if mu.ndim != n:
        raise ValueError(f"law has {mu.ndim} coordinates, system has {n} sites")
    if box is None:
        box = tuple(s - 1 for s in mu.shape)
    shape = _box_shape(box, n)
    S = math.prod(shape)
    # States are numbered in C order, so each move kind is one flat shift:
    # +-stride[i] for a birth or death at site i, stride[j] - stride[i] for
    # a jump i -> j.  Its rate is kept as 0 where the move leaves the box
    # and added to `leave` instead, the rate into the overflow state S.
    occ = np.indices(shape).reshape(n, S)
    stride = [S // math.prod(shape[: i + 1]) for i in range(n)]
    top = occ == np.array(shape)[:, None] - 1
    out_rate, leave, passes, part = np.zeros(S), np.zeros(S), [], np.empty(S)
    for i, (birth, death) in enumerate(_site_rates(system, [s - 1 for s in shape], 0, [0.0] * n)):
        k = occ[i]
        jumps = [(stride[j] - stride[i], top[j], float(system.jump[i, j]) * k) for j in range(n) if j != i]
        for shift, off, rate in [(stride[i], top[i], birth[k]), (-stride[i], k == 0, death[k]), *jumps]:
            out_rate += rate
            leave[off] += rate[off]
            rate[off] = 0.0
            if rate.any():
                lo, hi = max(0, -shift), S - max(0, shift)
                passes.append((slice(lo, hi), slice(lo + shift, hi + shift), rate[lo:hi], part[: hi - lo]))

    lam = float(out_rate.max())
    v = np.zeros(S + 1)
    inside = tuple(slice(0, min(a, b)) for a, b in zip(mu.shape, shape))
    v[:S].reshape(shape)[inside] = mu.weights[inside]
    outside = np.abs(mu.weights)
    outside[inside] = 0.0
    step = None
    if lam > 0.0:
        # one term: out = v stay, plus one shifted product per move kind, and
        # the overflow entry v[S] + v[:S] @ leave
        stay = np.append(np.maximum(1.0 - out_rate / lam, 0.0), 1.0)
        leave /= lam
        for _, _, chance, _ in passes:
            chance /= lam

        def step(v, out):
            np.multiply(v, stay, out=out)
            for src, dst, chance, moved in passes:
                np.multiply(v[src], chance, out=moved)
                out[dst] += moved
            out[S] += v[:S] @ leave

    [(acc, tail)] = _uniformized_series(v, step, [lam * t], tol, min_terms=int(sum(box)) + 4)
    escaped = float(acc[S]) + float(outside.sum())
    if escaped > tol:
        raise ValueError(f"box too small for tolerance: escaped mass {escaped:.3e} > {tol:.1e}")
    w = np.maximum(acc[:S], 0.0).reshape(shape)
    return Measure(w, tail_bound=mu.tail_bound + escaped + tail)


def gillespie_sample(
    system: SiteSystem, init: Configuration, t: float, seed: int
) -> Configuration:
    """Exact-jump simulation to time t, reproducible per seed.

    The stream is a counter-based Philox generator keyed by (seed, 0), so
    disjoint seeds give independent reproducible streams.
    """
    final = _gillespie_runs(system, init, t, seed, np.zeros(1, dtype=np.uint64), _MAX_EVENTS)
    return Configuration(tuple(final[0].tolist()))


def _philox_uniforms(seed, keys, first, count):
    """Doubles of the Philox4x64-10 blocks first .. first + count - 1 under
    the key (seed, k), one row of 4 * count per k in the uint64 array keys.

    Row k is bit for bit what Generator(Philox(key=[seed, k])).random()
    draws from those blocks: numpy computes block b from the counter
    (b, 0, 0, 0), and a double is (word >> 11) * 2**-53.  The 128-bit
    products of a round are built from 32-bit limbs; lanes 0 and 2 of the
    counter are held in x, lanes 1 and 3 in y, both (2, len(keys), count).
    """
    key = np.empty((2, len(keys), 1), dtype=np.uint64)
    key[0], key[1, :, 0] = seed, keys
    x = np.zeros((2, len(keys), count), dtype=np.uint64)
    x[0] = np.arange(first, first + count, dtype=np.uint64)
    y = np.zeros_like(x)
    for _ in range(10):
        lo, xl, xh = _PHILOX_M * x, x & 0xFFFFFFFF, x >> 32  # uint64 arrays wrap silently
        ll, hl = _PHILOX_M_LO * xl, _PHILOX_M_HI * xl
        mid = _PHILOX_M_LO * xh + (ll >> 32)  # below 2**64, as is the next sum
        hl += mid & 0xFFFFFFFF
        hi = _PHILOX_M_HI * xh + (mid >> 32) + (hl >> 32)
        # the next counter, lanes 0-3: hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
        key += _PHILOX_W
    words = np.stack((x[0], y[0], x[1], y[1]), axis=2).reshape(len(keys), 4 * count)
    return (words >> 11) * 2.0**-53


def _gillespie_runs(system, init, t, seed, keys, max_events):
    """Final counts, one row per run, of runs keyed (seed, keys[r]).

    All runs advance together, one event per step.  Each run takes two
    uniforms per event from its own Philox stream (the waiting time, then
    the choice) and one for the step that passes t: step s reads words
    2 (s mod 2) and 2 (s mod 2) + 1 of block s // 2 + 1.  The uniforms come
    in windows of blocks, computed by _philox_uniforms for all live runs at
    once; each window starts where the last one ended.  The first holds 3
    blocks and each next one 4 times as many as the last, at most
    max(1, _DRAW_WORDS // (4 * live runs)) and none past the blocks that
    max_events can use.  The rates of a run sit in a fixed column order,
    per site birth, death, then jumps i -> j for j != i, and are summed by
    a row-wise cumsum in that order, so every run draws, sums and ends
    exactly as it would if simulated alone.
    """
    n = system.n
    if len(init.counts) != n:
        raise ValueError("configuration length does not match site count")
    _check_time(t)
    seed = _check_count(seed, "seed", low=0)
    if seed >= 2**64:  # the Philox key word is 64 bits
        raise ValueError("seed must be < 2**64")

    eye, off = np.eye(n, dtype=np.int64), ~np.eye(n, dtype=bool)
    # Change of the counts for each rate column's event.
    move = np.concatenate([np.vstack([eye[i], -eye[i], eye[off[i]] - eye[i]]) for i in range(n)])
    jump = system.jump[off].reshape(n, n - 1)
    # (birth, death) rate of each site at each count up to the largest met so far
    table, peaks = np.empty((n, 0, 2)), [0.0] * n
    sites = np.arange(n)
    final = np.empty((len(keys), n), dtype=np.int64)
    run, now = np.arange(len(keys)), np.zeros(len(keys))
    counts = np.tile(np.asarray(init.counts, dtype=np.int64), (len(keys), 1))
    U, base, size = np.empty((len(keys), 0)), 0, 3  # U[:, j] is word base + j of each stream
    for step in range(max_events):
        top = int(counts.max())
        if top >= table.shape[1]:
            new = np.stack(_site_rates(system, [top] * n, table.shape[1], peaks)).transpose(0, 2, 1)
            table = np.concatenate([table, new], axis=1)
        acc = np.concatenate([table[sites, counts], counts[:, :, None] * jump], axis=2)
        acc = acc.reshape(len(run), -1)
        pos = acc > 0  # a run alone skips the other rates
        acc[~pos] = 0.0
        total = np.cumsum(acc, axis=1, out=acc)[:, -1]  # running sums, in place
        j = 2 * step - base
        if j == U.shape[1]:  # used up: the next window starts where this one ended
            cap = max(1, _DRAW_WORDS // (4 * len(run)))
            size = min(size, cap, (max_events + 1) // 2 - step // 2)
            U, base, j = _philox_uniforms(seed, keys[run], step // 2 + 1, size), 2 * step, 0
            size *= 4
        live = total > 0
        # math.log, as a run alone takes it: np.log can differ in the last bit.
        logs = np.fromiter(map(math.log, U[live, j].tolist()), float, int(live.sum()))
        now[live] += -logs / total[live]
        go = live & (now < t)
        hit = ((U[:, j + 1] * total)[:, None] <= acc) & pos
        col = hit.argmax(axis=1)
        took = go & hit[np.arange(len(run)), col]
        counts[took] += move[col[took]]
        del acc, pos, total, hit  # free them before the next step builds its own
        if not go.all():
            final[run[~go]] = counts[~go]
            run, counts, now, U = run[go], counts[go], now[go], U[go]
            if not len(run):
                return final
    raise RuntimeError("event-count cap exceeded")


def gillespie_empirical(
    system: SiteSystem, init: Configuration, t: float, samples: int, seed: int, box: Sequence[int]
) -> Measure:
    """Empirical law of the configuration at time t over `samples` runs.

    Run r (r = 0 .. samples - 1) gets its own Philox key (seed, r + 1);
    mass falling outside the box is recorded in tail_bound.
    """
    samples = _check_count(samples, "samples")
    shape = _box_shape(box, system.n)
    keys = np.arange(1, samples + 1, dtype=np.uint64)
    final = _gillespie_runs(system, init, t, seed, keys, _MAX_EVENTS)
    inside = (final < shape).all(axis=1)
    w = np.bincount(np.ravel_multi_index(final[inside].T, shape), minlength=math.prod(shape))
    w = w.reshape(shape) / samples
    return Measure(w, tail_bound=int(samples - inside.sum()) / samples + 1e-12)
