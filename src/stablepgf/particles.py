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
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .bdchain import _check_rates, _check_time, _uniformized_series
from .config import DEFAULT
from .measures import Measure, _check_tol
from .polycore import MultiPoly


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
        _check_rates(jump, birth, death)

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


@dataclass(frozen=True)
class Configuration:
    counts: tuple

    def __post_init__(self):
        if not all(isinstance(c, (int, np.integer)) for c in self.counts):
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
    """poly(x) * prod_i exp(exp_rates[i] * (x_i - 1))."""

    poly: MultiPoly
    exp_rates: tuple

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
        n = self.nvars
        shape = tuple(int(b) + 1 for b in box)
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


def _site_generator(system: SiteSystem) -> np.ndarray:
    """Per-particle substochastic generator on the site set (death exits)."""
    G = np.array(system.jump, dtype=float)
    np.fill_diagonal(G, 0.0)
    for i in range(system.n):
        G[i, i] = -(G[i].sum() + system.death[i])
    return G


def exact_pgf_transform(
    f: MultiPoly | PGFWithExpFactor, system: SiteSystem, t: float
) -> PGFWithExpFactor:
    """Closed-form image of a PGF under an order-1 system for time t.

    Each variable is substituted by the affine per-particle transition
    s_i(t) = P(dead by t | i) + sum_j P(at j at t | i) x_j, and constant
    births multiply in an exponential factor whose rates are the
    birth-vector integral of the semigroup; the top blocks of the
    exponential of [[G, I], [0, 0]] t are e^{Gt} and that integral.
    """
    if not system.is_order1:
        raise ValueError("exact transform requires order-1 rates")
    _check_time(t)
    if isinstance(f, MultiPoly):
        f = PGFWithExpFactor(f, (0.0,) * f.nvars)
    n = system.n
    if f.nvars != n:
        raise ValueError("variable count does not match site count")
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = _site_generator(system)
    aug[:n, n:] = np.eye(n)
    M, A = np.hsplit(expm(aug * t)[:n], 2)  # e^{Gt} and integral_0^t e^{G u} du
    dead = 1.0 - M.sum(axis=1)
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

    Accepts general per-site rates; the escaping-mass bound lands in the
    result's tail_bound.  An escape above tol means the box is too small
    and raises instead of silently degrading.
    """
    _check_tol(tol)
    _check_time(t)
    if box is None:
        box = tuple(s - 1 for s in mu.shape)
    shape = tuple(int(b) + 1 for b in box)
    n = system.n
    S = math.prod(shape)
    OVER = S
    # States are numbered in C order; a move that leaves the box lands in
    # the absorbing overflow state S.
    occ = np.indices(shape).reshape(n, S)
    stride = [S // math.prod(shape[: i + 1]) for i in range(n)]
    state = np.arange(S)
    moves = []  # (target, rate) over all source states, one array pair per move kind
    for i in range(n):
        k = occ[i]
        birth = np.array([system.birth_rate(i, m) for m in range(shape[i])])
        death = np.array([system.death_rate(i, m) for m in range(shape[i])])
        _check_rates(birth, death)
        if death[0] > 0:
            raise ValueError(f"death rate at empty site {i} must be 0")
        moves.append((np.where(k < shape[i] - 1, state + stride[i], OVER), birth[k]))
        moves.append((state - stride[i], death[k]))
        for j in range(n):
            if j != i:
                into = np.where(occ[j] < shape[j] - 1, state - stride[i] + stride[j], OVER)
                moves.append((into, float(system.jump[i, j]) * k))
    src = np.tile(state, len(moves))
    tgt = np.concatenate([to for to, _ in moves])
    rate = np.concatenate([r for _, r in moves])
    keep = rate > 0
    src, tgt, rate = src[keep], tgt[keep], rate[keep]
    out_rate = np.bincount(src, weights=rate, minlength=S)

    lam = float(out_rate.max())
    v = np.zeros(S + 1)
    inside = tuple(slice(0, min(a, b)) for a, b in zip(mu.shape, shape))
    v[:S].reshape(shape)[inside] = mu.weights[inside]
    if lam <= 0.0:
        return Measure(v[:S].reshape(shape), tail_bound=mu.tail_bound)

    # Imported on first use: no other path needs it, and the import costs
    # every process about 20 ms and 2 MB.
    from scipy import sparse

    # Transposed one-jump matrix, so that one term of the series is one
    # CSR matrix-vector product: row b, column a holds the chance of a -> b.
    every = np.arange(S + 1)
    stay = np.append(np.maximum(1.0 - out_rate / lam, 0.0), 1.0)
    UT = sparse.csr_matrix(
        (np.append(stay, rate / lam), (np.append(every, tgt), np.append(every, src))),
        shape=(S + 1, S + 1),
    )

    def step(v, out):
        np.copyto(out, UT.dot(v))

    acc, tail = _uniformized_series(v, step, lam * t, tol, min_terms=int(sum(box)) + 4)
    escaped = float(acc[OVER])
    if escaped > tol:
        raise ValueError(f"box too small for tolerance: escaped mass {escaped:.3e} > {tol:.1e}")
    w = np.maximum(acc[:S], 0.0).reshape(shape)
    return Measure(w, tail_bound=mu.tail_bound + escaped + tail)


def gillespie_sample(
    system: SiteSystem,
    init: Configuration,
    t: float,
    seed: int,
    max_events: int = 1_000_000,
) -> Configuration:
    """Exact-jump simulation to time t, reproducible per seed.

    The stream is a counter-based Philox generator keyed by (seed, 0), so
    disjoint seeds give independent reproducible streams.
    """
    final = _gillespie_runs(system, init, t, seed, np.zeros(1, dtype=np.uint64), max_events)
    return Configuration(tuple(final[0].tolist()))


def _gillespie_runs(system, init, t, seed, keys, max_events):
    """Final counts, one row per run, of runs keyed (seed, keys[r]).

    All runs advance together, one event per step.  Each run takes two
    uniforms per event from its own Philox stream (the waiting time, then
    the choice) and one for the step that passes t.  The rates of a run
    sit in a fixed column order, per site birth, death, then jumps i -> j
    for j != i, and are summed by a row-wise cumsum in that order, so every
    run draws, sums and ends exactly as it would if simulated alone.
    """
    n = system.n
    if len(init.counts) != n:
        raise ValueError("configuration length does not match site count")
    _check_time(t)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen, state = np.random.Generator(bits), bits.state  # counter 0, empty buffer

    def blocks(run, width):
        # The first `width` uniforms of each run's stream.
        U = np.empty((len(run), width))
        for out, key in zip(U, keys[run].tolist()):
            state["state"]["key"][1] = key
            bits.state = state
            gen.random(out=out)
        return U

    eye, off = np.eye(n, dtype=np.int64), ~np.eye(n, dtype=bool)
    # Change of the counts for each rate column's event.
    move = np.concatenate([np.vstack([eye[i], -eye[i], eye[off[i]] - eye[i]]) for i in range(n)])
    jump = system.jump[off].reshape(n, n - 1)
    table = np.full((n, 0, 2), np.nan)  # (birth, death) rate of each (site, count) met so far
    sites = np.arange(n)
    final = np.empty((len(keys), n), dtype=np.int64)
    run, now = np.arange(len(keys)), np.zeros(len(keys))
    counts = np.tile(np.asarray(init.counts, dtype=np.int64), (len(keys), 1))
    U, row = blocks(run, 12), run  # row: each live run's row of U
    for step in range(max_events):
        if counts.max() >= table.shape[1]:
            table = np.concatenate([table, np.full((n, counts.max() + 1, 2), np.nan)], axis=1)
        for i in range(n):
            for k in np.unique(counts[np.isnan(table[i, counts[:, i], 0]), i]).tolist():
                rate = np.array([system.birth_rate(i, k), system.death_rate(i, k)], dtype=float)
                _check_rates(rate)
                table[i, k] = rate
                if k == 0 and rate[1] > 0:
                    raise ValueError(f"death rate at empty site {i} must be 0")
        acc = np.concatenate([table[sites, counts], counts[:, :, None] * jump], axis=2)
        acc = acc.reshape(len(run), -1)
        pos = acc > 0  # a run alone skips the other rates
        acc[~pos] = 0.0
        total = np.cumsum(acc, axis=1, out=acc)[:, -1]  # running sums, in place
        if 2 * step + 2 > U.shape[1]:
            # same keys: the longer block starts with the old one
            U, row = blocks(run, 4 * U.shape[1]), np.arange(len(run))
        live = total > 0
        # math.log, as a run alone takes it: np.log can differ in the last bit.
        logs = np.fromiter(map(math.log, U[row[live], 2 * step].tolist()), float, int(live.sum()))
        now[live] += -logs / total[live]
        go = live & (now < t)
        hit = ((U[row, 2 * step + 1] * total)[:, None] <= acc) & pos
        col = hit.argmax(axis=1)
        took = go & hit[np.arange(len(run)), col]
        counts[took] += move[col[took]]
        del acc, pos, total, hit  # free them before the next step builds its own
        final[run[~go]] = counts[~go]
        run, row, counts, now = run[go], row[go], counts[go], now[go]
        if not len(run):
            return final
    raise RuntimeError("event-count cap exceeded")


def gillespie_empirical(
    system: SiteSystem,
    init: Configuration,
    t: float,
    samples: int,
    seed: int,
    box: Sequence[int],
    max_events: int = 1_000_000,
) -> Measure:
    """Empirical law of the configuration at time t over `samples` runs.

    Run r (r = 0 .. samples - 1) gets its own Philox key (seed, r + 1);
    mass falling outside the box is recorded in tail_bound.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(box) != system.n:
        raise ValueError("box length does not match site count")
    shape = tuple(int(b) + 1 for b in box)
    keys = np.arange(1, samples + 1, dtype=np.uint64)
    final = _gillespie_runs(system, init, t, seed, keys, max_events)
    inside = (final < shape).all(axis=1)
    w = np.bincount(np.ravel_multi_index(final[inside].T, shape), minlength=math.prod(shape))
    w = w.reshape(shape) / samples
    return Measure(w, tail_bound=int(samples - inside.sum()) / samples + 1e-12)
