"""Multi-site particle systems on finite site sets.

Order-1 systems (constant birth, linear death, linear jumps) admit an
exact generating-function transform: each particle moves independently
under a per-particle matrix exponential, so the PGF pulls back through an
affine substitution, while births contribute an exponential factor with
rates obtained from an augmented block-matrix exponential.  A product
state-space uniformizer and a Gillespie sampler serve as independent
cross-checks and also accept general per-site rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .bdchain import _uniformized_series
from .config import DEFAULT
from .measures import Measure
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
        if (jump < 0).any() or (birth < 0).any() or (death < 0).any():
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "jump": self.jump.tolist(),
            "birth": self.birth.tolist(),
            "death": self.death.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SiteSystem":
        return cls(
            jump=np.array(data["jump"], dtype=float),
            birth=np.array(data["birth"], dtype=float),
            death=np.array(data["death"], dtype=float),
        )


@dataclass(frozen=True)
class Configuration:
    counts: tuple

    def __post_init__(self):
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
    birth-vector integral of the semigroup, computed from the augmented
    block matrix [[G, I], [0, 0]].
    """
    if not system.is_order1:
        raise ValueError("exact transform requires order-1 rates")
    if isinstance(f, MultiPoly):
        f = PGFWithExpFactor(f, (0.0,) * f.nvars)
    n = system.n
    if f.nvars != n:
        raise ValueError("variable count does not match site count")
    G = _site_generator(system)
    M = expm(G * t)
    dead = 1.0 - M.sum(axis=1)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = G
    aug[:n, n:] = np.eye(n)
    A = expm(aug * t)[:n, n:]  # integral_0^t e^{G u} du
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
    acc, tail = _uniformized_series(v, UT.dot, lam * t, tol, min_terms=int(sum(box)) + 4)
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

    The stream is a counter-based Philox generator keyed by the seed, so
    disjoint seeds give independent reproducible streams.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return _gillespie_run(system, init, t, rng, max_events)


def _gillespie_run(system, init, t, rng, max_events):
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

    Each run gets its own Philox key (seed, run index); mass falling
    outside the box is recorded in tail_bound.
    """
    shape = tuple(int(b) + 1 for b in box)
    w = np.zeros(shape)
    outside = 0
    for r in range(samples):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, r + 1], dtype=np.uint64)))
        cfg = _gillespie_run(system, init, t, rng, max_events)
        if all(c < s for c, s in zip(cfg.counts, shape)):
            w[cfg.counts] += 1.0
        else:
            outside += 1
    w /= samples
    return Measure(w, tail_bound=outside / samples + 1e-12)
