"""Birth-death chain semigroups on truncated state spaces.

Transition operators are built by uniformization of the truncated
generator; an absorbing overflow state above the box converts boundary
clamping into a certified escaping-mass bound, so every evolved law comes
with an explicit tail_bound.  On top of the semigroup sit the root-law
probes: evolution of real-rooted generating functions under quadratic
death rates, the double-root counterexample, the constant-birth necessity
probe, Wright-Fisher residuals, cluster-splitting asymptotics, and the
Lie splitting of the combined constant-birth/linear/quadratic-death chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT
from .measures import Measure, _check_tol, _poisson_weights
from .polycore import (
    UniPoly,
    hermite_sum_form,
    quadratic_death_cluster_poly,
    real_roots,
)
from .stability import StabilityCertificate, is_real_rooted, tstable_approximant

# Fixed truncation tolerances of the probes: kingman and the backward and
# Wright-Fisher residuals use _PROBE_TOL, the root-law probes and the Lie
# split the finer _ROOT_LAW_TOL.
_PROBE_TOL = 1e-13
_ROOT_LAW_TOL = 1e-14


@dataclass(frozen=True)
class BirthDeathRates:
    """Birth rates beta(k) and death rates delta(k) with delta(0) = 0."""

    beta: Callable[[int], float]
    delta: Callable[[int], float]

    def __post_init__(self):
        if self.delta(0) != 0.0:
            raise ValueError("delta(0) must be 0")

    @classmethod
    def from_polynomial(cls, b0: float, d1: float, d2: float) -> "BirthDeathRates":
        """Constant birth b0 with death d1*k + d2*k*(k-1)."""
        _check_finite(b0, d1, d2)
        return cls(beta=lambda k: b0, delta=lambda k: d1 * k + d2 * k * (k - 1))

    @classmethod
    def quadratic_death(cls, scale: float = 1.0) -> "BirthDeathRates":
        _check_finite(scale)
        return cls(beta=lambda k: 0.0, delta=lambda k: scale * k * (k - 1))

    @classmethod
    def kingman_coalescent(cls) -> "BirthDeathRates":
        return cls(beta=lambda k: 0.0, delta=lambda k: k * (k - 1) / 2.0)

    @classmethod
    def mm_infty(cls, b: float, d: float) -> "BirthDeathRates":
        _check_finite(b, d)
        return cls(beta=lambda k: b, delta=lambda k: d * k)

    @classmethod
    def from_sequences(
        cls, betas: Sequence[float], deltas: Sequence[float] = (), beta_rest: float | None = None
    ) -> "BirthDeathRates":
        """Rates given by head sequences; beyond them beta continues with
        beta_rest (default: last entry) and delta with 0."""
        betas = [float(b) for b in betas]
        deltas = [float(d) for d in deltas]
        fill = betas[-1] if beta_rest is None and betas else (beta_rest or 0.0)

        def beta(k: int) -> float:
            return betas[k] if k < len(betas) else fill

        def delta(k: int) -> float:
            return deltas[k] if k < len(deltas) else 0.0

        return cls(beta=beta, delta=delta)


def _check_finite(*params: float) -> None:
    # Before the rates exist: delta(0) of a NaN parameter would be NaN.
    if not all(map(math.isfinite, params)):
        raise ValueError("rates must be finite")


@dataclass(frozen=True)
class TruncatedSemigroup:
    """Transition probabilities p_t(j,k) on {0..N} with certified loss.

    Rows are sub-stochastic: the deficit of each row from 1 is mass that
    reached the absorbing overflow state (or lay beyond the series cutoff)
    and is covered by trunc_error.
    """

    N: int
    t: float
    matrix: np.ndarray
    trunc_error: float


@dataclass(frozen=True)
class EvolvedPGF:
    """Coefficients of the generating function at time t on {0..N}."""

    poly: UniPoly
    t: float
    tail_bound: float

    def to_measure(self) -> Measure:
        return Measure(np.maximum(self.poly.coeffs_float(), 0.0), tail_bound=self.tail_bound)

    def certificate(self) -> StabilityCertificate:
        return is_real_rooted(self.poly, coeff_perturb=self.tail_bound)


def generator(rates: BirthDeathRates, N: int) -> np.ndarray:
    """Tridiagonal generator on {0..N} with the birth rate clamped at N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    beta_arr, delta_arr = _rate_arrays(rates, N)
    beta_arr[N] = 0.0
    return np.diag(beta_arr[:-1], 1) + np.diag(delta_arr[1:], -1) - np.diag(beta_arr + delta_arr)


def _uniformized_series(v0: np.ndarray, step: Callable, lam_t: float, tol: float, min_terms: int):
    """Poisson-weighted series sum_j P(Poisson(lam_t) = j) v0 S^j; returns (acc, tail).

    v0 is one row vector or a block of row vectors over the truncated
    states plus an absorbing overflow state in the last column, and
    step(v, out) writes v S, the one-jump operator S of the uniformized
    chain applied to every row of v, into out, a buffer of v's shape that
    it must not read.  The series owns two such buffers and swaps them
    after each term, and adds each term as fl(acc + fl(w_j v)) through a
    third one, so no term allocates.  The last column of acc is then the
    certified mass that left the box, and `tail` bounds the l1 error of
    the Poisson weights, series tail included.  The series runs to at
    least min_terms, since mass-wise it may converge long before rare
    states receive their leading-order term (paths of length up to the box
    size); where it stops depends on lam_t, tol and min_terms only, so
    every row of a block shares the same tail.  Callers have checked t and
    tol.

    The arithmetic of a term and the order of the terms are fixed: the
    step's products and sums, then one product and one sum into acc.  A
    reordering, such as BLAS sums, moves the last bits of every law, which
    perfbench's suite references pin, and wf_residual's centered
    difference over h = 1e-5 amplifies those bits by 1/(2h).
    """
    v = np.array(v0, dtype=float)
    if lam_t == 0.0:
        return v, 0.0
    w, tail = _poisson_weights(lam_t, tol, min_terms + 1)
    acc = w[0] * v
    out, term = np.empty_like(v), np.empty_like(v)
    for wj in w[1:].tolist():
        step(v, out)
        v, out = out, v
        if wj > 0.0:
            np.multiply(v, wj, out=term)
            acc += term
    return acc, tail


def _bd_uniformize(
    v0: np.ndarray,
    beta_arr: np.ndarray,
    delta_arr: np.ndarray,
    t: float,
    tol: float,
):
    """The series for a birth-death chain on {0..N}: v0 has N+2 columns,
    birth out of state N feeds the overflow column N+1.

    A pure-death chain skips the birth product: with every birth rate 0
    that product is +-0.0, and adding it changes no entry whose sign bit
    is clear.  If no entry of v0 has its sign bit set, no entry of any
    term has, as each is a sum of products of such numbers.  Otherwise
    (-0.0, or a negative weight within Measure's slack) the step adds the
    product, which can turn -0.0 into +0.0.
    """
    N = len(beta_arr) - 1
    out_rate = beta_arr + delta_arr
    lam = float(out_rate.max())
    if lam <= 0.0:
        return np.array(v0, dtype=float), 0.0
    stay = np.append(np.maximum(1.0 - out_rate / lam, 0.0), 1.0)
    up = beta_arr / lam  # k -> k+1, N -> overflow
    down = delta_arr[1:] / lam  # k -> k-1 for 1 <= k <= N
    add_births = bool(up.any() or np.signbit(v0).any())
    rows = np.shape(v0)[:-1]
    born, died = np.empty(rows + (N + 1,)), np.empty(rows + (N,))
    # id(v) -> slices of v and of out: the series alternates two buffers,
    # so each v always steps into the same out
    views = {}

    def step(v, out):
        key = id(v)
        if key not in views:
            views[key] = (v[..., :-1], v[..., 1:-1], out[..., 1:], out[..., :-2])
        below, inner, out_up, out_down = views[key]
        np.multiply(v, stay, out=out)
        if add_births:
            np.multiply(below, up, out=born)
            out_up += born
        np.multiply(inner, down, out=died)
        out_down += died

    return _uniformized_series(v0, step, lam * t, tol, min_terms=N + 4)


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError("t must be >= 0")


def _check_rates(*rates: np.ndarray) -> None:
    if not all(np.isfinite(r).all() for r in rates):
        raise ValueError("rates must be finite")
    if any((r < 0).any() for r in rates):
        raise ValueError("rates must be nonnegative")


def _check_grid(t_grid: Sequence[float]) -> None:
    """The root-law probes rescale by t, so every time must be positive."""
    for t in t_grid:
        _check_time(t)
        if t == 0:
            raise ValueError("t must be > 0")


def _rate_arrays(rates: BirthDeathRates, N: int):
    beta_arr = np.array([rates.beta(k) for k in range(N + 1)], dtype=float)
    delta_arr = np.array([rates.delta(k) for k in range(N + 1)], dtype=float)
    delta_arr[0] = 0.0
    _check_rates(beta_arr, delta_arr)
    return beta_arr, delta_arr


def transition(
    rates: BirthDeathRates,
    t: float,
    N: int,
    tol: float = DEFAULT.uniformization_tol,
) -> TruncatedSemigroup:
    """Uniformized transition matrix rows p_t(j, .) on {0..N}."""
    _check_tol(tol)
    _check_time(t)
    if N < 1:
        raise ValueError("N must be >= 1")
    beta_arr, delta_arr = _rate_arrays(rates, N)
    P, tail = _bd_uniformize(np.eye(N + 1, N + 2), beta_arr, delta_arr, t, tol)
    return TruncatedSemigroup(N=N, t=t, matrix=P[:, :-1], trunc_error=float(P[:, -1].max()) + tail)


def evolve(
    mu: Measure,
    rates: BirthDeathRates,
    t: float,
    tol: float = DEFAULT.uniformization_tol,
    N: int | None = None,
) -> EvolvedPGF:
    """Push a univariate initial law through the chain for time t.

    The truncation level starts just above the initial support (plus
    birth headroom) and doubles until the certified escaping mass is
    below tol, at most 12 times.
    """
    _check_tol(tol)
    if mu.ndim != 1:
        raise ValueError("univariate initial laws only")
    _check_time(t)
    support = int(np.max(np.nonzero(mu.weights)[0])) if mu.weights.any() else 0
    if N is None:
        b_ref = max(rates.beta(k) for k in range(support + 11))
        if not math.isfinite(b_ref):
            raise ValueError("rates must be finite")
        pad = 0 if b_ref == 0 else int(math.ceil(10.0 + 5.0 * b_ref * t))
        N = max(support + pad, support, 1)
    if N < support:
        raise ValueError(f"N={N} is below the initial law's support {support}")
    for _ in range(13):
        beta_arr, delta_arr = _rate_arrays(rates, N)
        v0 = np.zeros(N + 2)
        v0[: support + 1] = mu.weights[: support + 1]
        v, tail = _bd_uniformize(v0, beta_arr, delta_arr, t, tol)
        absorbed = float(v[-1])
        if absorbed <= tol:
            return EvolvedPGF(
                poly=UniPoly.from_coeffs(list(v[:-1])),
                t=t,
                tail_bound=mu.tail_bound + absorbed + tail,
            )
        N = max(2 * N, 1)
    raise RuntimeError("truncation level cap reached before meeting tolerance")


def backward_residual(
    rates: BirthDeathRates,
    semigroup: TruncatedSemigroup,
    j: int,
    k: int,
) -> float:
    """Defect of the backward equation at (j,k).

    The time derivative of p_t(j,k) is taken by centered differences and
    compared against beta_j p(j+1,k) + delta_j p(j-1,k) - (beta_j+delta_j) p(j,k).
    """
    N, t = semigroup.N, semigroup.t
    if not (0 < j < N):
        raise ValueError("interior start states only")
    h = 1e-4 * max(t, 1.0)
    h = min(h, t) if t > 0 else h
    plus = transition(rates, t + h, N, tol=_PROBE_TOL).matrix
    minus = transition(rates, t - h if t - h > 0 else 0.0, N, tol=_PROBE_TOL).matrix
    dt = (plus[j, k] - minus[j, k]) / (2 * h if t - h > 0 else (t + h))
    P = semigroup.matrix
    rhs = (
        rates.beta(j) * P[j + 1, k]
        + rates.delta(j) * P[j - 1, k]
        - (rates.beta(j) + rates.delta(j)) * P[j, k]
    )
    return abs(dt - rhs)


def wf_residual(mu: Measure, t: float) -> float:
    """Defect of d/dt phi = z(1-z) d^2/dz^2 phi under death rate k(k-1).

    The time derivative uses centered differences, or at t = 0 the
    second-order one-sided (-3 phi(0) + 4 phi(h) - phi(2h)) / 2h; the space
    derivative is exact from the coefficients.  The samples are 20 real
    points in [-0.9, 0.9].
    """
    _check_time(t)
    rates = BirthDeathRates.quadratic_death()
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
        res = abs(dt - z * (1 - z) * d2(z))
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# root-law probes
# ---------------------------------------------------------------------------


def hermite_root_law(
    w: float,
    n: int,
    q_factor: UniPoly | None,
    t_grid: Sequence[float],
) -> list:
    """Track the n roots splitting from a multiplicity-n root at w < 0.

    Under death rate k(k-1) the cluster splits like
    root_i ~ w + sqrt(w(w-1)) * h_i * sqrt(t) with h_i the roots of
    hermite_sum_form(n).  Returns per-t records with the worst rescaled
    mismatch.
    """
    if w >= 0:
        raise ValueError("w must be negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_grid(t_grid)
    base = UniPoly.from_roots([float(w)] * n)
    if q_factor is not None:
        base = base * q_factor.to_float()
    coeffs = base.coeffs_float()
    if coeffs.min() < -1e-12 * abs(coeffs).max():
        raise ValueError("initial PGF has negative coefficients")
    coeffs = np.maximum(coeffs, 0.0)
    mu = Measure(coeffs / coeffs.sum())
    rates = BirthDeathRates.quadratic_death()
    hl = real_roots(hermite_sum_form(n))
    targets = sorted(z.real for z in hl.roots)
    scale = math.sqrt(w * (w - 1.0))
    records = []
    for t in t_grid:
        ev = evolve(mu, rates, t, tol=_ROOT_LAW_TOL)
        roots = sorted(real_roots(ev.poly).roots, key=lambda z: abs(z - w))[:n]
        rescaled = sorted((z.real - w) / math.sqrt(t) for z in roots)
        report = max(abs(r - scale * h) for r, h in zip(rescaled, targets))
        records.append({"t": t, "report": report, "roots": [complex(z) for z in roots]})
    return records


def kummer_root_law(n: int, t_grid: Sequence[float]) -> list:
    """Track the n-1 small roots of the law started from n particles.

    Under death rate k(k-1) they behave like z_i * t where z_i are the
    negative zeros of the small-root limit polynomial
    quadratic_death_cluster_poly(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_grid(t_grid)
    records = []
    if n == 1:
        return [{"t": t, "report": 0.0, "roots": []} for t in t_grid]
    cl = real_roots(quadratic_death_cluster_poly(n))
    targets = sorted(z.real for z in cl.roots)
    mu = Measure.point_mass(n)
    rates = BirthDeathRates.quadratic_death()
    for t in t_grid:
        ev = evolve(mu, rates, t, tol=_ROOT_LAW_TOL)
        # coefficient 0 is exactly zero (the chain is absorbed at 1), so
        # divide out the root at the origin before tracking.
        coeffs = ev.poly.coeffs_float()
        reduced = UniPoly.from_coeffs(list(coeffs[1:]))
        roots = sorted(real_roots(reduced).roots, key=lambda z: z.real)
        rescaled = [z.real / t for z in roots]
        report = max(abs(r - z) for r, z in zip(rescaled, targets))
        records.append({"t": t, "report": report, "roots": [complex(z) for z in roots]})
    return records


def quadratic_map_counterexample(r: float, t: float) -> tuple[UniPoly, StabilityCertificate]:
    """Image of (x-r)^2 under the quadratic-death transition operator.

    The operator is extended linearly over coefficients:
    T_t[(x-r)^2] = r^2 + (1 - e^{-2t} - 2r) x + e^{-2t} x^2.  For a double
    root inside (0,1) the discriminant turns negative for small t > 0.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie in (0,1)")
    _check_time(t)
    u = math.exp(-2.0 * t)
    poly = UniPoly.from_coeffs([r * r, 1.0 - u - 2.0 * r, u])
    return poly, is_real_rooted(poly)


def birth_monotonicity_probe(
    rates: BirthDeathRates,
    k: int,
    t_grid: Sequence[float],
) -> list:
    """Verdicts of the depth-(k+2) approximant of the law started at k.

    For small t the approximant is a quadratic in disguise whose
    discriminant has the sign of beta_k - beta_{k+1}: increasing birth
    rates refute stability, non-increasing ones do not.
    """
    if rates.beta(k) <= 0 or rates.beta(k + 1) <= 0:
        raise ValueError("probe needs beta_k, beta_{k+1} > 0")
    m = k + 2
    records = []
    for t in t_grid:
        ev = evolve(Measure.point_mass(k), rates, t, tol=_ROOT_LAW_TOL, N=max(2 * (k + 2) + 10, 16))
        coeffs = ev.poly.coeffs_float()
        cmap = {j: float(coeffs[j]) for j in range(min(len(coeffs), m + 1))}
        fm = tstable_approximant(cmap, m).poly.to_uni()
        cert = is_real_rooted(fm, coeff_perturb=ev.tail_bound)
        records.append({"t": t, "verdict": cert.verdict.value, "witness": cert.witness})
    return records


def kingman(n: int, coalescent: bool, t: float) -> EvolvedPGF:
    """Law of the ancestral block count started from n lineages."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rates = (
        BirthDeathRates.kingman_coalescent() if coalescent else BirthDeathRates.quadratic_death()
    )
    return evolve(Measure.point_mass(n), rates, t, tol=_PROBE_TOL)


def lie_split_evolve(
    mu: Measure,
    b0: float,
    d1: float,
    d2: float,
    t: float,
    steps: int,
    N: int | None = None,
) -> EvolvedPGF:
    """Alternate exact sub-steps of the two half-chains.

    Chain 1 has constant birth b0 and linear death d1*k; chain 2 has pure
    quadratic death d2*k*(k-1).  The alternation is symmetrized: a half
    sub-step of chain 1 at either end turns the plain product formula into
    its second-order variant, so the composed law converges to the combined
    chain at O(1/steps^2) in total variation.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_time(t)
    chain1, chain2 = BirthDeathRates.mm_infty(b0, d1), BirthDeathRates.quadratic_death(d2)
    if mu.ndim != 1:
        raise ValueError("univariate initial laws only")
    support = int(np.max(np.nonzero(mu.weights)[0])) if mu.weights.any() else 0
    if N is None:
        N = support + int(math.ceil(10.0 + 5.0 * b0 * t)) + 20
    if N < support:
        raise ValueError(f"N={N} is below the initial law's support {support}")
    b1, d1a = _rate_arrays(chain1, N)
    b2, d2a = _rate_arrays(chain2, N)
    h = t / steps
    v = np.zeros(N + 1)
    v[: support + 1] = mu.weights[: support + 1]
    lost = mu.tail_bound
    if t > 0:
        # Each sub-step is a fixed propagator: the rows of one block series
        # from the identity, with the escaped mass in its last column.
        eye = np.eye(N + 1, N + 2)
        half1 = _bd_uniformize(eye, b1, d1a, h / 2.0, _ROOT_LAW_TOL)
        full1 = _bd_uniformize(eye, b1, d1a, h, _ROOT_LAW_TOL)
        full2 = _bd_uniformize(eye, b2, d2a, h, _ROOT_LAW_TOL)

        def substep(v, propagator):
            P, tail = propagator
            out = v @ P
            return out[:-1], float(out[-1]) + tail

        v, lost_h = substep(v, half1)
        lost += lost_h
        for i in range(steps):
            v, lost2 = substep(v, full2)
            v, lost1 = substep(v, full1 if i < steps - 1 else half1)
            lost += lost1 + lost2
    return EvolvedPGF(poly=UniPoly.from_coeffs(list(v)), t=t, tail_bound=lost)


def tv_distance(a: EvolvedPGF | Measure, b: EvolvedPGF | Measure) -> float:
    """Total variation distance between two univariate laws."""
    wa = a.poly.coeffs_float() if isinstance(a, EvolvedPGF) else a.weights
    wb = b.poly.coeffs_float() if isinstance(b, EvolvedPGF) else b.weights
    n = max(len(wa), len(wb))
    pa = np.zeros(n)
    pa[: len(wa)] = wa
    pb = np.zeros(n)
    pb[: len(wb)] = wb
    return 0.5 * float(np.abs(pa - pb).sum())
