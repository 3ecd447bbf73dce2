"""Probability measures on finite boxes of N^n, identified with their PGFs.

Weights live on a box {0..N_1} x ... x {0..N_n}; mass possibly truncated
away is carried explicitly in tail_bound and never silently renormalized.
The univariate structure theorem (every t-stable law on N is an integer
shift plus independent Bernoullis plus a Poisson) is implemented as a
synthesize / decompose pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT
from .polycore import InputRangeError, MultiPoly, UniPoly, _check_count, _classify_float, _im_floor
from .stability import Verdict, certify_tstable

_SLACK = 1e-9
_POISSON_TOL = 1e-10  # truncation tolerance of Measure.poisson and poisson_box
# Largest Poisson mean served, lambda*t for a series: the weights take more
# than lambda floats and the series as many terms.  kingman(800) has 159,800.
_MAX_POISSON_MEAN = 1e7


@dataclass(frozen=True, eq=False)
class Measure:
    """Nonnegative weights on a finite box plus a bound on truncated mass."""

    weights: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not (np.isfinite(w).all() and math.isfinite(self.tail_bound)):
            raise ValueError("non-finite weight or tail_bound")
        if w.size and float(w.min()) < -_SLACK:
            raise ValueError(f"negative weight {w.min()}")
        total = float(w.sum())
        if abs(total - 1.0) > self.tail_bound + _SLACK:
            raise ValueError(f"mass {total} inconsistent with tail_bound {self.tail_bound}")

    @property
    def ndim(self) -> int:
        return self.weights.ndim

    @property
    def shape(self) -> tuple:
        return self.weights.shape

    @property
    def poly(self) -> UniPoly:
        """The pgf of a univariate measure, trailing zero weights trimmed."""
        if self.ndim != 1:
            raise ValueError("univariate measures only")
        return UniPoly.from_coeffs(list(self.weights))

    # -- constructors --------------------------------------------------------

    @classmethod
    def point_mass(cls, alpha, shape=None) -> "Measure":
        alpha = tuple(_check_count(a, "count", low=0) for a in (alpha if np.ndim(alpha) else [alpha]))
        if shape is None:
            shape = tuple(a + 1 for a in alpha)
        shape = tuple(_check_count(s, "shape", low=0) for s in (shape if np.ndim(shape) else [shape]))
        if len(shape) != len(alpha) or any(a >= s for a, s in zip(alpha, shape)):
            raise ValueError(f"point mass at {alpha} outside shape {shape}")
        w = np.zeros(shape)
        w[alpha] = 1.0
        return cls(w)

    @classmethod
    def bernoulli(cls, p: float) -> "Measure":
        if not 0 <= p <= 1:
            raise ValueError("p outside [0,1]")
        return cls(np.array([1 - p, p]))

    @classmethod
    def poisson(cls, sigma: float, box: int | None = None) -> "Measure":
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        box = poisson_box(sigma) if box is None else _check_count(box, "box", low=0)
        w, err = _poisson_weights(sigma, _POISSON_TOL, box + 1)
        return cls(w[: box + 1], tail_bound=err + math.fsum(w[box + 1 :]))

    @classmethod
    def product(cls, *measures: "Measure") -> "Measure":
        arrs = [m.weights for m in measures]
        out = arrs[0]
        for a in arrs[1:]:
            out = np.multiply.outer(out, a)
        return cls(out, tail_bound=sum(m.tail_bound for m in measures))


def _check_tol(tol: float) -> None:
    # A NaN or nonpositive tol would never stop the Poisson weight loop.
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")


def poisson_box(sigma: float) -> int:
    """Smallest truncation at or above the mode whose certified Poisson tail
    mass is at most _POISSON_TOL / 2."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")
    return len(_poisson_weights(sigma, _POISSON_TOL, 1)[0]) - 1


def _check_poisson_mean(lam: float) -> None:
    # From a mode of 1e300 the downward loop would grow its list until
    # memory runs out, long before a term underflows.
    if not lam <= _MAX_POISSON_MEAN:
        raise InputRangeError(
            f"Poisson mean (lambda*t) {lam:.6g} is above the cap {_MAX_POISSON_MEAN:.0e}"
        )


def _poisson_weights(lam: float, tol: float, min_len: int) -> tuple[np.ndarray, float]:
    """P(X = j) for j = 0..R, X ~ Poisson(lam), and a bound on their l1 error.

    Terms follow the ratio recurrence outward from omega_mode = 1 and are
    scaled by their exactly rounded sum (Fox & Glynn, CACM 31(4), 1988), so
    the bulk never underflows; weights that do are exactly 0.  R is the
    first index >= max(min_len - 1, mode) at which the geometric bound on
    P(X > R) is at most tol / 2.  The bound adds the rounding: two per step
    from the mode spread the weights' relative errors by at most
    2u sqrt(E(X - mode)^2) <= 2u sqrt(lam + 1), and 4u covers the scaling.
    A mean above _MAX_POISSON_MEAN raises InputRangeError before any work.
    """
    _check_poisson_mean(lam)
    if lam == 0.0:
        return np.eye(1, max(min_len, 1))[0], 0.0
    mode = int(lam)
    lower = [1.0]  # omega_mode, omega_(mode-1), ... down to lo
    for j in range(mode, 0, -1):
        lower.append(lower[-1] * (j / lam))
        # 2^-1074 times j / lam > 1/2 rounds to 2^-1074 again, down to j = lam / 2
        if lower[-1] <= 5e-324:
            break
    lo, terms = mode + 1 - len(lower), lower[::-1]
    partial, last, j, R = sum(terms), 1.0, mode, -1
    q = lam / (j + 1)
    while True:
        # P(X > j) <= omega_j * q * sum_i (lam/(j+2))^i, as j + 2 > lam
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
    # fsum is correctly rounded in any order; from the mode outward it
    # meets the large terms first and keeps few partial sums.
    total = math.fsum(itertools.chain(lower, terms[len(lower) :]))
    w = np.zeros(R + 1)
    w[lo:] = np.array(terms[: R + 1 - lo]) / total
    return w, tail / total + (2.0 * math.sqrt(lam + 1.0) + 4.0) * 2.0**-53


# ---------------------------------------------------------------------------
# PGF view, projections, marginals
# ---------------------------------------------------------------------------


def pgf(mu: Measure) -> MultiPoly:
    """Coefficient-faithful generating polynomial of mu."""
    d = {}
    for idx, v in np.ndenumerate(mu.weights):
        if v != 0.0:
            d[idx] = float(v)
    return MultiPoly.from_dict(d, mu.ndim)


def project(mu: Measure, keep: Iterable[int]) -> Measure:
    """Sum out every coordinate not in keep (0-based indices)."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= mu.ndim for k in keep):
        raise ValueError("keep indices out of range")
    drop = tuple(i for i in range(mu.ndim) if i not in keep)
    w = mu.weights.sum(axis=drop) if drop else mu.weights
    return Measure(np.atleast_1d(w) if keep else np.array(w), tail_bound=mu.tail_bound)


def marginal_sum(mu: Measure, T: Iterable[int]) -> Measure:
    """Law of the total count over the coordinate set T."""
    T = tuple(sorted(set(int(i) for i in T)))
    if not T:
        raise ValueError("T must be nonempty")
    sub = project(mu, T)
    w = sub.weights
    idx = np.zeros(w.shape, dtype=int)
    for grid in np.indices(w.shape):
        idx += grid
    out = np.zeros(int(idx.max()) + 1)
    np.add.at(out, idx.ravel(), w.ravel())
    return Measure(out, tail_bound=mu.tail_bound)


# ---------------------------------------------------------------------------
# Bernoulli-Poisson structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BPDecomposition:
    """Product form q + Poisson(sigma) + sum of Bernoulli(p_k).

    residual is the sup-norm difference between the source weights and the
    reconstruction truncated to the same box.
    """

    q: int
    sigma: float
    p_list: tuple
    residual: float

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "sigma": self.sigma,
            "p": list(self.p_list),
            "residual": self.residual,
        }


def bp_synthesize(q: int, sigma: float, p_list: Sequence[float], box: int) -> Measure:
    """Convolve a point mass at q, a truncated Poisson(sigma), and Bernoullis."""
    q, box = _check_count(q, "q", low=0), _check_count(box, "box", low=0)
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("q must be >= 0 and sigma finite and >= 0")
    if any(not 0 < p < 1 for p in p_list):
        raise ValueError("Bernoulli parameters must lie in (0,1)")
    if box < q:
        raise ValueError("box smaller than the deterministic atom")
    w = np.zeros(box + 1)
    w[q] = 1.0
    if sigma > 0:
        pois = Measure.poisson(sigma, box=box).weights
        w = np.convolve(w, pois)[: box + 1]
    for p in p_list:
        w = np.convolve(w, [1 - p, p])[: box + 1]
    return Measure(w, tail_bound=max(0.0, 1.0 - float(w.sum())))


def bp_decompose(mu: Measure) -> BPDecomposition:
    """Recover (q, sigma, {p_k}) from a univariate t-stable measure.

    q is the order of vanishing at zero; certified negative roots a of the
    truncated PGF map to Bernoulli parameters p = 1/(1-a); the Poisson rate
    is a least-squares fit of log f on (0,1) after dividing out the located
    factors, which also absorbs roots beyond -bp_root_cutoff and any factors
    hidden below the truncation.
    """
    if mu.ndim != 1:
        raise ValueError("univariate measures only")
    w = mu.weights
    if w.min() < -_SLACK:
        raise ValueError("negative weights")
    # Truncation-aware t-stability guard: a truncated t-stable series is
    # not a real-rooted polynomial, so refute through the approximant
    # criterion (sound under the declared tail) rather than raw roots.
    guard = certify_tstable(
        {k: float(v) for k, v in enumerate(w)},
        m_max=min(DEFAULT.m_max_default, len(w) - 1) or 1,
        tail_bound=mu.tail_bound,
    )
    if guard.verdict is Verdict.REFUTED:
        raise ValueError("not t-stable: approximant criterion refuted the input")

    scale = float(np.max(w))
    q = 0
    while q < len(w) - 1 and w[q] <= 1e-12 * scale:
        q += 1

    # Root-find the full stored polynomial: trimming would perturb the
    # mid-range Bernoulli roots by far more than the trailing mass once
    # rescaled to |z| > 1.  The floor only sheds denormal-level trailing
    # coefficients, whose roots sit far beyond the absorption cutoff.
    g = UniPoly.from_coeffs(list(w[q:]))
    p_list = []
    if g.degree >= 1:
        # Stricter than the policy's thresholds on purpose: the radius and
        # condition terms admit near-real roots of a truncated Poisson
        # factor, which would then be fitted as spurious Bernoulli factors
        # and bias sigma.  Only roots real to the two tolerance floors count.
        for z in _classify_float(g, 1e-250)[0]:
            if abs(z.imag) <= _im_floor(z) and -DEFAULT.bp_root_cutoff <= z.real < 0:
                p_list.append(1.0 / (1.0 - z.real))
    p_list.sort(reverse=True)

    # Poisson rate: fit log f(x) = log C + sigma*x on Chebyshev nodes of
    # [0.1, 0.9] after dividing out the atom and the located Bernoullis.
    nodes = 0.5 + 0.4 * np.cos((2 * np.arange(16) + 1) * math.pi / 32)

    def fit_sigma(ps):
        # g, the coefficients from q on, stands in for f(x) / x^q, whose
        # x^q is 0 in floats on the smallest node from q = 327
        logs = []
        for x in nodes:
            val = g(float(x))
            div = 1.0
            for p in ps:
                div *= (1 - p) + p * x
            h = val / div
            if h <= 0:
                return None
            logs.append(math.log(h))
        A = np.vstack([np.ones_like(nodes), nodes]).T
        coef, *_ = np.linalg.lstsq(A, np.array(logs), rcond=None)
        return float(coef[1])

    def recon_residual(sigma, ps):
        recon = bp_synthesize(q, max(sigma, 0.0), ps, box=len(w) - 1)
        return float(np.max(np.abs(recon.weights - w)))

    # A truncated Poisson factor contributes genuine near-real roots of its
    # own; those masquerade as small Bernoulli factors.  Candidates are
    # sorted by decreasing p, so evaluate every suffix-drop and keep the
    # reconstruction-optimal prefix, preferring to keep factors when the
    # residuals are comparable (indistinguishable mass belongs to sigma
    # only when it clearly improves the fit).
    best = None
    for j in range(len(p_list), -1, -1):
        ps = p_list[:j]
        s = fit_sigma(ps)
        if s is None:
            continue
        r = recon_residual(s, ps)
        if best is None or r < 0.5 * best[2]:
            best = (ps, s, r)
    if best is None:
        raise ValueError("nonpositive residual factor; decomposition failed")
    p_list, sigma, residual = best

    if sigma < -DEFAULT.bp_sigma_tol:
        raise ValueError(f"fitted Poisson rate {sigma} negative beyond tolerance")
    sigma = max(sigma, 0.0)
    return BPDecomposition(q, sigma, tuple(p_list), residual)
