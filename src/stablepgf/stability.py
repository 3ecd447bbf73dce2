"""Stability certification for polynomials and coefficient sequences.

A univariate real polynomial is stable exactly when all of its roots are
real; multivariate stability means no zeros with every coordinate in the
open upper half-plane.  Verdicts are three-valued: refutations are sound
(they come with a witness that re-evaluates to ~0 inside the upper
half-space), confirmations are certified in exact mode and policy-based in
float mode, except those that real_rooted_batch proves by sign
alternation; everything else is reported as inconclusive.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT
from .polycore import _U, MultiPoly, UniPoly, _check_count, _classify_float, _modulus
from .polycore import _nonreal_roots, _sturm_factors, _times_power


class Verdict(str, Enum):
    STABLE = "Stable"
    REFUTED = "Refuted"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class StabilityCertificate:
    verdict: Verdict
    witness: tuple | None = None
    m: int | None = None
    tolerance_used: float = 0.0
    note: str = ""
    # the points x_0 < ... < x_n of a Stable proven by sign alternation
    alternation: tuple | None = None

    def to_json(self) -> dict:
        out = {"verdict": self.verdict.value, "tolerance_used": self.tolerance_used}
        if self.witness is not None:
            out["witness"] = [[z.real, z.imag] for z in self.witness]
        if self.alternation is not None:
            out["alternation"] = list(self.alternation)
        if self.m is not None:
            out["m"] = self.m
        if self.note:
            out["note"] = self.note
        return out


def witness_is_valid(f, witness: Sequence[complex], coeff_perturb: float = 0.0) -> bool:
    """Independent re-evaluation check for a refutation witness.

    The witness must be in the open upper half-space, each coordinate with a
    modulus within the float range, and |f| there must not exceed the
    evaluation error bound plus the coefficient perturbation allowance.
    """
    if any(z.imag <= 0 for z in witness):
        return False
    moduli = [_modulus(z) for z in witness]
    if not all(r < math.inf for r in moduli):
        return False
    if isinstance(f, UniPoly):
        val, err = f.eval_with_bound(witness[0])
        deg = f.degree
        zmax = moduli[0]
    else:
        val, err = f.eval_with_bound(list(witness))
        deg = f.total_degree()
        zmax = max(moduli)
    allowance = 8 * err
    if coeff_perturb > 0:
        allowance += _times_power(coeff_perturb, max(1.0, zmax), deg)
    # an allowance beyond the float range bounds nothing
    return allowance < math.inf and _modulus(val) <= max(allowance, 1e-250)


# ---------------------------------------------------------------------------
# univariate real-rootedness
# ---------------------------------------------------------------------------


def _refutes(g: UniPoly, z: complex, perturb: float, m: int) -> bool:
    """Certified complex-root test: a real-rooted p has |p(z)| >= |lead| Im(z)^deg,
    so a small value at a point far from the real axis refutes realness for
    every polynomial within the coefficient perturbation."""
    lead = abs(float(g.lead))
    if lead <= perturb:
        return False
    val, err = g.eval_with_bound(z)
    slack = _times_power(perturb, max(1.0, abs(z)), m) if perturb > 0 else 0.0
    return _modulus(val) + err + slack < _times_power(lead - perturb, abs(z.imag), m)


def is_real_rooted(p: UniPoly, coeff_perturb: float = 0.0) -> StabilityCertificate:
    """Certify or refute that every root of p is real.

    coeff_perturb is an l1 bound on unknown coefficient error (e.g. mass
    truncated away from a generating function); refutation is only issued
    when it survives that perturbation.
    """
    if not (math.isfinite(coeff_perturb) and coeff_perturb >= 0):
        raise ValueError("coeff_perturb must be finite and >= 0")
    if p.is_zero:
        return StabilityCertificate(
            Verdict.INCONCLUSIVE, note="zero polynomial: limit of stable polynomials"
        )
    if p.degree == 0:
        return StabilityCertificate(Verdict.STABLE, tolerance_used=0.0)

    if p.exact and coeff_perturb == 0.0:
        # a factor whose Sturm count falls short of its degree has non-real
        # roots; the one farthest from the real axis is the witness
        short = [f for f in _sturm_factors(p.coeffs) if f.nonreal_count]
        if not short:
            return StabilityCertificate(Verdict.STABLE, tolerance_used=0.0)
        z = max((z for f in short for z, _ in _nonreal_roots(f)), key=lambda z: abs(z.imag))
        w = complex(z.real, abs(z.imag))
        return StabilityCertificate(
            Verdict.REFUTED, witness=(w,), tolerance_used=0.0, note="exact root count deficit"
        )

    g = UniPoly.from_coeffs([float(c) for c in p.coeffs])
    roots, _, thresholds = _classify_float(g, DEFAULT.trim_rel, coeff_perturb)
    if not roots:
        return StabilityCertificate(
            Verdict.INCONCLUSIVE, tolerance_used=coeff_perturb, note="no locatable roots"
        )

    for z in roots:
        if (
            z.imag > 0
            and _refutes(g, z, coeff_perturb, g.degree)
            and witness_is_valid(g, (z,), coeff_perturb)
        ):
            return StabilityCertificate(
                Verdict.REFUTED,
                witness=(z,),
                tolerance_used=coeff_perturb,
                note="certified complex root",
            )

    worst_thr = DEFAULT.im_abs_tol
    all_real = True
    for z, thr in zip(roots, thresholds):
        if abs(z.imag) > thr:
            all_real = False
        else:
            worst_thr = max(worst_thr, min(thr, max(DEFAULT.im_abs_tol, abs(z.imag) * 2)))
    if all_real:
        return StabilityCertificate(Verdict.STABLE, tolerance_used=worst_thr)
    return StabilityCertificate(
        Verdict.INCONCLUSIVE,
        tolerance_used=coeff_perturb,
        note="complex-looking roots within perturbation ambiguity",
    )


def real_rooted_batch(coeffs, coeff_perturbs) -> list:
    """One is_real_rooted-style verdict per row of coeffs, a stack of float
    polynomials a_0 + ... + a_n x^n of one degree n, row k under its own l1
    coefficient perturbation coeff_perturbs[k].

    A row is proven Stable by sign alternation at points x_0 < ... < x_n
    (_alternation_points): the Horner values v_i alternate in sign, each
    |v_i| > eps max(1, |x_i|)^n + gamma_(2n+1) sum_k |a_k||x_i|^k with the
    bound rounded upward, and |a_n| > eps.  Every q of degree <= n with
    ||q - p||_1 <= eps has |q(x) - p(x)| <= eps max(1, |x|)^n, and v_i is
    within gamma_(2n) sum_k |a_k||x_i|^k of p(x_i) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, eq. 5.3), so q changes sign
    in each of the n intervals and, as |q_n| > 0, has only real roots.
    Such a certificate has the note "sign alternation" and its points as
    `alternation`; alternation_is_valid re-checks it exactly.  Every other
    row gets is_real_rooted's verdict on its own.
    """
    a = np.asarray(coeffs, dtype=float)
    eps = np.asarray(coeff_perturbs, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0 or eps.shape != a.shape[:1]:
        raise ValueError("coeffs must be a (laws, n + 1) stack with one coeff_perturb per law")
    if not np.isfinite(a).all():
        raise ValueError("non-finite coefficient")
    if not (np.isfinite(eps).all() and (eps >= 0).all()):
        raise ValueError("coeff_perturb must be finite and >= 0")
    xs, proven = _alternation_points(a, eps)
    return [
        StabilityCertificate(
            Verdict.STABLE, tolerance_used=e, note="sign alternation", alternation=tuple(x)
        )
        if ok
        else is_real_rooted(UniPoly.from_coeffs(row), coeff_perturb=e)
        for row, e, x, ok in zip(a.tolist(), eps.tolist(), xs.tolist(), proven.tolist())
    ]


def _alternation_points(a: np.ndarray, eps: np.ndarray):
    """(xs, proven) for the stack a of real_rooted_batch: each row's points,
    the midpoints between the sorted real parts of its roots plus one point
    beyond each end, and whether they prove it.  The roots of all rows
    come from one np.linalg.eigvals call on their companion matrices; a
    row with |a_n| <= eps or a companion entry past the float range is not
    proven, nor is one whose points or bounds leave it."""
    rows, n = a.shape[0], a.shape[1] - 1
    xs, proven = np.zeros((rows, n + 1)), np.zeros(rows, dtype=bool)

    def up(v):
        return np.nextafter(v, np.inf)

    with np.errstate(all="ignore"):
        # the companion's first row, -a_(n-1)/a_n ... -a_0/a_n, as np.roots builds it
        top = -a[:, -2::-1] / a[:, -1:]
        live = np.flatnonzero((np.abs(a[:, -1]) > eps) & np.isfinite(top).all(axis=1))
        if n == 0 or live.size == 0:
            return xs, proven
        comp = np.zeros((live.size, n, n))
        comp[:, 0, :] = top[live]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        try:
            re = np.sort(np.linalg.eigvals(comp).real, axis=1)
        except np.linalg.LinAlgError:
            return xs, proven
        reach = np.maximum(1.0, re[:, -1:] - re[:, :1])
        x = np.concatenate([re[:, :1] - reach, (re[:, 1:] + re[:, :-1]) / 2, re[:, -1:] + reach], 1)
        # value, magnitude sum_k |a_k||x|^k and max(1, |x|)^n, rounded
        # upward, in one Horner pass over all points of all rows
        r = np.abs(x)
        r1 = np.maximum(1.0, r)
        val, mag, power = np.zeros_like(x), np.zeros_like(x), np.ones_like(x)
        for k in range(n, -1, -1):
            c = a[live, k : k + 1]
            val = val * x + c
            mag = mag * r + np.abs(c)
            if k:
                power = up(power * r1)
        # gamma_(2n+1) m covers gamma_(2n) times the exact magnitude, which the
        # computed m underestimates by at most the factor (1 - u)^(2n); the
        # value's and the magnitude's underflow add less than n 2^-1073
        # max(1, |x|)^n
        gamma = (2 * n + 1) * _U / (1 - (2 * n + 1) * _U)
        slack = up(eps[live, None] + n * 2.0**-1073)
        bound = up(up(slack * power) + up(gamma * mag))
        sign = np.sign(val)
        ok = (sign[:, 1:] == -sign[:, :-1]).all(axis=1) & (np.abs(val) > bound).all(axis=1)
    xs[live], proven[live] = x, ok
    return xs, proven


def alternation_is_valid(p: UniPoly, points: Sequence[float], coeff_perturb: float = 0.0) -> bool:
    """Exact re-check of a sign-alternation certificate of p, of degree
    n >= 1, in rationals read from p's coefficients and the float points.

    The n + 1 points must increase strictly, p must alternate in sign on
    them with |p(x_i)| > coeff_perturb max(1, |x_i|)^n, and the leading
    coefficient must exceed coeff_perturb in modulus: then every
    polynomial of degree <= n within coeff_perturb of p in l1 has n real
    roots, one between each pair of neighbouring points.
    """
    n = p.degree
    if n < 1 or len(points) != n + 1 or not (math.isfinite(coeff_perturb) and coeff_perturb >= 0):
        return False
    if not all(math.isfinite(x) for x in points):
        return False
    cs = [Fraction(c) for c in p.coeffs]
    xs = [Fraction(x) for x in points]
    e = Fraction(coeff_perturb)
    if abs(cs[-1]) <= e or any(lo >= hi for lo, hi in zip(xs, xs[1:])):
        return False
    signs = []
    for x in xs:
        v = Fraction(0)
        for c in reversed(cs):
            v = v * x + c
        if abs(v) <= e * max(1, abs(x)) ** n:
            return False
        signs.append(v > 0)
    return all(s != t for s, t in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# multivariate stability
# ---------------------------------------------------------------------------


def is_stable_multi(f: MultiPoly, budget: int = 200) -> StabilityCertificate:
    """Search for zeros of f in the open upper half-space.

    Exact routes decide f first: a univariate f by its real-rootedness
    (Sturm counts when exact), a symmetric multi-affine one through its
    diagonal, and a bivariate multi-affine one with rational coefficients by
    the Rayleigh criterion.  Rational f with f(0) != 0 that splits into
    factors in disjoint variables (_disjoint_factors) has the zeros of its
    factors, so it is proven stable when an exact route proves every
    factor stable.

    Otherwise f is sampled: a point of H^n lies on a line a + x*b with a
    real, b positive and Im(x) > 0, and on any such line f restricts to a
    real univariate polynomial, so refutation reduces to univariate
    non-real-rootedness.  On rational f a line's refutation stands only
    when the exact restriction to the same line, read with dyadic
    rational a and b, has a Sturm count deficit.  Sampling never confirms:
    no refutation in budget lines is Inconclusive.
    """
    if f.is_zero:
        return StabilityCertificate(Verdict.INCONCLUSIVE, note="zero polynomial")
    if f.total_degree() == 0:
        return StabilityCertificate(Verdict.STABLE)
    cert = _exact_route(f)
    if cert is not None:
        return cert
    if f.exact:
        factors = _disjoint_factors(f)
        if len(factors) > 1 and all(
            (c := _exact_route(g)) is not None and c.verdict is Verdict.STABLE
            for _, g in factors
        ):
            return StabilityCertificate(
                Verdict.STABLE,
                note=f"product of {len(factors)} factors in disjoint variables, each proven stable",
            )

    rng = np.random.default_rng(0)
    n = f.nvars
    for trial in range(budget):
        scale = (0.25, 1.0, 4.0)[trial % 3]
        a = rng.standard_normal(n) * scale
        b = np.abs(rng.standard_normal(n)) * scale + 0.05
        g = f.restrict_line(a, b)
        if g.is_zero or g.degree == 0:
            continue
        cert = is_real_rooted(g)
        if cert.verdict is Verdict.REFUTED:
            x0 = cert.witness[0]
            z = tuple(complex(ai + x0 * bi) for ai, bi in zip(a, b))
            if (
                all(zi.imag > 0 for zi in z)
                and witness_is_valid(f, z)
                and (not f.exact or _line_has_nonreal_roots(f, a, b))
            ):
                return StabilityCertificate(
                    Verdict.REFUTED,
                    witness=z,
                    tolerance_used=cert.tolerance_used,
                    note="line-restriction witness",
                )
    return StabilityCertificate(
        Verdict.INCONCLUSIVE, note=f"sampled: no refutation in {budget} line samples"
    )


def _exact_route(f: MultiPoly) -> StabilityCertificate | None:
    """The verdict of the route that decides f without sampling, or None."""
    if f.nvars == 1:
        return is_real_rooted(f.to_uni())
    if not f.is_multi_affine():
        return None
    if f.is_symmetric():
        cert = is_real_rooted(f.diagonal())
        if cert.verdict is Verdict.STABLE:
            return StabilityCertificate(
                Verdict.STABLE,
                tolerance_used=cert.tolerance_used,
                note="certified via symmetric multi-affine diagonal",
            )
        if cert.verdict is Verdict.REFUTED:
            z = cert.witness[0]
            return StabilityCertificate(
                Verdict.REFUTED,
                witness=(z,) * f.nvars,
                tolerance_used=cert.tolerance_used,
                note="diagonal refutation",
            )
    if f.nvars == 2 and f.exact:
        return _rayleigh_bivariate(f)
    return None


def _disjoint_factors(f: MultiPoly) -> list:
    """The factors of rational f in disjoint variables, as (block, g_B):
    the block's variables and the factor in them; [] when c0 = f(0) is 0.

    For a partition of the variables f depends on into k blocks B, g_B is f
    with every variable outside B set to 0, and f c0^(k-1) = prod_B g_B is
    required exactly.  Then f vanishes exactly where some g_B does.  The
    blocks start as single variables, and each set of blocks that
    _split_defect names is merged, at most n - 1 times, until the
    identity holds.  The terms of f are in lexicographic order, so the
    parts of a term come before it, and each set named lies within one
    block of every split of f: the split found is the finest.
    """
    coeff = f.terms_dict()
    c0 = coeff.get((0,) * f.nvars, 0)
    if c0 == 0:
        return []
    block = {i: i for alpha in coeff for i, e in enumerate(alpha) if e}
    while (merge := _split_defect(coeff, c0, block)) is not None:
        rep = min(merge)
        block = {i: rep if b in merge else b for i, b in block.items()}
    members: dict = {}
    for i, b in sorted(block.items()):
        members.setdefault(b, []).append(i)
    return [
        (
            vs,
            MultiPoly.from_dict(
                {
                    tuple(alpha[i] for i in vs): c
                    for alpha, c in coeff.items()
                    if all(block[i] == b for i, e in enumerate(alpha) if e)
                },
                len(vs),
            ),
        )
        for b, vs in members.items()
    ]


def _split_defect(coeff: dict, c0, block: dict) -> frozenset | None:
    """A set of blocks to merge, or None when f c0^(k-1) = prod_B g_B.

    The blocks are disjoint, so the product has one term per choice of a
    term of each g_B, prod_B |g_B| in all.  A term c x^alpha of f that
    touches the set J of blocks is that of the product exactly when
    c c0^(|J|-1) is the product of the coefficients of alpha's parts in the
    blocks of J; the first term that is not names J.  When all are, the
    terms of f are distinct terms of the product, and the identity holds
    when they are as many: otherwise a set J that touches fewer terms of f
    than of the product is named.  The smallest J that touches none adds
    one block to a set that does, as each block alone does.
    """
    n = len(next(iter(coeff)))
    touched: Counter = Counter()
    for alpha, c in coeff.items():
        parts: dict = {}
        for i, e in enumerate(alpha):
            if e:
                parts.setdefault(block[i], [0] * n)[i] = e
        J = frozenset(parts)
        if len(J) > 1 and c * c0 ** (len(J) - 1) != math.prod(
            coeff.get(tuple(p), 0) for p in parts.values()
        ):
            return J
        touched[J] += 1
    # the nonconstant terms of each g_B
    size = {b: touched[frozenset((b,))] for b in set(block.values())}
    for J, count in touched.items():
        if count != math.prod(size[b] for b in J):
            return J
    if len(coeff) == math.prod(s + 1 for s in size.values()):
        return None
    return next(J | {b} for J in touched for b in size if J | {b} not in touched)


def _line_has_nonreal_roots(f: MultiPoly, a: Sequence, b: Sequence) -> bool:
    """Whether the exact restriction x -> f(a + x*b) of rational f, with the
    float a and b read as the dyadic rationals they are, has a Sturm count
    deficit; with b > 0 its non-real roots give zeros of f in H^n."""
    n = f.nvars
    # every variable's substitute is a_i + b_i x_0, so the result is
    # univariate in x_0 and its diagonal is the restriction
    line = f.compose_affine(
        [Fraction(float(v)) for v in a], [[Fraction(float(v))] + [0] * (n - 1) for v in b]
    ).diagonal()
    return line.degree > 0 and any(fac.nonreal_count for fac in _sturm_factors(line.coeffs))


def _rayleigh_bivariate(f: MultiPoly) -> StabilityCertificate:
    """Exact verdict on f = a + bx + cy + dxy with rational coefficients.

    The Rayleigh difference f_x f_y - f f_xy of f is the constant bc - ad,
    and a real multi-affine polynomial is stable exactly when its Rayleigh
    differences are nonnegative on R^n (Brändén 2007).  Otherwise f(i, y) = a + bi + (c + di)y
    vanishes at y = -(a + bi)/(c + di), whose imaginary part is
    -(bc - ad)/(c^2 + d^2) > 0.
    """
    coeff = f.terms_dict()
    a, b, c, d = (Fraction(coeff.get(k, 0)) for k in ((0, 0), (1, 0), (0, 1), (1, 1)))
    delta = b * c - a * d
    if delta >= 0:
        return StabilityCertificate(Verdict.STABLE, note=f"Rayleigh criterion: bc - ad = {delta} >= 0")
    norm = c * c + d * d
    y = complex(-(a * c + b * d) / norm, -delta / norm)
    return StabilityCertificate(
        Verdict.REFUTED, witness=(1j, y), note=f"Rayleigh criterion: bc - ad = {delta} < 0"
    )


# ---------------------------------------------------------------------------
# t-stability via polynomial approximants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TStableApproximant:
    """Polynomial approximant of a coefficient sequence at depth m.

    The coefficient of x^alpha is falling(m, alpha) * c_alpha / m^|alpha|,
    where falling(m, alpha) = prod_i m!/(m-alpha_i)! and vanishes unless
    alpha <= (m,...,m).
    """

    m: int
    poly: MultiPoly


def _normalize_coeff_map(c: Mapping) -> tuple[dict, int]:
    d = {}
    nvars = None
    for key, val in c.items():
        alpha = (int(key),) if isinstance(key, int) else tuple(int(k) for k in key)
        if any(a < 0 for a in alpha):
            raise ValueError("negative exponent")
        if nvars is None:
            nvars = len(alpha)
        elif len(alpha) != nvars:
            raise ValueError("inconsistent multi-index lengths")
        d[alpha] = val
    if nvars is None:
        nvars = 1
    return d, nvars


def _approximant_terms(d: dict, m: int) -> dict:
    """The nonzero coefficients of the depth-m approximant of the
    normalized coefficient map d.  falling(m, a) = m!/(m-a)! is formed
    incrementally, and a rational coefficient in one Fraction."""
    fall = [1]
    for a in range(m):
        fall.append(fall[-1] * (m - a))
    terms = {}
    for alpha, val in d.items():
        if any(a > m for a in alpha):
            continue
        num, tot = math.prod(fall[a] for a in alpha), sum(alpha)
        if isinstance(val, (int, Fraction)):
            coeff = Fraction(val.numerator * num, val.denominator * m**tot)
        else:
            coeff = float(val) * num / float(m) ** tot
        if coeff != 0:
            terms[alpha] = coeff
    return terms


def tstable_approximant(c: Mapping, m: int) -> TStableApproximant:
    """Exact construction of the depth-m approximant of the sequence c."""
    m = _check_count(m, "m")
    d, nvars = _normalize_coeff_map(c)
    return TStableApproximant(m, MultiPoly.from_dict(_approximant_terms(d, m), nvars))


def certify_tstable(
    c: Mapping,
    m_max: int = DEFAULT.m_max_default,
    tail_bound: float = 0.0,
) -> StabilityCertificate:
    """Three-valued t-stability verdict for a nonnegative coefficient map.

    Refutation by any non-stable approximant is sound for the underlying
    sequence because the depth-m approximant only reads coefficients up to
    m; this stays valid when c is a truncation of an infinite-support
    sequence (declared through tail_bound > 0).  A genuinely finite-support
    sequence (tail_bound == 0) is t-stable exactly when its polynomial is
    stable, which supplies both confirmations and a direct refutation
    fallback.  Everything else is inconclusive.
    """
    m_max = _check_count(m_max, "m_max")
    if not (math.isfinite(tail_bound) and tail_bound >= 0):
        raise ValueError("tail_bound must be finite and >= 0")
    d, nvars = _normalize_coeff_map(c)
    for alpha, val in d.items():
        if val < 0:
            raise ValueError(f"negative coefficient at {alpha}: measures only")
    if all(val == 0 for val in d.values()) or not d:
        return StabilityCertificate(Verdict.INCONCLUSIVE, note="zero sequence")

    truncated = tail_bound > 0.0
    direct = None
    if not truncated:
        direct = is_stable_multi(MultiPoly.from_dict(d, nvars), budget=60)
        if direct.verdict is Verdict.STABLE:
            return StabilityCertificate(
                Verdict.STABLE,
                tolerance_used=direct.tolerance_used,
                note="finite support: stable polynomial is t-stable",
            )

    # falling(m, alpha) / m^|alpha| <= 1, so the l1 coefficient error of
    # each approximant is at most the declared tail mass.  is_stable_multi
    # takes no such allowance, so a truncated multivariate sequence is only
    # probed at depths whose approximants read no coefficient beyond c.
    if truncated and nvars > 1:
        m_max = min(m_max, min(max(alpha[i] for alpha in d) for i in range(nvars)))
    for m in range(1, m_max + 1):
        terms = _approximant_terms(d, m)
        if nvars == 1:
            # the approximant's to_uni(), built without the MultiPoly
            coeffs = [Fraction(0)] * (max((a for (a,) in terms), default=0) + 1)
            for (a,), v in terms.items():
                coeffs[a] = v
            cert = is_real_rooted(UniPoly.from_coeffs(coeffs), coeff_perturb=tail_bound)
        else:
            cert = is_stable_multi(MultiPoly.from_dict(terms, nvars), budget=60)
        if cert.verdict is Verdict.REFUTED:
            return StabilityCertificate(
                Verdict.REFUTED,
                witness=cert.witness,
                m=m,
                tolerance_used=cert.tolerance_used,
                note="approximant refutation",
            )

    if direct is not None and direct.verdict is Verdict.REFUTED:
        return StabilityCertificate(
            Verdict.REFUTED,
            witness=direct.witness,
            tolerance_used=direct.tolerance_used,
            note="direct refutation of the finite-support polynomial",
        )
    return StabilityCertificate(
        Verdict.INCONCLUSIVE,
        tolerance_used=tail_bound,
        note=f"no refutation through m={m_max}; confirmation unavailable",
    )
