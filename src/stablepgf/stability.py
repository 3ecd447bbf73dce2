"""Stability certification for polynomials and coefficient sequences.

A univariate real polynomial is stable exactly when all of its roots are
real; multivariate stability means no zeros with every coordinate in the
open upper half-plane.  Verdicts are three-valued: refutations are sound
(they come with a witness that re-evaluates to ~0 inside the upper
half-space), confirmations are certified in exact mode and policy-based in
float mode, everything else is reported as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT
from .polycore import (
    MultiPoly,
    UniPoly,
    _classify_float,
    exact_real_root_count,
)


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

    def to_json(self) -> dict:
        out = {"verdict": self.verdict.value, "tolerance_used": self.tolerance_used}
        if self.witness is not None:
            out["witness"] = [[z.real, z.imag] for z in self.witness]
        if self.m is not None:
            out["m"] = self.m
        if self.note:
            out["note"] = self.note
        return out


def witness_is_valid(f, witness: Sequence[complex], coeff_perturb: float = 0.0) -> bool:
    """Independent re-evaluation check for a refutation witness.

    The witness must be in the open upper half-space and |f| there must not
    exceed the evaluation error bound plus the coefficient perturbation
    allowance.
    """
    if any(z.imag <= 0 for z in witness):
        return False
    if isinstance(f, UniPoly):
        val, err = f.eval_with_bound(witness[0])
        deg = f.degree
        zmax = abs(witness[0])
    else:
        val, err = f.eval_with_bound(list(witness))
        deg = f.total_degree()
        zmax = max(abs(z) for z in witness)
    allowance = 8 * err + coeff_perturb * max(1.0, zmax) ** deg
    return abs(val) <= max(allowance, 1e-250)


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
    slack = perturb * max(1.0, abs(z)) ** m
    return abs(val) + err + slack < (lead - perturb) * abs(z.imag) ** m


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
        cnt = exact_real_root_count(p)
        if cnt == p.degree:
            return StabilityCertificate(Verdict.STABLE, tolerance_used=0.0)
        w = _best_complex_witness(UniPoly.from_coeffs(p.coeffs_float()))
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


def _best_complex_witness(g: UniPoly) -> complex:
    roots, _, _ = _classify_float(g, 0.0)
    ups = [z for z in roots if z.imag > 0]
    if not ups:
        ups = [z.conjugate() for z in roots if z.imag < 0]
    return max(ups, key=lambda z: z.imag)


# ---------------------------------------------------------------------------
# multivariate stability
# ---------------------------------------------------------------------------


def is_stable_multi(f: MultiPoly, budget: int = 200) -> StabilityCertificate:
    """Search for zeros of f in the open upper half-space.

    Strategy: a point of H^n lies on a line a + x*b with a real, b positive
    and Im(x) > 0, and on any such line f restricts to a real univariate
    polynomial, so refutation reduces to univariate non-real-rootedness.
    Symmetric multi-affine polynomials are decided exactly through their
    diagonal, bivariate ones with rational coefficients by the Rayleigh
    criterion; other multi-affine polynomials get a sampled confirmation;
    everything else can only be refuted or left inconclusive.
    """
    if f.is_zero:
        return StabilityCertificate(Verdict.INCONCLUSIVE, note="zero polynomial")
    if f.total_degree() == 0:
        return StabilityCertificate(Verdict.STABLE)
    if f.nvars == 1:
        return is_real_rooted(f.to_uni())

    multi_affine = f.is_multi_affine()
    if multi_affine and f.is_symmetric():
        diag = f.diagonal()
        cert = is_real_rooted(diag)
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

    if multi_affine and f.nvars == 2 and f.exact:
        return _rayleigh_bivariate(f)

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
            if all(zi.imag > 0 for zi in z) and witness_is_valid(f, z):
                return StabilityCertificate(
                    Verdict.REFUTED,
                    witness=z,
                    tolerance_used=cert.tolerance_used,
                    note="line-restriction witness",
                )
    if multi_affine:
        return StabilityCertificate(
            Verdict.STABLE,
            tolerance_used=DEFAULT.im_rel_tol,
            note=f"multi-affine, no refutation in {budget} line samples",
        )
    return StabilityCertificate(
        Verdict.INCONCLUSIVE,
        note=f"no refutation in {budget} line samples; no finite confirmation available",
    )


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
        if nvars is None:
            nvars = len(alpha)
        elif len(alpha) != nvars:
            raise ValueError("inconsistent multi-index lengths")
        d[alpha] = val
    if nvars is None:
        nvars = 1
    return d, nvars


def tstable_approximant(c: Mapping, m: int) -> TStableApproximant:
    """Exact construction of the depth-m approximant of the sequence c."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d, nvars = _normalize_coeff_map(c)
    terms = {}
    for alpha, val in d.items():
        if any(a > m for a in alpha):
            continue
        fall = 1
        for a in alpha:
            fall *= math.factorial(m) // math.factorial(m - a)
        tot = sum(alpha)
        if isinstance(val, (int, Fraction)):
            coeff = Fraction(val) * Fraction(fall, m**tot)
        else:
            coeff = float(val) * fall / float(m) ** tot
        if coeff != 0:
            terms[alpha] = coeff
    return TStableApproximant(m, MultiPoly.from_dict(terms, nvars))


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
        fm = tstable_approximant(d, m).poly
        if nvars == 1:
            cert = is_real_rooted(fm.to_uni(), coeff_perturb=tail_bound)
        else:
            cert = is_stable_multi(fm, budget=60)
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
