"""Polynomial primitives with a dual numeric regime.

Univariate polynomials are dense; multivariate ones are sparse maps from
multi-indices to coefficients.  Coefficients constructed from ints or
Fractions stay exact rationals; anything else is coerced to float and every
evaluation then returns a certified forward error bound alongside the value.
Real-root counting is exact (Sturm sequences of primitive integer
polynomials) in the exact regime and companion-matrix based with per-root
radius bounds in the float regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT

EPS = float(np.finfo(float).eps)
_U = EPS / 2.0  # unit roundoff


def _coerce_coeffs(values: Iterable):
    vals = list(values)
    if all(isinstance(v, (int, Fraction)) for v in vals):
        return [Fraction(v) for v in vals], True
    return [float(v) for v in vals], False


def _trim_trailing(coeffs: list) -> list:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate real polynomial; coeffs[k] multiplies x**k."""

    coeffs: tuple
    exact: bool

    @classmethod
    def from_coeffs(cls, values: Iterable) -> "UniPoly":
        vals, exact = _coerce_coeffs(values)
        if not exact and not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite coefficient in {vals}")
        if not vals:
            vals = [Fraction(0)] if exact else [0.0]
        return cls(tuple(_trim_trailing(vals)), exact)

    @classmethod
    def zero(cls, exact: bool = True) -> "UniPoly":
        return cls((Fraction(0),), True) if exact else cls((0.0,), False)

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((Fraction(1),), True)

    @classmethod
    def from_roots(cls, roots: Sequence) -> "UniPoly":
        p = cls.from_coeffs([1])
        for r in roots:
            p = p * cls.from_coeffs([-r, type(r)(1) if isinstance(r, Fraction) else 1])
        return p

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def lead(self):
        return self.coeffs[-1]

    def coeffs_float(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs], dtype=float)

    def to_float(self) -> "UniPoly":
        if not self.exact:
            return self
        return UniPoly(tuple(float(c) for c in self.coeffs), False)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        if self.exact and isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if self.exact else c)
        return acc

    def eval_with_bound(self, x):
        """Horner evaluation plus a certified forward error bound.

        Exact coefficients at an exact point give a zero bound.  Otherwise
        the bound is gamma_{4n} * sum |a_k||x|^k, which covers complex
        Horner roundoff and the float conversion of exact coefficients.
        """
        if self.exact and isinstance(x, (int, Fraction)):
            return self(x), 0.0
        val = self(x)
        n = len(self.coeffs)
        g = 4 * n * _U / (1 - 4 * n * _U)
        return val, g * self.abs_eval(abs(x))

    def abs_eval(self, r: float) -> float:
        acc = 0.0
        r = float(r)
        for c in reversed(self.coeffs):
            acc = acc * r + abs(float(c))
        return acc

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other: "UniPoly"):
        if self.exact and other.exact:
            return self.coeffs, other.coeffs, True
        return (
            tuple(float(c) for c in self.coeffs),
            tuple(float(c) for c in other.coeffs),
            False,
        )

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b, exact = self._pair(other)
        n = max(len(a), len(b))
        zero = Fraction(0) if exact else 0.0
        out = [zero] * n
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(tuple(_trim_trailing(out)), exact)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs), self.exact)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        a, b, exact = self._pair(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(exact)
        zero = Fraction(0) if exact else 0.0
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return UniPoly(tuple(_trim_trailing(out)), exact)

    __rmul__ = __mul__

    def scale(self, s) -> "UniPoly":
        if self.exact and isinstance(s, (int, Fraction)):
            return UniPoly(tuple(Fraction(s) * c for c in self.coeffs), True)
        return UniPoly(tuple(float(s) * float(c) for c in self.coeffs), False)

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly.zero(self.exact)
        out = [k * c for k, c in enumerate(self.coeffs)][1:]
        return UniPoly(tuple(_trim_trailing(out)), self.exact)

    def pow(self, k: int) -> "UniPoly":
        out = UniPoly.one() if self.exact else UniPoly.from_coeffs([1.0])
        for _ in range(k):
            out = out * self
        return out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list:
        if self.exact:
            return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]
        return [float(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# multivariate polynomials (sparse)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial: tuple of (multi-index, coefficient)."""

    nvars: int
    terms: tuple

    @classmethod
    def from_dict(cls, d: Mapping, nvars: int) -> "MultiPoly":
        clean = {}
        exact = True
        for alpha, c in d.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nvars:
                raise ValueError(f"multi-index {alpha} has wrong length for nvars={nvars}")
            if any(a < 0 for a in alpha):
                raise ValueError("negative exponent")
            if not isinstance(c, (int, Fraction)):
                exact = False
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
        if exact:
            clean = {a: Fraction(c) for a, c in clean.items() if c != 0}
        else:
            clean = {a: float(c) for a, c in clean.items() if c != 0}
            if not all(math.isfinite(c) for c in clean.values()):
                raise ValueError(f"non-finite coefficient in {clean}")
        return cls(nvars, tuple(sorted(clean.items())))

    def terms_dict(self) -> dict:
        return dict(self.terms)

    @property
    def exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for _, c in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(a) for a, _ in self.terms), default=0)

    def max_degree_per_var(self) -> tuple:
        out = [0] * self.nvars
        for a, _ in self.terms:
            for i, e in enumerate(a):
                out[i] = max(out[i], e)
        return tuple(out)

    def is_multi_affine(self) -> bool:
        return all(e <= 1 for a, _ in self.terms for e in a)

    def is_symmetric(self) -> bool:
        """True when coefficients are invariant under variable permutation."""
        groups: dict = {}
        for a, c in self.terms:
            groups.setdefault(tuple(sorted(a)), []).append((a, c))
        for key, members in groups.items():
            perms = set(itertools.permutations(key))
            if len(members) != len(perms):
                return False
            ref = members[0][1]
            if any(c != ref for _, c in members):
                return False
        return True

    # -- evaluation ----------------------------------------------------------

    def __call__(self, point: Sequence):
        val = 0
        for a, c in self.terms:
            term = c
            for x, e in zip(point, a):
                if e:
                    term = term * x**e
            val = val + term
        return val

    def eval_with_bound(self, point: Sequence):
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        exact_pt = all(isinstance(x, (int, Fraction)) for x in point)
        if self.exact and exact_pt:
            val = Fraction(0)
            for a, c in self.terms:
                term = Fraction(c)
                for x, e in zip(point, a):
                    term *= Fraction(x) ** e
                val += term
            return val, 0.0
        val = 0.0
        absval = 0.0
        for a, c in self.terms:
            term = complex(c) if any(isinstance(x, complex) for x in point) else float(c)
            aterm = abs(float(c))
            for x, e in zip(point, a):
                if e:
                    term = term * x**e
                    aterm = aterm * abs(x) ** e
            val = val + term
            absval += aterm
        nops = self.total_degree() + len(self.terms) + 2
        g = 4 * nops * _U / (1 - 4 * nops * _U)
        return val, g * absval

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        d = dict(self.terms)
        for a, c in other.terms:
            d[a] = d.get(a, 0) + c
        return MultiPoly.from_dict(d, self.nvars)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, tuple((a, -c) for a, c in self.terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        return MultiPoly.from_dict(dict(_mul_terms(self.terms, other.terms)), self.nvars)

    __rmul__ = __mul__

    def scale(self, s) -> "MultiPoly":
        return MultiPoly.from_dict({a: c * s for a, c in self.terms}, self.nvars)

    def pow(self, k: int) -> "MultiPoly":
        out = MultiPoly.from_dict({(0,) * self.nvars: 1}, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    # -- substitution ---------------------------------------------------------

    def compose_affine(self, consts: Sequence, mat: Sequence[Sequence]) -> "MultiPoly":
        """Substitute x_i <- consts[i] + sum_j mat[i][j]*x_j for every i.

        Each term is multiplied by the powers of its variables' substitutes
        in variable order, by the product routine of __mul__ on plain term
        lists, and the terms are summed in order.
        """
        n = self.nvars
        unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        zero = (0,) * n
        powers = []  # powers[i][e - 1]: the i-th substitute to the power e
        for i, top in enumerate(self.max_degree_per_var()):
            d = {unit[j]: m for j, m in enumerate(mat[i]) if m != 0}
            if consts[i] != 0:
                d[zero] = consts[i]
            ps = [MultiPoly.from_dict(d, n).terms]
            for _ in range(top - 1):
                ps.append(_mul_terms(ps[-1], ps[0]))
            powers.append(ps)
        out: dict = {}
        for a, c in self.terms:
            term = [(zero, c)]
            for i, e in enumerate(a):
                if e:
                    term = _mul_terms(term, powers[i][e - 1])
            for key, v in term:
                out[key] = out.get(key, 0) + v
        return MultiPoly.from_dict(out, n)

    def restrict_line(self, a: Sequence, b: Sequence) -> UniPoly:
        """Univariate restriction x -> f(a + x*b), in float arithmetic.

        Row k of a (terms x total degree + 1) array becomes term k's
        restriction c_k prod_i (a_i + b_i x)^e_ki, one variable at a time
        for all terms together; the rows are then summed in term order.
        Each product coefficient accumulates its terms in the order of a
        dense product loop, so the result matches term-by-term products
        summed in the same order.
        """
        width = self.total_degree() + 1
        rows = np.zeros((len(self.terms), width))
        rows[:, 0] = [float(c) for _, c in self.terms]
        exps = np.array([alpha for alpha, _ in self.terms], dtype=int).reshape(-1, self.nvars)
        for i, ai, bi in zip(range(self.nvars), a, b):
            top = int(exps[:, i].max(initial=0))
            if top == 0:
                continue
            ai, bi = float(ai), float(bi)
            # powers[e] = (a_i + b_i x)^e
            powers = np.zeros((top + 1, width))
            powers[0, 0] = 1.0
            for e in range(1, top + 1):
                powers[e] = powers[e - 1] * ai
                powers[e, 1:] += powers[e - 1, :-1] * bi
            factor = powers[exps[:, i]]
            out = np.zeros_like(rows)
            # highest shift first: coefficient t then sums rows[t - j] *
            # factor[j] by increasing t - j
            for j in range(top, -1, -1):
                out[:, j:] += rows[:, : width - j] * factor[:, j : j + 1]
            rows = out
        total = np.cumsum(rows, axis=0)[-1] if len(rows) else np.zeros(width)
        return UniPoly(tuple(_trim_trailing(total.tolist())), False)

    def diagonal(self) -> UniPoly:
        """Substitute every variable by the same x."""
        maxd = self.total_degree()
        exact = self.exact
        zero = Fraction(0) if exact else 0.0
        out = [zero] * (maxd + 1)
        for a, c in self.terms:
            out[sum(a)] += c
        return UniPoly.from_coeffs(out)

    def to_uni(self) -> UniPoly:
        if self.nvars != 1:
            raise ValueError("not univariate")
        return self.diagonal()


def _mul_terms(p: list, q: list) -> list:
    """Product of two term lists: the pairs are summed per multi-index in
    the order of the two lists, and zero sums are dropped."""
    d: dict = {}
    for a, ca in p:
        for b, cb in q:
            key = tuple(x + y for x, y in zip(a, b))
            d[key] = d.get(key, 0) + ca * cb
    return sorted((k, c) for k, c in d.items() if c != 0)


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and polarization
# ---------------------------------------------------------------------------


def elem_sym_all(values: Sequence) -> list:
    """All elementary symmetric functions e_0..e_m of the given values."""
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    e = [one] + [zero] * len(values)
    for m, x in enumerate(values, start=1):
        xv = Fraction(x) if exact else float(x)
        for k in range(m, 0, -1):
            e[k] = e[k] + xv * e[k - 1]
    return e


def elem_sym(k: int, values: Sequence):
    if k < 0 or k > len(values):
        raise ValueError(f"k={k} out of range for {len(values)} values")
    return elem_sym_all(values)[k]


def polarize(p: UniPoly, N: int) -> MultiPoly:
    """Multi-affine symmetrization of p into N variables.

    The coefficient a_k of x^k becomes a_k / C(N,k) times the k-th
    elementary symmetric polynomial, so the diagonal restriction recovers p.
    """
    return polarize_multi(MultiPoly.from_dict({(k,): c for k, c in enumerate(p.coeffs)}, 1), N)


def polarize_multi(f: MultiPoly, N: int) -> MultiPoly:
    """Polarize every variable of f into a block of N multi-affine variables.

    Variable i maps to variables i*N .. i*N+N-1 of the result.
    """
    if any(d > N for d in f.max_degree_per_var()):
        raise ValueError("per-variable degree exceeds N")
    n = f.nvars
    d: dict = {}
    for alpha, c in f.terms:
        denom = 1
        for e in alpha:
            denom *= math.comb(N, e)
        coeff = Fraction(c, denom) if isinstance(c, Fraction) else float(c) / denom
        block_choices = [itertools.combinations(range(N), e) for e in alpha]
        for picks in itertools.product(*block_choices):
            beta = [0] * (n * N)
            for i, pick in enumerate(picks):
                for j in pick:
                    beta[i * N + j] = 1
            key = tuple(beta)
            d[key] = d.get(key, 0) + coeff
    return MultiPoly.from_dict(d, n * N)


# ---------------------------------------------------------------------------
# exact real-root machinery (Sturm sequences of primitive integer polynomials)
# ---------------------------------------------------------------------------


def _numerators(values: Sequence) -> tuple:
    """Integer numerators of rationals over their least common denominator D, and D."""
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def _primitive(f: list) -> list:
    """f divided by its content, signed so that the leading coefficient is
    positive; [0] stays [0]."""
    g = math.gcd(*f) or 1
    return [v // g for v in f] if f[-1] > 0 else [-v // g for v in f]


def _deriv(f: list) -> list:
    return [k * v for k, v in enumerate(f)][1:]  # f is not constant


def _prem(a: list, b: list) -> list:
    """Remainder of |lc(b)|^k a modulo b, k the number of reduction steps.

    Multiplying by |lc(b)| only, never by lc(b), makes the result a
    positive multiple of the remainder of a by b over the rationals.
    """
    r = list(a)
    lb, sb = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(r) >= len(b) and r != [0]:
        f, shift = r[-1] * sb, len(r) - len(b)
        r = [lb * v for v in r]
        for i, v in enumerate(b):
            r[shift + i] -= f * v
        r = _trim_trailing(r)
    return r


def _div_exact(a: list, b: list) -> list:
    """a / b for a primitive b that divides a over the rationals; by
    Gauss's lemma the quotient is integral, so every step divides exactly."""
    r = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        f = r[shift + len(b) - 1] // b[-1]
        q[shift] = f
        for i, v in enumerate(b):
            r[shift + i] -= f * v
    return q


def _gcd(a: list, b: list) -> list:
    """Primitive gcd with a positive leading coefficient (primitive
    pseudo-remainder sequence)."""
    while b != [0]:
        a, b = b, _primitive(_prem(a, b))
    return _primitive(a)


def _yun_squarefree(c: Sequence) -> list:
    """Yun's algorithm on rational coefficients c: [(factor, multiplicity)]
    with c a rational multiple of prod f_i^i.

    Each factor is a primitive integer polynomial with a positive leading
    coefficient.  w and y are always divided by the same polynomial, so
    they keep the ratio that Yun's z = y - w' needs.
    """
    c = _primitive(_numerators(c)[0])
    dc = _deriv(c)
    g = _gcd(c, dc)
    if len(g) == 1:
        return [(c, 1)]
    w, y = _div_exact(c, g), _div_exact(dc, g)
    out, i = [], 1
    while len(w) > 1:
        dw = _deriv(w)
        z = _trim_trailing([u - v for u, v in itertools.zip_longest(y, dw, fillvalue=0)])
        fi = _gcd(w, z)
        if len(fi) > 1:
            out.append((fi, i))
        w, y = _div_exact(w, fi), _div_exact(z, fi)
        i += 1
    return out


def _sign_at(f: list, x: Fraction) -> int:
    """Sign of the integer polynomial f at x = m/q (q > 0).

    Horner on the homogenized form sum_k f_k m^k q^(d-k) = q^d f(x), which
    has the sign of f(x) and needs integer arithmetic only.
    """
    m, q = x.numerator, x.denominator
    acc, qk = f[-1], 1
    for v in f[-2::-1]:
        qk *= q
        acc = acc * m + v * qk
    return (acc > 0) - (acc < 0)


def _sign_variations(chain: list, x: Fraction) -> int:
    signs = [s for s in (_sign_at(f, x) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class _SturmFactor(NamedTuple):
    """A square-free Yun factor, its multiplicity, Sturm chain and Cauchy
    bound B, and the chain's sign variations at -B and B, whose difference
    counts the factor's real roots."""

    coeffs: list
    mult: int
    chain: list
    bound: Fraction
    v_lo: int
    v_hi: int

    @property
    def nonreal_count(self) -> int:
        return len(self.coeffs) - 1 - (self.v_lo - self.v_hi)


def _sturm_factors(c: Sequence) -> list:
    """The exact pass over nonconstant rational coefficients c: each Yun
    factor with its _SturmFactor data.

    Each member of the Sturm chain is primitive and a positive multiple of
    the chain's member over the rationals, so every sign, and with it every
    Sturm count, is the same.  Every root lies in (-B, B) for the Cauchy
    bound B = 1 + max |c_k / c_n|, whatever the factor's scale.
    """
    out = []
    for fac, mult in _yun_squarefree(c):
        chain = [fac, _primitive(_deriv(fac))]
        while len(chain[-1]) > 1:
            r = _prem(chain[-2], chain[-1])
            if r == [0]:
                break
            g = math.gcd(*r)
            chain.append([-v // g for v in r])
        B = 1 + max(Fraction(abs(v), fac[-1]) for v in fac[:-1])
        v_lo, v_hi = _sign_variations(chain, -B), _sign_variations(chain, B)
        out.append(_SturmFactor(fac, mult, chain, B, v_lo, v_hi))
    return out


def _isolate_roots(f: _SturmFactor, width: Fraction):
    """Isolating intervals (a, b] of width <= width for the roots of f.

    Bisection of (-B, B] keeps the halves that hold roots, judged by Sturm
    counts until an interval holds one root and from then on by the sign
    of the factor alone: a simple root is the only sign change of the
    factor in its interval.  The midpoints and the halves kept are those
    of Sturm bisection throughout.
    """
    out = []

    def refine(lo, hi):
        # one root in (lo, hi], kept half-open as the counts are: the root
        # is hi when s_hi is 0, and then no midpoint sign is 0 or matches
        s_hi = _sign_at(f.coeffs, hi)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s_mid = _sign_at(f.coeffs, mid)
            if s_mid == 0 or s_mid == s_hi:
                hi, s_hi = mid, s_mid
            else:
                lo = mid
        out.append((lo, hi))

    def split(lo, hi, v_lo, v_hi):
        if v_lo - v_hi == 1:
            refine(lo, hi)
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _sign_variations(f.chain, mid)
            split(lo, mid, v_lo, v_mid)
            split(mid, hi, v_mid, v_hi)

    split(-f.bound, f.bound, f.v_lo, f.v_hi)
    return out


def exact_real_root_count(p: UniPoly) -> int:
    """Number of real roots with multiplicity; requires exact coefficients."""
    if not p.exact:
        raise ValueError("exact_real_root_count needs rational coefficients")
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    return sum(f.mult * (f.v_lo - f.v_hi) for f in _sturm_factors(p.coeffs))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootList:
    """All roots (with multiplicity), per-root radius bounds and realness flags.

    real[i] says whether roots[i] counts as real.  In exact mode the real
    roots are the Sturm-isolated ones, with isolating-interval half-widths
    as radii.  Every float judgement goes through one policy
    (_classify_float), which is_real_rooted shares: roots are located on
    the coefficients left after trim_for_roots, but each radius is the
    smaller of the nearest-root bounds ((|p(z)|+err)/|lead|)^(1/n) and
    n(|p(z)|+err)/(|p'(z)|-err') of the input polynomial at its full
    degree n, so some root of the input lies within it, and a float root
    counts as real when |Im z| is within the largest of that radius, the
    tolerance floors and the condition-number term.  If p is real-rooted
    every flag is set; a cleared flag shows a non-real root of p.  Exact
    mode takes the radii of its non-real roots from the same routine.
    bp_decompose filters more strictly, on the tolerance floors alone,
    because the radius term also admits near-real roots of a truncated
    Poisson factor, which are not Bernoulli factors.
    """

    roots: tuple
    radii: tuple
    real: tuple

    @property
    def certified_real_count(self) -> int:
        return sum(self.real)


def _newton_polish(coeffs_float: np.ndarray, z: complex, iters: int = 4) -> complex:
    dcoeffs = np.array([k * c for k, c in enumerate(coeffs_float)][1:], dtype=float)
    for _ in range(iters):
        pv = 0.0 + 0.0j
        for c in coeffs_float[::-1]:
            pv = pv * z + c
        dv = 0.0 + 0.0j
        for c in dcoeffs[::-1]:
            dv = dv * z + c
        if dv == 0:
            break
        step = pv / dv
        if not np.isfinite(step.real) or not np.isfinite(step.imag):
            break
        z = z - step
    return z


def _float_companion_roots(coeffs_float: Sequence[float]) -> list:
    c = _trim_trailing([float(v) for v in coeffs_float])
    if len(c) <= 1:
        return []
    return [complex(z) for z in np.roots(np.array(c[::-1], dtype=float))]


def trim_for_roots(coeffs: Sequence[float], trim_rel: float):
    """Drop trailing coefficients below trim_rel * max|c|.

    Returns (trimmed coefficient list, l1 mass of dropped coefficients).
    """
    c = [float(v) for v in coeffs]
    scale = max((abs(v) for v in c), default=0.0)
    if scale == 0.0:
        return [0.0], 0.0
    cut = trim_rel * scale
    dropped = 0.0
    while len(c) > 1 and abs(c[-1]) <= cut:
        dropped += abs(c.pop())
    return c, dropped


def _classify_float(g: UniPoly, trim_rel: float, perturb: float = 0.0):
    """Locate the roots of a nonconstant float polynomial and judge each.

    Trimming at trim_rel only feeds the companion matrix and the Newton
    polish; every bound is evaluated on g itself at its full degree n.
    perturb is an l1 bound on unknown coefficient error, which widens each
    threshold by the first-order root shift it can cause.  Returns (roots,
    radii, thresholds); a root counts as real when |Im z| <= its threshold.
    """
    n, lead, dg = g.degree, abs(g.lead), g.derivative()
    cs, _ = trim_for_roots(g.coeffs, trim_rel)
    roots = [_newton_polish(np.array(cs, dtype=float), z) for z in _float_companion_roots(cs)]
    radii, thresholds = [], []
    for z in roots:
        val, err = g.eval_with_bound(z)
        dval, derr = dg.eval_with_bound(z)
        dmag = max(abs(dval), 1e-300)
        cond = g.abs_eval(abs(z)) / dmag
        # perturb * |z|**n can overflow on its own, so only form it when needed
        shift = perturb * max(1.0, abs(z)) ** n / dmag if perturb > 0 else 0.0
        # nearest-root bounds: some root of g lies within both
        # (|g(z)|/|lead|)^(1/n), as |g(z)| = |lead| prod |z - r_i|, and
        # n|g(z)/g'(z)|, as g'/g = sum 1/(z - r_i).  The first stays
        # usable where g'(z) is lost in rounding, as at multiple roots
        # (which split at rate sqrt(t)), but grows with every far root,
        # such as those whose leading coefficients were trimmed; the second
        # does not.  If g is real-rooted its nearest root to z is real, so
        # |Im z| is within either bound.
        rad = ((abs(val) + err) / lead) ** (1.0 / n)
        if abs(dval) > derr:
            rad = min(rad, n * (abs(val) + err) / (abs(dval) - derr))
        radii.append(rad)
        floor = max(DEFAULT.im_abs_tol, DEFAULT.im_rel_tol * max(1.0, abs(z)))
        thresholds.append(max(floor, cond * _U, shift, rad))
    return roots, radii, thresholds


def _nonreal_roots(f: _SturmFactor) -> list:
    """(root, radius) of the non-real roots of the exact factor f, by
    decreasing |Im z|.  An exact factor is not a truncated series, so all
    of its roots are located, on a monic float copy (_located_roots).  If
    one that is taken lies on the real axis, rounding the copy has merged
    a pair of non-real roots near it: f is then shifted exactly to that
    root's real part c, where the pair sits near 0 and its imaginary parts
    are resolved, and located again."""
    pairs = _located_roots(f.coeffs)[: f.nonreal_count]
    on_axis = [z for z, _ in pairs if z.imag == 0.0]
    if on_axis:
        c = on_axis[0].real
        g = MultiPoly.from_dict({(k,): v for k, v in enumerate(f.coeffs)}, 1)
        shifted = _located_roots(g.compose_affine([Fraction(c)], [[1]]).to_uni().coeffs)
        pairs = [(z + c, rad) for z, rad in shifted[: f.nonreal_count]]
    return pairs


def _located_roots(c: Sequence) -> list:
    """(root, radius) of every root of the polynomial with exact
    coefficients c, by decreasing |Im z|, located on its monic float copy
    c_k / c_n, which does not depend on the scale of the input.  When a
    ratio would overflow or underflow a float, the roots are located on
    the copy of f(2^s y) instead and scaled back by 2^s, with s from the
    ratios' bit lengths such that every root y has |y| <= 4 (Fujiwara's
    bound)."""
    n = len(c) - 1
    ratios = [Fraction(v) / c[-1] for v in c]
    bits = {
        i: abs(r.numerator).bit_length() - r.denominator.bit_length()
        for i, r in enumerate(ratios[:-1])
        if r
    }
    s = 0
    if not all(-1021 <= e <= 1022 for e in bits.values()):
        s = max(-(-e // (n - i)) for i, e in bits.items())
        ratios = [r * Fraction(2) ** (s * (i - n)) for i, r in enumerate(ratios)]
    zs, rads, _ = _classify_float(UniPoly.from_coeffs([float(r) for r in ratios]), 0.0)
    pairs = [
        (complex(math.ldexp(z.real, s), math.ldexp(z.imag, s)), math.ldexp(rad, s))
        for z, rad in zip(zs, rads)
    ]
    return sorted(pairs, key=lambda zr: abs(zr[0].imag), reverse=True)


def real_roots(p: UniPoly) -> RootList:
    """Locate all roots of p; see RootList for the certification semantics."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return RootList((), (), ())

    if not p.exact:
        roots, radii, thresholds = _classify_float(p, DEFAULT.trim_rel)
        real = tuple(abs(z.imag) <= thr for z, thr in zip(roots, thresholds))
        return RootList(tuple(roots), tuple(radii), real)

    roots, radii, real = [], [], []
    width = Fraction(DEFAULT.isolation_width).limit_denominator(10**18)
    for f in _sturm_factors(p.coeffs):
        located = []
        for lo, hi in _isolate_roots(f, width):
            mid = float((lo + hi) / 2)
            located.append((complex(mid, 0.0), float(hi - lo) / 2 + abs(mid) * EPS, True))
        if f.nonreal_count:
            located += [(z, rad, False) for z, rad in _nonreal_roots(f)]
        for z, rad, is_real in located:
            roots += [z] * f.mult
            radii += [rad] * f.mult
            real += [is_real] * f.mult
    return RootList(tuple(roots), tuple(radii), tuple(real))


# ---------------------------------------------------------------------------
# special polynomial families
# ---------------------------------------------------------------------------


def hermite_sum_form(n: int) -> UniPoly:
    """H_n(a) = sum_k (-1)^k n!/(k!(n-2k)!) a^(n-2k).

    This is the physicists' Hermite polynomial evaluated at half argument,
    so it has n distinct real roots at twice the usual locations.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] += Fraction((-1) ** k * math.factorial(n), math.factorial(k) * math.factorial(n - 2 * k))
    return UniPoly.from_coeffs(coeffs)


def kummer_series_poly(n: int) -> UniPoly:
    """Truncated confluent hypergeometric series 1F1(1-n; 1; y) in y.

    Degree n-1 with exact rational coefficients (1-n)_k / (k!)^2; its
    zeros in y are positive, so the corresponding x = -1/y zeros are
    negative and there are exactly n-1 of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = []
    poch = Fraction(1)
    for k in range(n):
        coeffs.append(poch / Fraction(math.factorial(k)) ** 2)
        poch *= 1 - n + k
    return UniPoly.from_coeffs(coeffs)


def quadratic_death_cluster_poly(n: int) -> UniPoly:
    """Limit polynomial of the rescaled small roots under death rate k(k-1).

    Starting from n particles, the n-1 nonzero roots of the generating
    function scale like z = x*t where x runs over the negative zeros of
    R(x) = sum_k [n]_k [n-1]_k / k! x^(n-1-k), obtained from the order-t^n
    Taylor expansion of the semigroup applied to z^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [Fraction(0)] * n
    for k in range(n):
        fall_n = math.factorial(n) // math.factorial(n - k)
        fall_n1 = math.factorial(n - 1) // math.factorial(n - 1 - k)
        coeffs[n - 1 - k] = Fraction(fall_n * fall_n1, math.factorial(k))
    return UniPoly.from_coeffs(coeffs)


def negative_x_zeros_of_series(p: UniPoly) -> list:
    """Zeros in x of p(y) under y = -1/x, for p with positive y-zeros."""
    rl = real_roots(p)
    ys = sorted(z.real for z, real in zip(rl.roots, rl.real) if real)
    return sorted(-1.0 / y for y in ys if y > 0)
