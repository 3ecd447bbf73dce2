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
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT

EPS = float(np.finfo(float).eps)
_U = EPS / 2.0  # unit roundoff


class InputRangeError(ValueError):
    """A finite input that no float computation covers: rates whose sum
    leaves the float range, a Poisson mean above
    measures._MAX_POISSON_MEAN, a Lie split box above
    bdchain._MAX_SPLIT_BOX, or an exact polynomial with a root outside
    the float range (a real root, or a non-real one with a part that
    overflows or an imaginary part that underflows to 0)."""


def _coerce_coeffs(values: Iterable):
    vals = list(values)
    if all(isinstance(v, (int, Fraction)) for v in vals):
        return [v if type(v) is Fraction else Fraction(v) for v in vals], True
    return [float(v) for v in vals], False


def _check_count(n, name: str, low: int = 1) -> int:
    """n as an int; a float (4.0 included), a bool or a count below low
    raises ValueError."""
    try:
        if isinstance(n, (bool, np.bool_)):  # operator.index(True) is 1
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if n < low:
        raise ValueError(f"{name} must be >= {low}")
    return n


def _horner_gamma(n: int) -> float:
    """gamma_{4n}, the relative bound of eval_with_bound for n coefficients."""
    return 4 * n * _U / (1 - 4 * n * _U)


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
        val, mag = self.eval_with_abs(x)
        return val, _horner_gamma(len(self.coeffs)) * mag

    def eval_with_abs(self, x):
        """(p(x), sum |a_k||x|^k) from one Horner pass over float coefficients.

        Each accumulator takes exactly the steps of its own Horner loop, so
        the value has the bits of self(x) at a non-exact point.
        """
        cs = [float(c) for c in self.coeffs] if self.exact else self.coeffs
        r = float(abs(x))
        acc = mag = 0.0
        for c in reversed(cs):
            acc = acc * x + c
            mag = mag * r + abs(c)
        return acc, mag

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
                clean[alpha] = clean[alpha] + c if alpha in clean else c
        if exact:
            clean = {
                a: c if type(c) is Fraction else Fraction(c) for a, c in clean.items() if c != 0
            }
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
        """True when coefficients are invariant under variable permutation.

        The multi-indices are distinct, so a group of them sharing one sorted
        form holds all its permutations exactly when it has as many members
        as there are distinct permutations, len! / prod(mult!).
        """
        groups: dict = {}
        for a, c in self.terms:
            groups.setdefault(tuple(sorted(a)), []).append((a, c))
        for key, members in groups.items():
            perms = math.factorial(len(key))
            for mult in Counter(key).values():
                perms //= math.factorial(mult)
            if len(members) != perms:
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
            k = sum(a)
            out[k] = out[k] + c if out[k] else c  # not 0 + c, a new Fraction
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


def _yun_squarefree(c: list, g: list) -> list:
    """Yun's algorithm on the primitive integer polynomial c, whose gcd with
    c' is g: [(factor, multiplicity)] with c a rational multiple of
    prod f_i^i.

    Each factor is a primitive integer polynomial with a positive leading
    coefficient.  w and y are always divided by the same polynomial, so
    they keep the ratio that Yun's z = y - w' needs.
    """
    w, y = _div_exact(c, g), _div_exact(_deriv(c), g)
    out, i = [], 0
    while len(w) > 1:
        i += 1
        dw = _deriv(w)
        z = _trim_trailing([u - v for u, v in itertools.zip_longest(y, dw, fillvalue=0)])
        if len(z) == 1 and z[0]:
            # gcd(w, z) = 1: no factor of multiplicity i, and w stays
            y = z
            continue
        fi = _gcd(w, z)
        if len(fi) > 1:
            out.append((fi, i))
        w, y = _div_exact(w, fi), _div_exact(z, fi)
    return out


def _sturm_chain(f: list) -> list:
    """The Sturm chain of the primitive integer polynomial f, each member
    primitive and a positive multiple of the chain's member over the
    rationals, so that every sign, and with it every Sturm count, is the
    same.  When f is not square-free the chain stops at a multiple of
    gcd(f, f'), with which the primitive remainder sequence of gcd(f, f')
    ends too."""
    chain = [f, _primitive(_deriv(f))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if r == [0]:
            break
        g = math.gcd(*r)
        chain.append([-v // g for v in r])
    return chain


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _variations(signs: Iterable) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _homogenized(f: list, m: int, e: int) -> int:
    """2^(e d) f(m / 2^e) for the integer polynomial f of degree d: Horner
    on sum_k f_k m^k 2^(e(d-k)), in which every power of the denominator
    is a shift."""
    acc, sh = f[-1], 0
    for v in f[-2::-1]:
        sh += e
        acc = acc * m + (v << sh)
    return acc


def _dyadic_sign(f: list, m: int, e: int) -> int:
    """Sign of the integer polynomial f at m / 2^e, taken in lowest terms."""
    if m == 0:
        return _sign(f[0])
    t = min(e, (m & -m).bit_length() - 1)
    return _sign(_homogenized(f, m >> t, e - t))


class _SturmFactor(NamedTuple):
    """A square-free Yun factor, its multiplicity and Sturm chain, and the
    chain's sign variations at -inf and +inf, whose difference counts the
    factor's real roots.  Every root lies in (-B, B) for the Cauchy bound B
    (_cauchy_bound), so these are also the variations at -B and B."""

    coeffs: list
    mult: int
    chain: list
    v_lo: int
    v_hi: int

    @property
    def nonreal_count(self) -> int:
        return len(self.coeffs) - 1 - (self.v_lo - self.v_hi)


def _sturm_factors(c: Sequence) -> list:
    """The exact pass over nonconstant rational coefficients c: each Yun
    factor with its _SturmFactor data.

    The Sturm chain of the primitive input is built first.  It is the
    primitive remainder sequence that gcd(c, c') runs, so it decides
    whether c is square-free and, if it is not, ends with that gcd, from
    which Yun's algorithm starts.
    """
    c = _primitive(_numerators(c)[0])
    chain = _sturm_chain(c)
    if len(chain[-1]) == 1:
        pairs = [(c, 1, chain)]
    else:
        pairs = [(f, i, _sturm_chain(f)) for f, i in _yun_squarefree(c, _primitive(chain[-1]))]
    return [
        _SturmFactor(
            f,
            i,
            ch,
            _variations(_sign(g[-1]) * (-1) ** (len(g) - 1) for g in ch),
            _variations(_sign(g[-1]) for g in ch),
        )
        for f, i, ch in pairs
    ]


def _root_bound_exponent(f: list) -> int:
    """t with every root z of the integer polynomial f below 2^t in
    modulus: Fujiwara's bound 2 max_k |f_(d-k) / f_d|^(1/k) (Tohoku Math.
    J. 10, 1916), each ratio rounded up to a power of two from bit
    lengths."""
    d, top = len(f) - 1, f[-1].bit_length()
    return 1 + max(
        (-((top - 1 - abs(v).bit_length()) // k) for k, v in zip(range(d, 0, -1), f) if v),
        default=0,
    )


def _cauchy_bound(f: list) -> tuple:
    """(P, Q) in lowest terms with P/Q = 1 + max |f_k / f_d|, for f with a
    positive leading coefficient f_d."""
    n, d = f[-1] + max(abs(v) for v in f[:-1]), f[-1]
    g = math.gcd(n, d)
    return n // g, d // g


def _root_estimate(f: list, df: list, a: float, b: float, s_b: int, cell: float):
    """A float near the one root of the integer polynomial f in (a, b), on
    whose right f has the sign s_b, or None.

    Newton's iteration runs from the midpoint, with f(x) and f'(x) taken
    exactly at each iterate x, so that only the step is rounded, and the
    sign of f(x) shrinks the bracket; a step that leaves the bracket is
    replaced by its midpoint.  It stops once a step is below cell / 16,
    and gives up after 40 steps.
    """
    x = a + (b - a) / 2
    for _ in range(40):
        n, q = x.as_integer_ratio()
        s = q.bit_length() - 1
        v = _homogenized(f, n, s)
        if v == 0:
            return x
        if _sign(v) == s_b:
            b = x
        else:
            a = x
        try:
            y = x - v / (_homogenized(df, n, s) << s)
        except (ZeroDivisionError, OverflowError):
            y = math.nan
        if not a <= y <= b:
            y = a + (b - a) / 2
        if abs(y - x) <= cell / 16:
            return y
        x = y
    return None


def _bisect_cell(F: list, lo: int, hi: int, e: int, K: int, s_hi: int) -> tuple:
    """Bisection of the cell (lo, hi] / 2^e that holds one simple root of
    the scaled factor F down to depth K, judged by the sign of F, s_hi at
    hi: a simple root is the only sign change of F in its cell.  The cell
    is half-open, as the Sturm counts are: the root is hi when s_hi is 0,
    and then no midpoint sign is 0 or matches."""
    while e < K:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = (lo + hi) // 2
        s_mid = _dyadic_sign(F, mid, e)
        if s_mid == 0 or s_mid == s_hi:
            hi, s_hi = mid, s_mid
        else:
            lo = mid
    return lo, hi


def _final_cell(F: list, f: list, df: list, P: int, Q: int, lo: int, hi: int, e: int, K: int):
    """The depth-K cell (c - 2, c] / 2^K that holds the one simple root of
    the scaled factor F in (lo, hi] / 2^e, e < K: the cell that bisection
    ends in, as the cells of all depths are nested.

    Right of the root F has the sign s of F(hi), unless that is 0 and the
    root is hi; left of it, -s.  _root_estimate proposes the cell, and
    exact signs prove it: F(c) is 0 or s, and F(c - 2) is -s.  When F(c)
    is -s instead, the root is right of c, in (c, c + 2] if F(c + 2) is 0
    or s.  A cell inside (lo, hi] that holds a root holds this one.
    Without an estimate or a proof, the cell is bisected.
    """
    s_hi = _dyadic_sign(F, hi, e)
    left, right = lo << (K - e), hi << (K - e)
    if s_hi == 0:
        return right - 2, right
    try:
        a, b = P * lo / (Q << e), P * hi / (Q << e)
        x = _root_estimate(f, df, a, b, s_hi, 2 * P / (Q << K))
    except OverflowError:
        x = None
    if x is not None:
        n, q = x.as_integer_ratio()
        c = 2 * -((-n * Q << (K - 1)) // (q * P))
        if left <= c - 2 and c <= right:
            if _dyadic_sign(F, c, K) != -s_hi:
                if _dyadic_sign(F, c - 2, K) == -s_hi:
                    return c - 2, c
            elif _dyadic_sign(F, c + 2, K) != -s_hi:  # F(right) is s, so c < right
                return c, c + 2
    return _bisect_cell(F, lo, hi, e, K, s_hi)


def _isolate_roots(f: _SturmFactor, width: Fraction):
    """Isolating intervals (a, b] of width <= width for the roots of f.

    These are the intervals of Sturm bisection of (-B, B], B = P/Q the
    Cauchy bound, worked in u = x / B: every midpoint is a dyadic m / 2^e,
    and every chain member g of degree k is scaled once to the integer
    polynomial Q^k g(P u / Q), which has the sign of g(x), so that each
    sign is one integer Horner pass with shifts (_dyadic_sign).  Cells are
    split by Sturm counts until one holds one root.  Its final cell, found
    by _final_cell, is the cell of the first depth K at which a cell,
    2B / 2^K wide, is within width; a cell isolated deeper than K is final
    as it is.
    """
    P, Q = _cauchy_bound(f.coeffs)
    top = len(f.coeffs) - 1
    pw, qw = [1], [1]
    for _ in range(top):
        pw.append(pw[-1] * P)
        qw.append(qw[-1] * Q)
    chain = [[v * pw[k] * qw[len(g) - 1 - k] for k, v in enumerate(g)] for g in f.chain]
    a, b = 2 * P * width.denominator, width.numerator * Q
    K = max(0, a.bit_length() - b.bit_length())
    K += a > b << K
    t = _root_bound_exponent(f.coeffs)
    df, cells = _deriv(f.coeffs), []

    def split(lo, hi, e, v_lo, v_hi):
        if v_lo - v_hi == 1:
            if e < K:
                lo, hi = _final_cell(chain[0], f.coeffs, df, P, Q, lo, hi, e, K)
                e = K
            cells.append((lo, hi, e))
        elif v_lo - v_hi > 1:
            mid, s = lo + hi, t + e + 1
            # past 2^t in modulus, the midpoint x = B mid / 2^(e+1) has
            # every root on its inner side, so its Sturm count is known
            if P * abs(mid) << max(0, -s) >= Q << max(0, s):
                v_mid = v_lo if mid < 0 else v_hi
            else:
                v_mid = _variations(_dyadic_sign(g, mid, e + 1) for g in chain)
            split(2 * lo, mid, e + 1, v_lo, v_mid)
            split(mid, 2 * hi, e + 1, v_mid, v_hi)

    split(-1, 1, 0, f.v_lo, f.v_hi)
    return [(Fraction(P * lo, Q << e), Fraction(P * hi, Q << e)) for lo, hi, e in cells]


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


def _newton_polish(cs: list, zs: Iterable, iters: int = 4) -> list:
    """Each of zs after up to iters Newton steps on the float coefficients
    cs, in Python complex arithmetic; the derivative's coefficients are
    formed once for all of them."""
    rc = cs[::-1]
    rd = [k * c for k, c in enumerate(cs)][:0:-1]
    out = []
    for z in zs:
        for _ in range(iters):
            pv = 0.0 + 0.0j
            for c in rc:
                pv = pv * z + c
            dv = 0.0 + 0.0j
            for c in rd:
                dv = dv * z + c
            if dv == 0:
                break
            step = pv / dv
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            z = z - step
        out.append(z)
    return out


def _float_companion_roots(cs: list) -> list:
    """Roots of the float polynomial cs, whose last coefficient is nonzero:
    the eigenvalues of the companion matrix that np.roots builds, then one
    root 0 per vanishing low-order coefficient, in np.roots' order."""
    k = next(i for i, v in enumerate(cs) if v != 0)
    p = np.array(cs[k:][::-1])
    if len(p) == 1:
        return [0j] * k
    A = np.diag(np.ones(len(p) - 2), -1)
    A[0, :] = -p[1:] / p[0]
    return [complex(z) for z in np.linalg.eigvals(A).tolist()] + [0j] * k


def trim_for_roots(coeffs: Sequence[float], trim_rel: float) -> list:
    """The float coefficients without the trailing ones at or below
    trim_rel * max|c|."""
    c = [float(v) for v in coeffs]
    scale = max((abs(v) for v in c), default=0.0)
    if scale == 0.0:
        return [0.0]
    cut = trim_rel * scale
    while len(c) > 1 and abs(c[-1]) <= cut:
        c.pop()
    return c


def _times_power(c: float, r: float, m: int) -> float:
    """c * r**m for c, r >= 0, where r**m alone may exceed the float range:
    then the product is formed on r's mantissa and shifted by its exponent,
    and it is +inf only if the product itself overflows."""
    try:
        return c * r**m
    except OverflowError:
        f, e = math.frexp(r)
        try:
            return math.ldexp(c * f**m, e * m)
        except OverflowError:
            return math.inf


def _modulus(w: complex) -> float:
    """abs(w), or +inf where it exceeds the float range.  CPython's complex
    abs also raises on NaN parts while errno still holds an earlier caught
    overflow; those give NaN."""
    try:
        return abs(w)
    except OverflowError:
        return math.inf if w == w else math.nan


def _im_floor(z: complex) -> float:
    """The tolerance floor on |Im z| below which a float root is real."""
    return max(DEFAULT.im_abs_tol, DEFAULT.im_rel_tol * max(1.0, abs(z)))


def _classify_float(g: UniPoly, trim_rel: float, perturb: float = 0.0):
    """Locate the roots of a nonconstant float polynomial and judge each.

    Trimming at trim_rel only feeds the companion matrix and the Newton
    polish; every bound is evaluated on g itself at its full degree n.
    perturb is an l1 bound on unknown coefficient error, which widens each
    threshold by the first-order root shift it can cause.  Returns (roots,
    radii, thresholds); a root counts as real when |Im z| <= its threshold,
    which is -inf for a root whose radius is NaN or threshold not finite.
    """
    n, lead, dg = g.degree, abs(g.lead), g.derivative()
    cs = trim_for_roots(g.coeffs, trim_rel)
    roots = _newton_polish(cs, _float_companion_roots(cs))
    gamma = _horner_gamma(n + 1)
    radii, thresholds = [], []
    for z in roots:
        # one pass gives g(z) and sum |a_k||z|^k, which sets both its
        # rounding bound (as in eval_with_bound) and the condition number
        val, mag = g.eval_with_abs(z)
        err = gamma * mag
        dval, derr = dg.eval_with_bound(z)
        aval, adval = _modulus(val), _modulus(dval)
        dmag = max(adval, 1e-300)
        cond = mag / dmag
        shift = _times_power(perturb, max(1.0, abs(z)), n) / dmag if perturb > 0 else 0.0
        # nearest-root bounds: some root of g lies within both
        # (|g(z)|/|lead|)^(1/n), as |g(z)| = |lead| prod |z - r_i|, and
        # n|g(z)/g'(z)|, as g'/g = sum 1/(z - r_i).  The first stays
        # usable where g'(z) is lost in rounding, as at multiple roots
        # (which split at rate sqrt(t)), but grows with every far root,
        # such as those whose leading coefficients were trimmed; the second
        # does not.  If g is real-rooted its nearest root to z is real, so
        # |Im z| is within either bound.
        rad = ((aval + err) / lead) ** (1.0 / n)
        if adval > derr:
            rad = min(rad, n * (aval + err) / (adval - derr))
        radii.append(rad)
        thr = max(_im_floor(z), cond * _U, shift, rad)
        # max skips a NaN radius, and no |Im z| exceeds an infinite
        # threshold: such a root was never judged, so it is not real
        thresholds.append(thr if math.isfinite(thr) and rad == rad else -math.inf)
    return roots, radii, thresholds


def _nonreal_roots(f: _SturmFactor) -> list:
    """(root, radius) of the non-real roots of the exact factor f, by
    decreasing |Im z|.  An exact factor is not a truncated series, so all
    of its roots are located, on a monic float copy (_located_roots).  If
    one that is taken lies on the real axis, rounding the copy has merged
    a pair of non-real roots near it: f is then shifted exactly to that
    root's real part c, where the pair sits near 0 and its imaginary parts
    are resolved, and located again."""
    pairs = _located_roots(f.coeffs, f.nonreal_count)
    on_axis = [z for z, _ in pairs if z.imag == 0.0]
    if on_axis:
        c = on_axis[0].real
        g = MultiPoly.from_dict({(k,): v for k, v in enumerate(f.coeffs)}, 1)
        shifted = g.compose_affine([Fraction(c)], [[1]]).to_uni()
        pairs = [(z + c, rad) for z, rad in _located_roots(shifted.coeffs, f.nonreal_count)]
    return pairs


def _located_roots(c: Sequence, count: int) -> list:
    """(root, radius) of the count roots farthest from the real axis of the
    polynomial with exact coefficients c, by decreasing |Im z|, located on
    its monic float copy c_k / c_n, which does not depend on the scale of
    the input.  When a ratio would overflow or underflow a float, the roots
    are located on the copy of f(2^s y) instead and scaled back by 2^s,
    with s from the ratios' bit lengths such that every root y has
    |y| <= 4 (Fujiwara's bound).  A root taken that leaves the float range
    when scaled back, or whose nonzero imaginary part underflows to 0,
    raises InputRangeError."""
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
    taken = sorted(zip(zs, rads), key=lambda zr: abs(zr[0].imag), reverse=True)[:count]
    try:
        pairs = [(complex(math.ldexp(z.real, s), math.ldexp(z.imag, s)), math.ldexp(rad, s)) for z, rad in taken]
    except OverflowError:
        pairs = None
    if pairs is None or any(y.imag == 0.0 != z.imag for (y, _), (z, _) in zip(pairs, taken)):
        raise InputRangeError("a non-real root lies outside the float range")
    return pairs


_ISOLATION_WIDTH = Fraction(DEFAULT.isolation_width).limit_denominator(10**18)


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
    for f in _sturm_factors(p.coeffs):
        located = []
        for lo, hi in _isolate_roots(f, _ISOLATION_WIDTH):
            try:
                mid = float((lo + hi) / 2)
            except OverflowError:
                raise InputRangeError("a real root lies outside the float range") from None
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
