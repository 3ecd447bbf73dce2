"""Birth-death chain semigroups on truncated state spaces.

Transition operators are built by uniformization of the truncated
generator, a transition block at t 2^-k and then squared k times; an
absorbing overflow state above the box converts boundary clamping into
a certified escaping-mass bound, so every evolved law comes with an
explicit tail_bound.  On top of the semigroup sit the root-law
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
from .measures import (
    InputRangeError,
    Measure,
    _check_count,
    _check_poisson_mean,
    _check_tol,
    _poisson_weights,
)
from .polycore import (
    _U,
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

# Pure-death series: entries below _TINY (2^-1022) leave the box, a block
# checks for them every _BLOCK_DROP_EVERY terms (see _bd_series).
_TINY = float(np.finfo(float).tiny)
_BLOCK_DROP_EVERY = 16

# The series kernel sums its terms in chunks of at most _CHUNK_TERMS, fewer
# when a term holds more than _CHUNK_SIZE / _CHUNK_TERMS floats (see
# _uniformized_series).  Each vector of the benchmarks gets 32; a block
# gains little from longer chunks, as its calls are long, and 2^16 left a
# `trotter-split` call's term rows at 1 MB, where the old kernel held 50 KB.
_CHUNK_TERMS = 32
_CHUNK_SIZE = 2**14

# A vector series whose lambda*t is at least 2 * mean * (box + _PIECE_PAD)
# runs in time pieces, each at its own range's largest rate; mean is
# _PIECE_MEAN for pure death and _BIRTH_PIECE_MEAN with births (see
# _bd_uniformize).
_PIECE_MEAN = 8
_BIRTH_PIECE_MEAN = 2
_PIECE_PAD = 5

# Largest box of lie_split_evolve's dense propagators, whose cost grows
# like N^3 or faster: lie_split_evolve(Measure.point_mass(0), 198.6, 1, 0.01,
# 1, 2), at N = 1023, takes about 13 s and 130 MB resident with one BLAS
# thread, almost all of it in the propagators' series and squarings, in one
# process on a 2-core host.
_MAX_SPLIT_BOX = 1024


@dataclass(frozen=True)
class BirthDeathRates:
    """Birth rates beta(k) and death rates delta(k) with delta(0) = 0."""

    beta: Callable[[int], float]
    delta: Callable[[int], float]

    def __post_init__(self):
        # a NaN or infinite parameter reaches state 0 as NaN (0 * inf)
        _rate_arrays(self.beta, self.delta, 0)

    @classmethod
    def from_polynomial(cls, b0: float, d1: float, d2: float) -> "BirthDeathRates":
        """Constant birth b0 with death d1*k + d2*k*(k-1)."""
        return cls(beta=lambda k: b0, delta=lambda k: d1 * k + d2 * k * (k - 1))

    @classmethod
    def quadratic_death(cls, scale: float = 1.0) -> "BirthDeathRates":
        return cls(beta=lambda k: 0.0, delta=lambda k: scale * k * (k - 1))

    @classmethod
    def kingman_coalescent(cls) -> "BirthDeathRates":
        return cls(beta=lambda k: 0.0, delta=lambda k: k * (k - 1) / 2.0)

    @classmethod
    def mm_infty(cls, b: float, d: float) -> "BirthDeathRates":
        return cls(beta=lambda k: b, delta=lambda k: d * k)

    @classmethod
    def from_sequences(cls, betas: Sequence[float]) -> "BirthDeathRates":
        """Pure-birth rates given by a head sequence, which beta continues
        with its last entry; delta is 0."""
        betas = [float(b) for b in betas]
        fill = betas[-1] if betas else 0.0

        def beta(k: int) -> float:
            return betas[k] if k < len(betas) else fill

        return cls(beta=beta, delta=lambda k: 0.0)


@dataclass(frozen=True)
class TruncatedSemigroup:
    """Transition probabilities p_t(j,k) on {0..N} with certified loss.

    Rows are sub-stochastic: the deficit of each row from 1 is mass that
    reached the absorbing overflow state (or lay beyond the series cutoff).
    trunc_error bounds every row's l1 distance to p_t(j, .) on all of
    {0, 1, ...}: the escaped mass, the series tails and the rounding of
    transition's squarings, but not the rounding of the series itself.
    """

    N: int
    t: float
    matrix: np.ndarray
    trunc_error: float


def generator(rates: BirthDeathRates, N: int) -> np.ndarray:
    """Tridiagonal generator on {0..N} with the birth rate clamped at N."""
    N = _check_count(N, "N")
    beta_arr, delta_arr = _rate_arrays(rates.beta, rates.delta, N)
    beta_arr[N] = 0.0
    return np.diag(beta_arr[:-1], 1) + np.diag(delta_arr[1:], -1) - np.diag(beta_arr + delta_arr)


def _uniformized_series(v0: np.ndarray, step: Callable, lam_ts: list, tol: float, min_terms: int):
    """Poisson-weighted series sum_j P(Poisson(lam_t) = j) v0 S^j for each
    mean lam_t of the list lam_ts; returns a list with one (acc, tail) per
    mean (uniformization on a time grid; Reibman & Trivedi, Comput. Oper.
    Res. 15(1), 1988).

    v0 is one row vector or a block of row vectors over the truncated
    states plus an absorbing overflow state in the last column, with at
    least two entries in all, and step(v, out) writes v S, the one-jump
    operator S of the uniformized chain applied to every row of v, into
    out, a buffer of v's shape that it must not read.  The last column of
    acc is then the certified mass that left the box, and `tail` bounds
    the l1 error of the Poisson weights, series tail included.  The series
    runs to at least min_terms, since mass-wise it may converge long before
    rare states receive their leading-order term (paths of length up to
    the box size); where it stops depends on lam_t, tol and min_terms
    only, so every row of a block shares the same tail.  A step may also
    move mass into the overflow state itself, as the pure-death step of
    _bd_series does with underflowed states.  The terms v0 S^j are
    computed once, up to the last positive weight of any mean, and every
    mean is checked against the series cap before any term.

    The terms live in a ring of K rows, K = max(2, min(_CHUNK_TERMS, J,
    _CHUNK_SIZE // v0.size)) for J terms in all: term j >= 1 is written
    into row (j-1) % K, so each row always steps into the next, as the
    birth-death step's slice cache needs.  After every K-th term and after
    the last, each weighting takes the chunk's terms of positive weight
    (weights underflow to 0 below the mode, and past it when min_terms
    runs the series far out) in one product and one sum: a buffer holds
    acc in row 0 and fl(w_j v_j) below it, and np.add.reduce along axis 0
    adds the rows in order into acc, from initial = -0.0 (its default
    +0.0 would turn a -0.0 in row 0 into +0.0).  So each acc is
    fl(acc + fl(w_j v_j)) over the j >= 1 with w_j > 0, term after term,
    signed zeros included.  A buffer wider than 2 _CHUNK_SIZE floats runs
    in column slabs of at least two columns: over a single column
    np.add.reduce sums pairwise.

    The contract is on the sums, not on their order: for nonnegative rows
    and a birth-death or two-diagonal step that sends out at most each
    row's mass, each acc is within tail plus its rounding, to first order
    (7 lam_t + J + 1) u of the row's l1 mass, of the exact series, and an
    entry that is -0.0 in every term of positive weight stays -0.0; the
    tests hold it to a decimal oracle.  Another order (BLAS sums, a
    pairwise sum) keeps the contract but moves the last bits of every
    law: perfbench's suite references, not the tests, pin those bits
    until its wright-fisher and kingman-bp references are reworked, and
    wf_residual's difference over h = 1e-5 amplifies them by 1/(2h).
    """
    for x in lam_ts:
        _check_poisson_mean(x)
    v0 = np.asarray(v0, dtype=float)
    sums, runs = [], []  # runs: (weights, flat acc, first and last positive index)
    for x in lam_ts:
        w, tail = _poisson_weights(x, tol, min_terms + 1)
        acc = w[0] * v0
        sums.append((acc, tail))
        # the weights rise to the mode and fall after it, so the positive
        # ones from index 1 on are one run
        positive = np.flatnonzero(w[1:]) + 1
        if positive.size:
            runs.append((w, acc.reshape(-1), int(positive[0]), int(positive[-1])))
    J = max((last for _, _, _, last in runs), default=0)
    if J:
        K = max(2, min(_CHUNK_TERMS, J, _CHUNK_SIZE // v0.size))
        ring = np.empty((K, v0.size))
        rows = [r.reshape(v0.shape) for r in ring]
        slabs = -(-(K + 1) * v0.size // (2 * _CHUNK_SIZE))
        edges = [v0.size * i // slabs for i in range(slabs + 1)]
        buf = np.empty((K + 1, -(-v0.size // slabs)))
        v = v0
        for c in range(1, J + 1, K):  # terms c, c+1, ... in ring rows 0, 1, ...
            n = min(K, J + 1 - c)
            for r in range(n):
                step(v, rows[r])
                v = rows[r]
            for w, acc, first, last in runs:
                a, b = max(c, first) - c, min(c + n - 1, last) - c  # the ring rows it weights
                if a > b:
                    continue
                wcol = w[c + a : c + b + 1, None]
                for lo, hi in zip(edges, edges[1:]):
                    part = buf[: b - a + 2, : hi - lo]
                    part[0] = acc[lo:hi]
                    np.multiply(ring[a : b + 1, lo:hi], wcol, out=part[1:])
                    np.add.reduce(part, axis=0, out=acc[lo:hi], initial=-0.0)
    return sums


def _bd_series(v0: np.ndarray, beta_arr: np.ndarray, delta_arr: np.ndarray, ts: list, tol: float):
    """The series for a birth-death chain on {0..N} at each time of the
    list ts, one run of the terms for all (see _uniformized_series): v0 has
    N+2 columns, birth out of state N feeds the overflow column N+1.

    The step works on each term's flat buffer, so that every product and
    every sum is one contiguous pass: stay, up and down are tiled across
    the rows of a block, with a 0 at each row seam.  A vector is the
    one-row case, whose passes are its plain slices.  A seam adds a product
    with 0 to an entry, which changes it only if it is -0.0; a block here
    always starts from the identity, with no sign bit set, so each of its
    rows is bit for bit the series of that row alone at the same lambda.

    A pure-death chain skips the birth product: with every birth rate 0
    that product is +-0.0, and adding it changes no entry whose sign bit
    is clear.  If no entry of v0 has its sign bit set, no entry of any
    term has, as each is a sum of products of such numbers.  Otherwise
    (-0.0, or a negative weight within Measure's slack) the step adds the
    product, which can turn -0.0 into +0.0.

    The pure-death step on input without sign bits also moves underflowed
    states into the overflow column.  It keeps an index top, starting at
    N; while the entry at top is below 2^-1022 (_TINY) in every row, it
    adds that entry to the last column, sets it to +0.0 and lowers top.
    As out[k] = v[k] stay_k + v[k+1] down_k, a state above top stays
    +0.0, so each state moves at most once and at most (N+1) 2^-1022 per
    row moves; the exact chain keeps that mass in the box, so it bounds
    the l1 error of the move and is counted as escaped mass.  Without it,
    entries that reach 2^-1074 where stay_k >= 1/2 never leave the
    subnormal range, and each product with them is far slower than one
    on normal numbers.  A vector is checked after every term, a block
    after every _BLOCK_DROP_EVERY-th; the schedule fixes the bits.
    """
    N = len(beta_arr) - 1
    out_rate = beta_arr + delta_arr
    lam = float(out_rate.max())
    if lam <= 0.0:  # nothing moves: the law at every time is v0
        return _uniformized_series(v0, None, [0.0] * len(ts), tol, 0)
    rows = np.shape(v0)[:-1]
    R = math.prod(rows)
    stay = np.tile(np.append(np.maximum(1.0 - out_rate / lam, 0.0), 1.0), R)
    up = np.tile(np.append(beta_arr / lam, 0.0), R)[:-1]  # k -> k+1, N -> overflow
    down = np.tile(np.append(delta_arr[1:] / lam, (0.0, 0.0)), R)[:-2]  # k -> k-1 for 1 <= k <= N
    add_births = bool(up.any() or np.signbit(v0).any())
    born, died = np.empty(up.size), np.empty(down.size)
    # id(v) -> flat views of v and of out: each term row of the series' ring
    # always steps into the same next row
    views = {}
    # every state above top is +0.0 in every row of every later term
    top, terms = N, 0

    def step(v, out):
        nonlocal top, terms
        key = id(v)
        if key not in views:
            flat, flat_out = v.reshape(-1), out.reshape(-1)
            views[key] = (flat, flat[:-1], flat[1:-1], flat_out, flat_out[1:], flat_out[:-2])
        flat, below, inner, flat_out, out_up, out_down = views[key]
        np.multiply(flat, stay, out=flat_out)
        if add_births:
            np.multiply(below, up, out=born)
            out_up += born
        np.multiply(inner, down, out=died)
        out_down += died
        if add_births:
            return
        if rows:
            # a column maximum costs about a step of a small block, so a
            # block looks at its top column every _BLOCK_DROP_EVERY terms
            terms += 1
            if terms % _BLOCK_DROP_EVERY:
                return
            while top >= 0 and out[..., top].max() < _TINY:
                out[..., -1] += out[..., top]
                out[..., top] = 0.0
                top -= 1
        else:
            while top >= 0 and out[top] < _TINY:
                out[-1] += out[top]
                out[top] = 0.0
                top -= 1

    return _uniformized_series(v0, step, [lam * t for t in ts], tol, min_terms=N + 4)


def _bd_uniformize(v0: np.ndarray, beta_arr: np.ndarray, delta_arr: np.ndarray, ts: list, tol: float):
    """_bd_series, with a vector series (no sign bit in v0) at a time t of
    ts cut at the times t 2^-m, ..., t/2 into m + 1 pieces (adaptive
    uniformization; van Moorsel & Sanders, 1994).

    Each piece first sets top, the highest state of the current law whose
    suffix mass exceeds a floor.  With births the floor is tol/(4(m+1)):
    the mass above top moves to the overflow column and counts as escaped
    mass, at most tol/4 over all pieces (finite state projection; Munsky &
    Khammash, J. Chem. Phys. 124, 2006).  For pure death it is 0, so top is
    the highest nonzero state and nothing moves.  The piece then runs
    _bd_series on states 0..min(N, top + H), plus a fresh overflow column,
    at tolerance tol/(m+1), and adds its escaped mass to the law's.  H is 0
    for pure death, which never moves mass up, and N - s with births, s
    the highest nonzero state of v0: the headroom that the caller's box
    gave the input.  Each piece is l1-nonexpansive, so the escaped masses
    and the tails add.

    m = floor(log2(lambda t / (mean (box + _PIECE_PAD)))), or 0, with box
    the first piece's range for m = 0 (top at s, or at a floor of tol/4
    with births) and lambda the largest out-rate of states 0..box; mean is
    _PIECE_MEAN for pure death and _BIRTH_PIECE_MEAN with births.  The
    times with m = 0 share one run: as one series on the whole box for
    pure death, and as one pruned piece with births, which is the whole
    box when nothing is pruned.  Blocks and input with a sign bit run as
    one series.  Every time's lambda*t is checked on the whole box first;
    each time with m > 0 runs its pieces alone.
    """
    if np.ndim(v0) > 1 or np.signbit(v0).any():
        return _bd_series(v0, beta_arr, delta_arr, ts, tol)
    out_rate = beta_arr + delta_arr
    lam = float(out_rate.max())
    for s in ts:
        _check_poisson_mean(lam * s)
    births = bool(beta_arr.any())
    N, top = len(beta_arr) - 1, _top_state(v0, 0.0)
    if births:
        mean, H = _BIRTH_PIECE_MEAN, N - top
        box = min(N, _top_state(v0, tol / 4) + H)
    else:
        mean, H, box = _PIECE_MEAN, 0, top
    lam_box = float(out_rate[: box + 1].max())
    # floor(log2(ratio)), or 0
    ms = [max(math.frexp(lam_box * s / (mean * (box + _PIECE_PAD)))[1] - 1, 0) for s in ts]
    whole_ts = [s for s, m in zip(ts, ms) if not m]
    whole = iter(())
    if whole_ts and births:
        whole = iter(_piece(v0, beta_arr, delta_arr, whole_ts, tol, H, tol / 4))
    elif whole_ts:
        whole = iter(_bd_series(v0, beta_arr, delta_arr, whole_ts, tol))
    laws = []
    for s, m in zip(ts, ms):
        if not m:
            laws.append(next(whole))
            continue
        v, tail = v0, 0.0
        floor = tol / (4 * (m + 1)) if births else 0.0
        for i in range(m + 1):
            h = math.ldexp(s, max(i - 1, 0) - m)  # t 2^-m, t 2^-m, t 2^(1-m), ..., t/2
            [(v, piece_tail)] = _piece(v, beta_arr, delta_arr, [h], tol / (m + 1), H, floor)
            tail += piece_tail
        laws.append((v, tail))
    return laws


def _top_state(v: np.ndarray, floor: float) -> int:
    """The highest state of the vector v (overflow column last) whose suffix
    mass exceeds floor, or 0: with floor = 0 and no sign bit set, the
    highest nonzero state."""
    suffix = np.cumsum(v[-2::-1])
    return len(v) - 2 - int(np.argmax(suffix > floor)) if suffix[-1] > floor else 0


def _piece(v: np.ndarray, beta_arr: np.ndarray, delta_arr: np.ndarray, hs: list, tol: float, H: int, floor: float):
    """One time piece of _bd_uniformize from the vector law v, at each step
    length of hs: a list of (law, tail), v itself left as it is."""
    v = np.array(v, dtype=float)
    top = _top_state(v, floor)
    if v[top + 1 : -1].any():  # the pruned states
        v[-1] += v[top + 1 : -1].sum()
        v[top + 1 : -1] = 0.0
    live = slice(0, min(len(v) - 2, top + H) + 1)
    laws = []
    for acc, tail in _bd_series(np.append(v[live], 0.0), beta_arr[live], delta_arr[live], hs, tol):
        w = v.copy()
        w[live], w[-1] = acc[:-1], w[-1] + acc[-1]
        laws.append((w, tail))
    return laws


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError("t must be >= 0")


def _check_grid(t_grid: Sequence[float]) -> None:
    """The root-law probes rescale by t, so every time must be positive."""
    for t in t_grid:
        _check_time(t)
        if t == 0:
            raise ValueError("t must be > 0")


def _rate_arrays(beta: Callable, delta: Callable, N: int, first: int = 0):
    """beta(k) and delta(k) for k = first..N as float arrays, the one check
    of every birth-death and particle rate: the state's out-rate beta + delta
    is finite (so both rates are and their sum does not overflow), the rates
    are nonnegative and no death leaves state 0."""
    betas = [float(beta(k)) for k in range(first, N + 1)]
    deltas = [float(delta(k)) for k in range(first, N + 1)]
    if not all(math.isfinite(b + d) for b, d in zip(betas, deltas)):
        raise InputRangeError("rates must be finite")
    if min(betas) < 0 or min(deltas) < 0:
        raise ValueError("rates must be nonnegative")
    if first == 0 and deltas[0] != 0.0:
        raise ValueError("the death rate at an empty site must be 0")
    return np.array(betas), np.array(deltas)


def _halvings(lam_t: float, N: int) -> int:
    """The fewest k >= 0 with lam_t 2^-k <= max(N/2, 1): transition's
    series on {0..N} at such a step stops near its min_terms of N + 4."""
    k = 0
    while math.ldexp(lam_t, -k) > max(N / 2, 1):
        k += 1
    return k


def _propagator(beta_arr: np.ndarray, delta_arr: np.ndarray, t: float, tol: float):
    """P(t) of the chain on {0..N} as an (N+2)-square matrix, the absorbing
    overflow state e_(N+1) as its last row, by scaling and squaring (Moler &
    Van Loan, SIAM Review 45(1), 2003), and its error.

    lambda is the box's largest out-rate, checked against the series cap
    before the block is allocated, and k >= 0 the fewest halvings with
    lambda t 2^-k <= max(N/2, 1): _bd_uniformize on the identity block at
    h = t 2^-k and tolerance tol 2^-k then stops near its min_terms of
    N + 4, so a larger k would only add squarings.  P(h) is squared k
    times; k = 0, every call with lambda t <= N/2, is the one series.

    The error, 2^k tail + (2^k - 1) gamma_(N+2), gamma_n = n u / (1 - n u),
    bounds every row's l1 distance to the truncated chain's exact P(t).
    The computed P(h) is within the tail of the exact one in every row.
    Let A and B be nonnegative with row sums at most 1, each within e of
    such a matrix: AB is within 2e of the product of the two, and its
    rounding, n-term sums of nonnegative products, adds at most gamma_n to
    a row (Higham, Accuracy and Stability, 3.5).  So the i-th squaring is
    within e_i <= 2 e_(i-1) + gamma_(N+2) of the exact P(2^i h), to first
    order.  The rounding of the series' own steps and sums is not covered.
    """
    N = len(beta_arr) - 1
    lam_t = float((beta_arr + delta_arr).max()) * t
    _check_poisson_mean(lam_t)
    k = _halvings(lam_t, N)
    [(P, tail)] = _bd_uniformize(np.eye(N + 1, N + 2), beta_arr, delta_arr, [math.ldexp(t, -k)], math.ldexp(tol, -k))
    P = np.vstack([P, np.eye(1, N + 2, N + 1)])
    for _ in range(k):
        P = P @ P
    return P, math.ldexp(tail, k) + (2**k - 1) * (N + 2) * _U / (1 - (N + 2) * _U)


def transition(
    rates: BirthDeathRates,
    t: float,
    N: int,
    tol: float = DEFAULT.uniformization_tol,
) -> TruncatedSemigroup:
    """Transition matrix rows p_t(j, .) on {0..N}: _propagator's P(t)
    without the overflow state.  trunc_error bounds the l1 distance of
    every row to p_t(j, .) on all of {0, 1, ...}: the largest overflow
    entry plus _propagator's error.  A path that never leaves the box is
    one of the truncated chain, so each row of the truncated chain's exact
    P(t) is within its overflow entry of p_t(j, .), and the computed
    overflow entry is within the error of the exact one.  A lambda*t above
    the series cap raises InputRangeError before the block is allocated."""
    _check_tol(tol)
    _check_time(t)
    N = _check_count(N, "N")
    P, error = _propagator(*_rate_arrays(rates.beta, rates.delta, N), t, tol)
    return TruncatedSemigroup(N=N, t=t, matrix=P[:-1, :-1], trunc_error=float(P[:-1, -1].max()) + error)


def evolve(
    mu: Measure,
    rates: BirthDeathRates,
    t: float,
    tol: float = DEFAULT.uniformization_tol,
) -> Measure:
    """Push a univariate initial law through the chain for time t.

    The rates of states 0..support+10, support the initial law's top
    state, pass the one rate check first, box or not.  The truncation level
    starts at max(support + ceil(10 + 5 b t), 1), b > 0 the largest birth
    rate among them, or at max(support, 1) if b = 0, and doubles until the
    escaped mass is below tol, at most 12 times.  The series runs in time
    pieces when lambda*t is large against the box, and with births each
    piece first prunes the top states whose suffix mass is below a share
    of tol/4 (see _bd_uniformize): that mass is part of the escaped mass.
    A b*t above the series cap raises InputRangeError, as every box's
    lambda*t is at least b*t.  This is evolve_grid at the one time t.
    """
    return evolve_grid(mu, rates, [t], tol)[0]


def evolve_grid(
    mu: Measure,
    rates: BirthDeathRates,
    t_grid: Sequence[float],
    tol: float = DEFAULT.uniformization_tol,
) -> list[Measure]:
    """evolve at every time of t_grid, one law per time in order, each
    bit for bit the law that evolve returns for that time alone.

    Times whose first truncation level is the same share one run of the
    series terms, each with its own Poisson weights (with births, on the
    box that their shared pruning leaves); a time that _bd_uniformize cuts
    into pieces runs alone, and so does every rerun of a time whose
    escaped mass, pruned mass included, exceeds tol on a doubled level.
    Every time, the rates and the series cap of every time on its first
    level are checked before any series runs.
    """
    _check_tol(tol)
    if mu.ndim != 1:
        raise ValueError("univariate initial laws only")
    ts = list(t_grid)
    for t in ts:
        _check_time(t)
    support = int(np.max(np.nonzero(mu.weights)[0])) if mu.weights.any() else 0
    b_ref = float(_rate_arrays(rates.beta, rates.delta, support + 10)[0].max())
    # every box holds these states, so its lambda*t is >= b_ref*t
    _check_poisson_mean(b_ref * max(ts, default=0.0))
    groups = {}  # first level -> indices of its times
    for i, t in enumerate(ts):
        pad = int(math.ceil(10.0 + 5.0 * b_ref * t)) if b_ref else 0
        groups.setdefault(max(support + pad, 1), []).append(i)
    arrays = {box: _rate_arrays(rates.beta, rates.delta, box) for box in groups}
    for box, idx in groups.items():
        lam = float((arrays[box][0] + arrays[box][1]).max())
        for i in idx:
            _check_poisson_mean(lam * ts[i])

    def start(box):
        v0 = np.zeros(box + 2)
        v0[: support + 1] = mu.weights[: support + 1]
        return v0

    laws = [None] * len(ts)
    for box, idx in groups.items():
        sums = _bd_uniformize(start(box), *arrays[box], [ts[i] for i in idx], tol)
        for i, (v, tail) in zip(idx, sums):
            level = box
            for _ in range(12):
                if v[-1] <= tol:
                    break
                level = 2 * level
                beta_arr, delta_arr = _rate_arrays(rates.beta, rates.delta, level)
                [(v, tail)] = _bd_uniformize(start(level), beta_arr, delta_arr, [ts[i]], tol)
            absorbed = float(v[-1])
            if not absorbed <= tol:
                raise RuntimeError("truncation level cap reached before meeting tolerance")
            laws[i] = Measure(v[:-1], tail_bound=mu.tail_bound + absorbed + tail)
    return laws


def backward_residual(
    rates: BirthDeathRates,
    semigroup: TruncatedSemigroup,
    j: int,
    k: int,
) -> float:
    """Defect of the backward equation at (j,k).

    The time derivative of p_t(j,k) is taken by centered differences of
    transition at t + h and t - h, at _PROBE_TOL, and compared against
    beta_j p(j+1,k) + delta_j p(j-1,k) - (beta_j+delta_j) p(j,k).
    """
    N, t = semigroup.N, semigroup.t
    j, k = _check_count(j, "j", low=0), _check_count(k, "k", low=0)
    if not (0 < j < N):
        raise ValueError("interior start states only")
    if not (0 <= k <= N):
        raise ValueError("k must lie in 0..N")
    h = 1e-4 * max(t, 1.0)
    h = min(h, t) if t > 0 else h
    plus = transition(rates, t + h, N, _PROBE_TOL).matrix
    minus = transition(rates, t - h if t - h > 0 else 0.0, N, _PROBE_TOL).matrix
    dt = (plus[j, k] - minus[j, k]) / (2 * h if t - h > 0 else (t + h))
    P = semigroup.matrix
    (b,), (d,) = _rate_arrays(rates.beta, rates.delta, j, j)
    rhs = b * P[j + 1, k] + d * P[j - 1, k] - (b + d) * P[j, k]
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
    *laws, at_t = evolve_grid(mu, rates, [s for s, _ in stencil] + [t], tol=_PROBE_TOL)
    phis = [(ev.poly, c) for ev, (_, c) in zip(laws, stencil)]
    d2 = at_t.poly.derivative().derivative()
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
    n = _check_count(n, "n")
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
    for t, ev in zip(t_grid, evolve_grid(mu, rates, t_grid, tol=_ROOT_LAW_TOL)):
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
    n = _check_count(n, "n")
    _check_grid(t_grid)
    records = []
    if n == 1:
        return [{"t": t, "report": 0.0, "roots": []} for t in t_grid]
    cl = real_roots(quadratic_death_cluster_poly(n))
    targets = sorted(z.real for z in cl.roots)
    mu = Measure.point_mass(n)
    rates = BirthDeathRates.quadratic_death()
    for t, ev in zip(t_grid, evolve_grid(mu, rates, t_grid, tol=_ROOT_LAW_TOL)):
        # coefficient 0 is exactly zero (the chain is absorbed at 1), so
        # divide out the root at the origin before tracking.
        reduced = UniPoly.from_coeffs(list(ev.weights[1:]))
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
    k = _check_count(k, "k", low=0)
    if _rate_arrays(rates.beta, rates.delta, k + 1, k)[0].min() <= 0:
        raise ValueError("probe needs beta_k, beta_{k+1} > 0")
    m = k + 2
    records = []
    for t, ev in zip(t_grid, evolve_grid(Measure.point_mass(k), rates, t_grid, tol=_ROOT_LAW_TOL)):
        cmap = {j: float(c) for j, c in enumerate(ev.weights[: m + 1])}
        fm = tstable_approximant(cmap, m).poly.to_uni()
        cert = is_real_rooted(fm, coeff_perturb=ev.tail_bound)
        records.append({"t": t, "verdict": cert.verdict.value, "witness": cert.witness})
    return records


def kingman(n: int, coalescent: bool, t: float) -> Measure:
    """Law of the ancestral block count started from n lineages."""
    n = _check_count(n, "n")
    rates = (
        BirthDeathRates.kingman_coalescent() if coalescent else BirthDeathRates.quadratic_death()
    )
    return evolve(Measure.point_mass(n), rates, t, tol=_PROBE_TOL)


def lie_split_evolve(
    mu: Measure, b0: float, d1: float, d2: float, t: float, steps: int
) -> Measure:
    """Alternate exact sub-steps of the two half-chains.

    Chain 1 has constant birth b0 and linear death d1*k; chain 2 has pure
    quadratic death d2*k*(k-1).  The alternation is symmetrized: a half
    sub-step of chain 1 at either end turns the plain product formula into
    its second-order variant, so the composed law converges to the combined
    chain at O(1/steps^2) in total variation.  The box is {0..N} with
    N = support + ceil(10 + 5*b0*t) + 20, support the initial law's top
    state; mass that leaves it is counted in tail_bound.  A b0*t above
    the series cap, or an N above _MAX_SPLIT_BOX, raises InputRangeError
    before anything is sized by N.

    With h = t/steps, H1 (chain 1 at h/2) and F2 (chain 2 at h) come from
    _propagator, and F1 = H1 H1 is chain 1 at h, within 2 err(H1) +
    gamma_(N+2) of the exact one (see _propagator).  The law is
    mu H1 (F2 F1)^(steps-1) F2 H1, the power by repeated squaring, and
    tail_bound is mu's, plus the overflow entry, plus 2 err(H1) +
    steps err(F2) + (steps-1) err(F1).  The rounding of the products with
    the law and of the powers, at most (2 steps + 1) gamma_(N+2) to first
    order, is not covered.
    """
    steps = _check_count(steps, "steps")
    _check_time(t)
    chain1, chain2 = BirthDeathRates.mm_infty(b0, d1), BirthDeathRates.quadratic_death(d2)
    if mu.ndim != 1:
        raise ValueError("univariate initial laws only")
    support = int(np.max(np.nonzero(mu.weights)[0])) if mu.weights.any() else 0
    # the box grows with b0*t, which evolve refuses above the same cap
    _check_poisson_mean(b0 * t)
    N = support + int(math.ceil(10.0 + 5.0 * b0 * t)) + 20
    if N > _MAX_SPLIT_BOX:
        raise InputRangeError(f"Lie split box N = {N} is above the cap {_MAX_SPLIT_BOX}")
    b1, d1a = _rate_arrays(chain1.beta, chain1.delta, N)
    b2, d2a = _rate_arrays(chain2.beta, chain2.delta, N)
    h = t / steps
    v = np.zeros(N + 2)
    v[: support + 1] = mu.weights[: support + 1]
    if t == 0:
        return Measure(v[:-1], tail_bound=mu.tail_bound)
    half1, err_h1 = _propagator(b1, d1a, h / 2.0, _ROOT_LAW_TOL)
    full2, err_f2 = _propagator(b2, d2a, h, _ROOT_LAW_TOL)
    full1, err_f1 = half1 @ half1, 2 * err_h1 + (N + 2) * _U / (1 - (N + 2) * _U)
    v = v @ half1
    if steps > 1:
        v = v @ np.linalg.matrix_power(full2 @ full1, steps - 1)
    v = v @ full2 @ half1
    error = 2 * err_h1 + steps * err_f2 + (steps - 1) * err_f1
    return Measure(v[:-1], tail_bound=mu.tail_bound + float(v[-1]) + error)


def tv_distance(a: Measure, b: Measure) -> float:
    """Total variation distance between two univariate laws."""
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("univariate measures only")
    wa, wb = a.weights, b.weights
    n = max(len(wa), len(wb))
    pa = np.zeros(n)
    pa[: len(wa)] = wa
    pb = np.zeros(n)
    pb[: len(wb)] = wb
    return 0.5 * float(np.abs(pa - pb).sum())
