"""Brute-force negative association checks on small boxes.

Negative association asks E[F G] <= E[F] E[G] for increasing F and G on
disjoint coordinate sets.  On a finite box it suffices to test indicator
functions of up-sets (monotone 0/1 functions), since every bounded
increasing function is a nonnegative combination of those plus a constant.
Up-set families are enumerated directly under a cell-count cap, and one
slack routine serves exact and float weights; exact rational weights give
exact verdicts.  Projections past the cap fall back to random up-set pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT
from .measures import Measure
from .polycore import _numerators


class CapExceeded(ValueError):
    pass


def _box(shape: tuple):
    """Cells of the box {0..shape_0} x ... in C order, and for each cell the
    bitmask of the cells strictly above it and of its lower covers (c - e_k).

    Every cell above c comes after c in C order, so walking the cells in
    reverse builds each strict up-set from those of c's upper covers.
    """
    cells = tuple(itertools.product(*[range(s + 1) for s in shape]))
    idx = {c: i for i, c in enumerate(cells)}
    above = [0] * len(cells)
    low = [0] * len(cells)
    for i in reversed(range(len(cells))):
        c = cells[i]
        for k in range(len(shape)):
            j = idx.get(c[:k] + (c[k] + 1,) + c[k + 1 :])
            if j is not None:
                above[i] |= 1 << j | above[j]
                low[j] |= 1 << i
    return cells, above, low


def _indicator_rows(masks: Iterable[int], m: int) -> np.ndarray:
    """0/1 integer matrix with one row per bitmask over m cells; integer
    entries keep products with exact weights exact."""
    return np.array([[mask >> i & 1 for i in range(m)] for mask in masks], dtype=np.int64)


@dataclass(frozen=True)
class UpSetFamily:
    """All up-sets of the product poset {0..shape_0} x ... as bitmasks.

    cells lists the box in a fixed order; masks[k] has bit i set when
    cells[i] belongs to the k-th up-set; antichains[k] lists its minimal
    elements.
    """

    shape: tuple
    cells: tuple
    masks: tuple
    antichains: tuple

    def __len__(self) -> int:
        return len(self.masks)

    def indicator(self, k: int) -> np.ndarray:
        return _indicator_rows([self.masks[k]], len(self.cells))[0].astype(float)


def enumerate_upsets(shape: Sequence[int]) -> UpSetFamily:
    """All upward-closed subsets of the box {0..shape_i} per coordinate.

    Cells are added in reverse C order, where every cell above a cell comes
    after it, so a cell may join a partial up-set exactly when the cells
    above it are already in; masks are then sorted into increasing order.
    The minimal elements of an up-set are its cells with no lower cover in
    it.
    """
    shape = tuple(int(s) for s in shape)
    m = math.prod(s + 1 for s in shape)
    if m > DEFAULT.upset_cap:
        raise CapExceeded(f"box has {m} cells, cap is {DEFAULT.upset_cap}")
    cells, above, low = _box(shape)
    masks = [0]
    for i in reversed(range(m)):
        masks += [s | 1 << i for s in masks if s & above[i] == above[i]]
    masks.sort()
    antichains = tuple(
        tuple(cells[i] for i in range(m) if s >> i & 1 and not s & low[i]) for s in masks
    )
    return UpSetFamily(shape, cells, tuple(masks), antichains)


@dataclass(frozen=True)
class NASplitResult:
    A: tuple
    B: tuple
    passed: bool
    worst_slack: object
    witness_pair: tuple | None
    mode: str = "exhaustive"

    def to_json(self) -> dict:
        out = {
            "A": list(self.A),
            "B": list(self.B),
            "worst_slack": float(self.worst_slack),
            "mode": self.mode,
        }
        if self.witness_pair is not None:
            out["witness_pair"] = [
                [list(c) for c in self.witness_pair[0]],
                [list(c) for c in self.witness_pair[1]],
            ]
        return out


def _slack(F: np.ndarray, G: np.ndarray, M: np.ndarray) -> np.ndarray:
    """mass * E[1_f 1_g] - E[1_f] E[1_g] for every row f of F and row g of G.

    M is the joint weight matrix (A-cell x B-cell); F and G are 0/1 up-set
    rows over the A- and B-cells.  Object-dtype weights stay exact.
    """
    R = F @ M
    return (R @ G.T) * M.sum() - np.outer(R.sum(axis=1), G @ M.sum(axis=0))


def is_na(
    mu: Measure | np.ndarray,
    A: Iterable[int],
    B: Iterable[int],
    samples: int = 4000,
) -> NASplitResult:
    """Check E[FG] <= E[F]E[G] over up-set indicator pairs.

    F runs over up-sets of the A-projection box, G over the B-projection
    box; expectations are taken under the joint (A u B)-projection, so
    dependence between the two blocks is fully retained.  Object-dtype
    (Fraction) weights give an exact verdict with zero slack.  Projections
    within the cell cap are checked exhaustively; larger ones fall back to
    `samples` random up-set pairs and a pass is only "sampled-NA" (a
    violating pair may have been missed).
    """
    weights = mu.weights if isinstance(mu, Measure) else np.asarray(mu)
    A = tuple(sorted(set(int(a) for a in A)))
    B = tuple(sorted(set(int(b) for b in B)))
    if not A or not B or set(A) & set(B):
        raise ValueError("A and B must be disjoint and nonempty")
    keep = tuple(sorted(A + B))
    joint = weights.sum(axis=tuple(i for i in range(weights.ndim) if i not in keep))
    # put the A axes first, then flatten the joint onto an (A-cell, B-cell) matrix
    joint = np.transpose(joint, tuple(keep.index(a) for a in A + B))
    shapeA = tuple(s - 1 for s in joint.shape[: len(A)])
    shapeB = tuple(s - 1 for s in joint.shape[len(A) :])
    M = joint.reshape(math.prod(joint.shape[: len(A)]), -1)
    if max(M.shape) > DEFAULT.upset_cap:
        return _is_na_sampled(M.astype(float), A, B, shapeA, shapeB, samples)
    famA = enumerate_upsets(shapeA)
    famB = enumerate_upsets(shapeB)

    exact = M.dtype == object
    if exact:
        # integer numerators over a common denominator D keep the arithmetic
        # exact and cheap; every slack comes out D**2 times its value
        nums, D = _numerators([Fraction(x) for x in M.flat])
        M = np.array(nums, dtype=object).reshape(M.shape)
    else:
        M = M.astype(float)
    S = _slack(_indicator_rows(famA.masks, M.shape[0]), _indicator_rows(famB.masks, M.shape[1]), M)
    # the first maximum in row-major order
    ka, kb = divmod(int(np.argmax(S)), S.shape[1])
    worst = Fraction(S.item(ka, kb), D * D) if exact else S.item(ka, kb)
    passed = worst <= (0 if exact else DEFAULT.na_slack * float(M.sum()))
    witness = None if passed else (famA.antichains[ka], famB.antichains[kb])
    return NASplitResult(A, B, bool(passed), worst, witness)


def _random_upset(closure: list, rng) -> int:
    """Bitmask of the up-closure of one to three random cells."""
    mask = 0
    for s in rng.integers(0, len(closure), size=int(rng.integers(1, 4))):
        mask |= closure[s]
    return mask


def _is_na_sampled(M, A, B, shapeA, shapeB, samples):
    rng = np.random.default_rng(0)
    # each box's cells with the principal up-set of every cell
    boxes = []
    for cells, above, _ in (_box(shapeA), _box(shapeB)):
        boxes.append((cells, [1 << i | a for i, a in enumerate(above)]))
    pairs = [tuple(_random_upset(closure, rng) for _, closure in boxes) for _ in range(samples)]
    slacks = [
        _slack(_indicator_rows([f], M.shape[0]), _indicator_rows([g], M.shape[1]), M).item()
        for f, g in pairs
    ]
    # the first maximum, as in the exhaustive check
    k = int(np.argmax(slacks))
    passed = slacks[k] <= DEFAULT.na_slack * float(M.sum())
    witness = None
    if not passed:
        witness = tuple(
            tuple(c for i, c in enumerate(cells) if mask >> i & 1)
            for mask, (cells, _) in zip(pairs[k], boxes)
        )
    return NASplitResult(A, B, bool(passed), slacks[k], witness, mode="sampled")


@dataclass(frozen=True)
class NAReport:
    splits: tuple
    passed: bool
    worst_slack: object

    def to_json(self) -> dict:
        sampled = any(s.mode == "sampled" for s in self.splits)
        verdict = "violated" if not self.passed else ("sampled-NA" if sampled else "NA")
        return {
            "verdict": verdict,
            "worst_slack": float(self.worst_slack),
            "splits": [s.to_json() for s in self.splits],
        }


def na_all_splits(mu: Measure | np.ndarray) -> NAReport:
    """Run is_na over every unordered pair of disjoint nonempty index sets."""
    weights = mu.weights if isinstance(mu, Measure) else np.asarray(mu)
    n = weights.ndim
    if n < 2:
        raise ValueError("need at least two coordinates")
    results = []
    axes = range(n)
    seen = set()
    for ka in range(1, n):
        for A in itertools.combinations(axes, ka):
            rest = [i for i in axes if i not in A]
            for kb in range(1, len(rest) + 1):
                for B in itertools.combinations(rest, kb):
                    key = frozenset((A, B))
                    if key in seen:
                        continue
                    seen.add(key)
                    results.append(is_na(mu, A, B))
    worst = max(r.worst_slack for r in results)
    return NAReport(tuple(results), all(r.passed for r in results), worst)
