"""Brute-force negative association checks on small boxes.

Negative association asks E[F G] <= E[F] E[G] for increasing F and G on
disjoint coordinate sets.  On a finite box it suffices to test indicator
functions of up-sets (monotone 0/1 functions), since every bounded
increasing function is a nonnegative combination of those plus a constant.
Up-set families are enumerated directly under a cap on their size, and one
slack routine serves exact and float weights; exact rational weights give
exact verdicts.  A side with more up-sets than the cap raises CapExceeded.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    it.  More than DEFAULT.upset_cap up-sets raise CapExceeded as soon as
    the partial list outgrows the cap; a box of m cells has at least m + 1
    up-sets (the empty one and one per cell), so a box of cap or more cells
    raises before it is built.
    """
    shape = tuple(int(s) for s in shape)
    m = math.prod(s + 1 for s in shape)
    cap = DEFAULT.upset_cap
    if m >= cap:
        raise CapExceeded(f"box {shape} has more than {cap} up-sets")
    cells, above, low = _box(shape)
    masks = [0]
    for i in reversed(range(m)):
        masks += [s | 1 << i for s in masks if s & above[i] == above[i]]
        if len(masks) > cap:
            raise CapExceeded(f"box {shape} has more than {cap} up-sets")
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
    mode = "exhaustive"  # the only mode; artifacts keep the key

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


def _axes(idx: Iterable[int]) -> tuple:
    try:
        idx = list(idx)
        # operator.index(True) is 1, so a bool would pass as axis 1
        if any(isinstance(a, (bool, np.bool_)) for a in idx):
            raise TypeError
        return tuple(sorted({operator.index(a) for a in idx}))
    except TypeError:
        raise ValueError("A and B must hold integer axis indices") from None


def is_na(mu: Measure | np.ndarray, A: Iterable[int], B: Iterable[int]) -> NASplitResult:
    """Check E[FG] <= E[F]E[G] over all up-set indicator pairs.

    F runs over up-sets of the A-projection box, G over the B-projection
    box; expectations are taken under the joint (A u B)-projection, so
    dependence between the two blocks is fully retained.  Object-dtype
    (Fraction) weights give an exact verdict with zero slack.  Every pair
    is checked; a side with more than DEFAULT.upset_cap up-sets raises
    CapExceeded.  Array weights must be finite and >= 0 (a Measure checks
    its own), and A and B disjoint, nonempty sets of integer axes in
    range(ndim), or ValueError is raised.
    """
    weights = mu.weights if isinstance(mu, Measure) else np.asarray(mu)
    # a Measure has checked its own weights; NaN fails both comparisons
    if not isinstance(mu, Measure) and not all(0 <= x < math.inf for x in weights.flat):
        raise ValueError("weights must be finite and >= 0")
    A, B, n = _axes(A), _axes(B), weights.ndim
    if not A or not B or set(A) & set(B) or not set(A + B) <= set(range(n)):
        raise ValueError(f"A and B must be disjoint nonempty sets of axes in range({n})")
    keep = tuple(sorted(A + B))
    joint = weights.sum(axis=tuple(i for i in range(n) if i not in keep))
    # put the A axes first, then flatten the joint onto an (A-cell, B-cell) matrix
    joint = np.transpose(joint, tuple(keep.index(a) for a in A + B))
    shapeA = tuple(s - 1 for s in joint.shape[: len(A)])
    shapeB = tuple(s - 1 for s in joint.shape[len(A) :])
    M = joint.reshape(math.prod(joint.shape[: len(A)]), -1)
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


@dataclass(frozen=True)
class NAReport:
    splits: tuple
    passed: bool
    worst_slack: object

    def to_json(self) -> dict:
        return {
            "verdict": "NA" if self.passed else "violated",
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
