import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepgf.cli import _ts_fixture
from stablepgf.measures import Measure
from stablepgf.nacheck import CapExceeded, enumerate_upsets, is_na, na_all_splits


def brute_force_upsets(shape):
    """Reference: filter all 2^m subsets of the box, keeping the up-closed
    ones in increasing mask order, each with its minimal cells."""
    cells = list(itertools.product(*[range(s + 1) for s in shape]))
    m = len(cells)
    leq = [[all(x <= y for x, y in zip(c, d)) for d in cells] for c in cells]
    up = [sum(1 << j for j in range(m) if leq[i][j]) for i in range(m)]
    masks, antichains = [], []
    for s in range(1 << m):
        if all(s & up[i] == up[i] for i in range(m) if s >> i & 1):
            masks.append(s)
            members = [i for i in range(m) if s >> i & 1]
            antichains.append(
                tuple(cells[i] for i in members if not any(j != i and leq[j][i] for j in members))
            )
    return tuple(masks), tuple(antichains)


def reference_slacks(M, famA, famB):
    """Reference: mass * E[1_f 1_g] - E[1_f] E[1_g] by loops, for every
    up-set pair in row-major order."""
    n, k = M.shape
    mass = sum(M[i][j] for i in range(n) for j in range(k))
    out = []
    for fa in range(len(famA)):
        f = famA.indicator(fa)
        for fb in range(len(famB)):
            g = famB.indicator(fb)
            efg = sum(M[i][j] for i in range(n) for j in range(k) if f[i] and g[j])
            ef = sum(M[i][j] for i in range(n) for j in range(k) if f[i])
            eg = sum(M[i][j] for i in range(n) for j in range(k) if g[j])
            out.append(((famA.antichains[fa], famB.antichains[fb]), efg * mass - ef * eg))
    return out


def random_rational_law(rng, shape):
    w = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        w[idx] = F(int(rng.integers(0, 5)), int(rng.integers(1, 7)))
    w[(0,) * len(shape)] += 1
    return w / sum(w.flat)


class TestEnumerateUpsets:
    def test_matches_brute_force_filter(self):
        boxes = [
            shape
            for axes in (1, 2, 3)
            for shape in itertools.product(range(12), repeat=axes)
            if np.prod([s + 1 for s in shape]) <= 12
        ]
        for shape in boxes:
            fam = enumerate_upsets(shape)
            assert (fam.masks, fam.antichains) == brute_force_upsets(shape), shape

    def test_two_cell_chain(self):
        assert len(enumerate_upsets((1,))) == 3

    def test_three_cell_chain(self):
        assert len(enumerate_upsets((2,))) == 4

    def test_square(self):
        assert len(enumerate_upsets((1, 1))) == 6

    def test_cap(self):
        # (3,3,3) has 232,848 up-sets; the enumeration stops past 256
        with pytest.raises(CapExceeded):
            enumerate_upsets((3, 3, 3))

    def test_cap_counts_upsets_not_cells(self):
        # a chain of n + 1 cells has n + 2 up-sets, and a 5 x 5 box 252
        assert len(enumerate_upsets((254,))) == 256
        assert len(enumerate_upsets((4, 4))) == 252
        with pytest.raises(CapExceeded):
            enumerate_upsets((255,))
        with pytest.raises(CapExceeded):
            enumerate_upsets((10**6,))

    def test_lattice_closure(self):
        fam = enumerate_upsets((1, 2))
        masks = set(fam.masks)
        for a, b in itertools.combinations(fam.masks, 2):
            assert a | b in masks
            assert a & b in masks

    def test_antichains_minimal(self):
        fam = enumerate_upsets((1, 1))
        for k, anti in enumerate(fam.antichains):
            for c, d in itertools.permutations(anti, 2):
                assert not all(x <= y for x, y in zip(c, d))


class TestIsNa:
    def test_product_measure_exact_zero(self):
        w = np.empty((2, 2), dtype=object)
        for i in range(2):
            for j in range(2):
                w[i, j] = (F(1, 3) if i == 0 else F(2, 3)) * (F(1, 4) if j == 0 else F(3, 4))
        res = is_na(w, [0], [1])
        assert res.passed
        assert res.worst_slack == 0

    def test_diagonal_mixture_fails(self):
        w = np.zeros((2, 2))
        w[0, 0] = w[1, 1] = 0.5
        res = is_na(Measure(w), [0], [1])
        assert not res.passed
        assert res.worst_slack == pytest.approx(0.25)
        assert res.witness_pair == (((1,),), ((1,),))

    def test_stable_fixture_passes(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            w = _ts_fixture(rng)
            res = is_na(w, [0], [1])
            assert res.passed and res.worst_slack <= 0

    def test_split_validation(self):
        w = np.zeros((2, 2))
        w[0, 0] = 1.0
        with pytest.raises(ValueError):
            is_na(Measure(w), [0], [0])
        with pytest.raises(ValueError):
            is_na(Measure(w), [], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight(self, bad):
        w = np.full((2, 2), 0.25)
        w[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            is_na(w, [0], [1])

    @pytest.mark.parametrize("bad", [F(-1, 4), -0.25])
    def test_negative_weight(self, bad):
        w = np.array([[F(1, 2), F(1, 4)], [F(1, 2), bad]], dtype=object)
        if isinstance(bad, float):
            w = w.astype(float)
        with pytest.raises(ValueError, match=">= 0"):
            is_na(w, [0], [1])

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            is_na(np.full((2, 2), 0.25), [0], [5])

    def test_non_integer_axis(self):
        # operator.index(True) is 1, so bools once passed as axes 0 and 1
        for A, B in [([0], [1.7]), ((False,), (True,)), ([0], [np.bool_(True)]), ([True], [0])]:
            with pytest.raises(ValueError, match="A and B must hold integer axis indices"):
                is_na(np.full((2, 2), 0.25), A, B)

    def test_over_cap_side_raises(self):
        # the (0, 1, 2) side is a (3,3,3) box
        w = np.full((4, 4, 4, 2), 1 / 128)
        with pytest.raises(CapExceeded):
            is_na(w, [0, 1, 2], [3])
        with pytest.raises(CapExceeded):
            na_all_splits(w)

    def test_binomial_poisson_product_is_exhaustive(self):
        # 21 cells per side, past the cell limit of earlier versions
        binom = Measure(np.array([math.comb(20, k) * 0.3**k * 0.7 ** (20 - k) for k in range(21)]))
        res = is_na(Measure.product(binom, Measure.poisson(2.0, box=20)), [0], [1])
        assert res.mode == "exhaustive"
        assert res.passed and res.witness_pair is None
        assert res.worst_slack == pytest.approx(0.0, abs=1e-15)


class TestExactAndFloat:
    """The exact (object-array) and float paths of is_na share one slack
    routine: both must agree with the loop reference and with each other."""

    def fixtures(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            yield _ts_fixture(rng)
        for shape in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 2, 2), (2, 2, 3)]:
            for _ in range(6):
                yield random_rational_law(rng, shape)
        # an empty middle row and column tie four up-set pairs at the worst slack
        w = np.full((3, 3), F(0), dtype=object)
        w[0, 0] = w[2, 2] = F(1, 2)
        yield w

    def test_exact_and_float_paths_agree(self):
        violated = 0
        for w in self.fixtures():
            # splits whose projection is a plain reshape: first axis vs the rest,
            # all but the last axis vs the last
            splits = [((0,), tuple(range(1, w.ndim)), w.reshape(w.shape[0], -1))]
            if w.ndim > 2:
                splits.append((tuple(range(w.ndim - 1)), (w.ndim - 1,), w.reshape(-1, w.shape[-1])))
            for A, B, M in splits:
                famA = enumerate_upsets([w.shape[a] - 1 for a in A])
                famB = enumerate_upsets([w.shape[b] - 1 for b in B])
                ref = reference_slacks(M, famA, famB)
                top = max(s for _, s in ref)
                best = [pair for pair, s in ref if s == top]
                exact = is_na(w, A, B)
                assert type(exact.worst_slack) is F and exact.worst_slack == top
                assert exact.passed == (top <= 0)
                assert exact.witness_pair == (None if exact.passed else best[0])
                flt = is_na(w.astype(float), A, B)
                assert flt.passed == exact.passed
                assert abs(flt.worst_slack - float(top)) <= 1e-15
                # an exact tie may be broken either way by float rounding
                if flt.witness_pair is not None:
                    assert flt.witness_pair in best
                    if len(best) == 1:
                        assert flt.witness_pair == exact.witness_pair
                violated += not exact.passed
        assert violated > 10


class TestNaAllSplits:
    def test_point_mass_zero_slack(self):
        rep = na_all_splits(Measure.point_mass((1, 1, 0)))
        assert rep.passed
        assert float(rep.worst_slack) <= 1e-12

    def test_mixture_recorded(self):
        w = np.zeros((2, 2))
        w[0, 0] = w[1, 1] = 0.5
        rep = na_all_splits(Measure(w))
        assert not rep.passed
        bad = [s for s in rep.splits if not s.passed]
        assert bad and bad[0].witness_pair is not None

    def test_three_site_split_count(self):
        rep = na_all_splits(Measure.point_mass((0, 0, 0), shape=(2, 2, 2)))
        # unordered disjoint nonempty pairs over 3 coordinates:
        # (3^3 - 2*2^3 + 1)/2 = 6
        assert len(rep.splits) == 6

    def test_report_json(self):
        w = np.zeros((2, 2))
        w[0, 0] = w[1, 1] = 0.5
        data = na_all_splits(Measure(w)).to_json()
        assert data["verdict"] == "violated"
        assert any("witness_pair" in s for s in data["splits"])


class TestLargeSides:
    """Sides of 25 cells (252 up-sets) are checked pair by pair."""

    def test_large_block_product_passes_exhaustive(self):
        m = Measure.product(
            Measure.poisson(0.6, box=4), Measure.poisson(0.6, box=4), Measure.bernoulli(0.3)
        )
        res = is_na(m, [0, 1], [2])
        assert res.mode == "exhaustive"
        assert res.passed
        assert res.worst_slack == pytest.approx(0.0, abs=1e-15)
        assert res.witness_pair is None

    def test_large_block_violation_found(self):
        w = np.zeros((5, 5, 2))
        w[0, 0, 0] = 0.5
        w[4, 4, 1] = 0.5
        res = is_na(Measure(w), [0, 1], [2])
        assert not res.passed
        assert res.worst_slack == 0.25
        # every up-set containing (4, 4) but not (0, 0) reaches 0.25 against
        # {1}; in increasing mask order the first of them is {(4, 4)} itself
        assert res.witness_pair == (((4, 4),), ((1,),))

    def test_report_labels_na(self):
        m = Measure.product(
            Measure.poisson(0.5, box=4), Measure.poisson(0.5, box=4), Measure.bernoulli(0.4)
        )
        rep = na_all_splits(m)
        assert rep.to_json()["verdict"] == "NA"
        assert all(s.mode == "exhaustive" for s in rep.splits)
        (big,) = [s for s in rep.splits if (s.A, s.B) == ((2,), (0, 1))]
        assert big.worst_slack == pytest.approx(0.0, abs=1e-15)
        assert big.passed and big.witness_pair is None


def suffix_pair_max(M):
    """Reference for two one-coordinate sides, whose up-sets are the empty
    set and the suffixes {i..n-1}: the first maximum of mass * E[1_f 1_g] -
    E[1_f] E[1_g] in is_na's row-major order (empty set first, then the
    suffixes from the shortest), with its witness, by 2-D suffix sums."""
    n, k = len(M), len(M[0])
    T = [[F(0)] * (k + 1) for _ in range(n + 1)]
    for i in reversed(range(n)):
        for j in reversed(range(k)):
            T[i][j] = M[i][j] + T[i + 1][j] + T[i][j + 1] - T[i + 1][j + 1]
    mass = T[0][0]
    best, witness = F(0), None  # every pair with an empty side has slack 0
    for i in reversed(range(n)):
        for j in reversed(range(k)):
            s = mass * T[i][j] - T[i][0] * T[0][j]
            if s > best:
                best, witness = s, (((i,),), ((j,),))
    return best, witness


@given(
    st.integers(17, 60),
    st.integers(17, 60),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_two_site_worst_slack_is_the_suffix_pair_maximum(n, k, seed, product):
    rng = np.random.default_rng(seed)
    if product:
        # independent sides: NA with slack exactly 0
        a, b = rng.integers(0, 4, n), rng.integers(0, 4, k)
        a[0] += 1
        b[0] += 1
        ints = np.multiply.outer(a, b).astype(object)
    else:
        ints = (rng.integers(0, 4, (n, k)) * rng.integers(0, 2, (n, k))).astype(object)
        ints[0, 0] += 1
    total = int(ints.sum())
    w = np.array([F(int(x), total) for x in ints.flat], dtype=object).reshape(n, k)
    res = is_na(w, [0], [1])
    best, witness = suffix_pair_max(w.tolist())
    assert res.worst_slack == best
    assert res.passed == (best <= 0)
    assert res.witness_pair == witness


class TestIndicatorSufficiency:
    def test_random_monotone_functions_agree_with_indicators(self):
        # integer monotone functions are sums of up-set indicators, so the
        # indicator verdict decides the general inequality; check verdict
        # agreement on random small measures
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = rng.uniform(0, 1, size=(2, 2))
            w = w / w.sum()
            famA = enumerate_upsets((1,))
            res = is_na(Measure(w), [0], [1])
            # random monotone integer F, G as sums of up-set indicators
            worst = -np.inf
            for _ in range(20):
                fsel = rng.integers(0, 2, size=len(famA))
                gsel = rng.integers(0, 2, size=len(famA))
                Fv = sum(int(s) * famA.indicator(k) for k, s in enumerate(fsel))
                Gv = sum(int(s) * famA.indicator(k) for k, s in enumerate(gsel))
                ef = sum(w[i, j] * Fv[i] for i in range(2) for j in range(2))
                eg = sum(w[i, j] * Gv[j] for i in range(2) for j in range(2))
                efg = sum(w[i, j] * Fv[i] * Gv[j] for i in range(2) for j in range(2))
                worst = max(worst, efg - ef * eg)
            if res.passed:
                assert worst <= 1e-9
