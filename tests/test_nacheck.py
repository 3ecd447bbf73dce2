import itertools
from fractions import Fraction as F

import numpy as np
import pytest

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
        with pytest.raises(CapExceeded):
            enumerate_upsets((4, 4))

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


class TestSampledFallback:
    def test_large_block_product_passes_sampled(self):
        m = Measure.product(
            Measure.poisson(0.6, box=4), Measure.poisson(0.6, box=4), Measure.bernoulli(0.3)
        )
        res = is_na(m, [0, 1], [2])
        assert res.mode == "sampled"
        assert res.passed
        assert res.worst_slack == pytest.approx(0.0, abs=1e-15)
        assert res.witness_pair is None

    def test_large_block_violation_found(self):
        w = np.zeros((5, 5, 2))
        w[0, 0, 0] = 0.5
        w[4, 4, 1] = 0.5
        res = is_na(Measure(w), [0, 1], [2])
        assert res.mode == "sampled"
        assert not res.passed
        # the first of the 4000 draws (seed 0) that reaches the worst slack
        assert res.worst_slack == 0.25
        top = tuple((i, j) for i in range(2, 5) for j in range(2, 5))
        assert res.witness_pair == (top, ((1,),))

    def test_report_labels_sampled(self):
        m = Measure.product(
            Measure.poisson(0.5, box=4), Measure.poisson(0.5, box=4), Measure.bernoulli(0.4)
        )
        rep = na_all_splits(m)
        assert rep.to_json()["verdict"] == "sampled-NA"
        (sampled,) = [s for s in rep.splits if s.mode == "sampled"]
        assert (sampled.A, sampled.B) == ((2,), (0, 1))
        assert sampled.worst_slack == pytest.approx(1.3877787807814457e-17, abs=1e-15)
        assert sampled.passed and sampled.witness_pair is None


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
