import numpy as np
import pytest

from dmduq import numerics
from dmduq.errors import DegenerateData, ShapeMismatch
from dmduq.metrics import Agreement, agreement, compare, min_max_normalize


class TestCompare:
    def test_identical(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        report = compare(m, m)
        assert report.rmse == 0.0
        assert report.mae == 0.0
        assert report.frobenius == 0.0
        assert report.cosine == pytest.approx(1.0, abs=1e-15)

    def test_analytic_example(self):
        ref = np.array([[3.0, 4.0]])
        report = compare(np.array([[1.0, 1.0]]), ref)
        diff = np.array([2.0, 3.0])
        assert report.rmse == pytest.approx(np.sqrt((diff**2).mean()))
        assert report.mae == pytest.approx(2.5)
        assert report.frobenius == pytest.approx(np.sqrt(13.0))

    def test_zero_matrix_cosine_error(self):
        with pytest.raises(DegenerateData, match="cosine undefined for a zero matrix"):
            compare(np.zeros((1, 2)), np.array([[3.0, 4.0]]))

    def test_scale_invariant_cosine(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal((4, 5))
        report = compare(2.0 * ref, ref)
        assert report.cosine == pytest.approx(1.0, abs=1e-12)

    def test_rmse_frobenius_relation(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((6, 7)), rng.standard_normal((6, 7))
        report = compare(a, b)
        assert report.rmse * np.sqrt(42.0) == pytest.approx(report.frobenius, rel=1e-10)

    def test_cosine_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
            assert -1.0 - 1e-12 <= compare(a, b).cosine <= 1.0 + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compare(np.zeros((2, 2)), np.zeros((2, 3)))


    def test_independent_of_memory_layout(self):
        # np.linalg.norm sums in memory order; compare takes both inputs in C order.
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((260, 2)), rng.standard_normal((260, 2))
        want = compare(a, b)
        for got in (compare(a, np.asfortranarray(b)), compare(np.asfortranarray(a), b)):
            assert got == want


class TestMinMaxNormalize:
    def test_basic(self):
        assert np.allclose(min_max_normalize(np.array([1.0, 2.0, 3.0])), [0.0, 0.5, 1.0])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateData, match="min-max scaling undefined for constant input"):
            min_max_normalize(np.array([5.0, 5.0]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(10)
            a = rng.random() * 5.0 + 0.1
            b = rng.standard_normal()
            assert np.allclose(min_max_normalize(a * v + b), min_max_normalize(v), atol=1e-12)



class TestAgreement:
    def test_shares_median_and_largest_z(self):
        # |z| = 0.5, 1.5, 2.5, 0 and 5; the element of zero SE is counted apart.
        est = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        ref = est - np.array([[0.5, -1.5, 2.5], [0.0, 9.0, -10.0]])
        se = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
        assert agreement(est, ref, se) == Agreement(0.4, 0.6, 0.8, 1.5, 5.0, (1, 2), 1)

    def test_no_positive_standard_error(self):
        m = np.ones((2, 2))
        assert agreement(m, m, np.zeros((2, 2))) == Agreement(*[None] * 6, 4)

    @pytest.mark.parametrize("se", [np.ones((2, 3)), np.array([[1.0, np.nan], [1.0, 1.0]])])
    def test_shape_and_finiteness_checked(self, se):
        with pytest.raises(ShapeMismatch):
            agreement(np.ones((2, 2)), np.ones((2, 2)), se)

    @pytest.mark.parametrize("m", [40, 41])
    def test_row_blocks_keep_the_whole_tables_statistics(self, monkeypatch, m):
        # Cut into 3-row blocks, with ties, zero |z| and elements of zero SE, an even (m = 40)
        # and an odd (m = 41) count: the statistics of the whole table of |z|.
        rng = np.random.default_rng(m)
        est = rng.standard_normal((m, m))
        ref = est + rng.standard_normal((m, m))
        ref[:4], ref[4:8] = est[:4], est[4:8] + 0.25  # ties at zero and at 0.25 or 0.5
        se = rng.choice([0.0, 0.5, 1.0], size=(m, m))
        if np.count_nonzero(se) % 2 != m % 2:
            se[0, 0] = 0.5 - se[0, 0] if se[0, 0] < 1 else 0.0
        monkeypatch.setattr(numerics, "_CHUNK_SCALARS", 32 * 2 * 3 * m)
        positive = se > 0
        z = np.abs(est - ref)[positive] / se[positive]
        assert z.size % 2 == m % 2
        table = np.full(se.shape, -1.0)
        table[positive] = z
        at = np.unravel_index(np.argmax(table), se.shape)
        assert agreement(est, ref, se) == Agreement(
            *[np.count_nonzero(z <= k) / z.size for k in (1, 2, 3)], float(np.median(z)),
            float(z.max()), tuple(int(i) for i in at), int(np.count_nonzero(~positive)))
