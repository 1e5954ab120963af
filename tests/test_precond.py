import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilab import densela, precond
from equilab.errors import DimensionError, NonFiniteError, ZeroRowError


def imbalanced(seed, m=8, n=8):
    rng = np.random.default_rng(np.random.SeedSequence((seed, m, n)))
    a = rng.standard_normal((m, n))
    return a * 10.0 ** rng.uniform(-3.0, 3.0, size=m)[:, None]


class TestRowEquilibration:
    def test_oracle_3_4_0_5(self):
        e, ea = precond.row_equilibrate(np.array([[3.0, 4.0], [0.0, 5.0]]))
        np.testing.assert_allclose(e, [0.2, 0.2])
        assert not e.flags.writeable
        np.testing.assert_allclose(ea, [[0.6, 0.8], [0.0, 1.0]])

    def test_unit_rows(self):
        a = imbalanced(0)
        _, ea = precond.row_equilibrate(a)
        np.testing.assert_allclose(np.linalg.norm(ea, axis=1), 1.0, rtol=1e-14)

    def test_zero_row_raises_with_index(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ZeroRowError) as exc:
            precond.row_equilibrate(a)
        assert exc.value.index == 1
        assert exc.value.axis == "row"

    def test_zero_error_messages_name_the_entry(self):
        with pytest.raises(ZeroRowError, match=r"^row 1 is zero$"):
            precond.row_equilibrate(np.array([[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ZeroRowError, match=r"^column 0 is zero$"):
            precond.column_equilibrate(np.array([[0.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ZeroRowError, match=r"^diagonal entry 0 is zero$"):
            precond.jacobi_precondition(np.array([[0.0, 1.0], [1.0, 1.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_never_worse_on_imbalanced_rows(self, seed):
        # statistical reading of the row-scaling bound; equality is allowed
        a = imbalanced(seed)
        k_before = densela.condition_number(a)
        _, ea = precond.row_equilibrate(a)
        k_after = densela.condition_number(ea)
        assert k_after <= k_before * (1.0 + 1e-9)

    def test_idempotent(self):
        _, ea = precond.row_equilibrate(imbalanced(3))
        _, ea2 = precond.row_equilibrate(ea)
        np.testing.assert_allclose(ea, ea2, rtol=1e-14)


class TestColumnAndJacobi:
    def test_column_unit_columns(self):
        ac, c = precond.column_equilibrate(imbalanced(1).T)
        np.testing.assert_allclose(np.linalg.norm(ac, axis=0), 1.0, rtol=1e-14)
        np.testing.assert_allclose(ac, imbalanced(1).T * c, rtol=1e-14)

    def test_row_column_both(self):
        e, eac, c = precond.row_column_equilibrate(imbalanced(2))
        np.testing.assert_allclose(eac, np.diag(e) @ imbalanced(2) @ np.diag(c),
                                   rtol=1e-12)

    def test_jacobi_oracle(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        d, da = precond.jacobi_precondition(a)
        np.testing.assert_allclose(d, [0.25, 1.0 / 3.0])
        np.testing.assert_allclose(da, [[1.0, 0.25], [1.0 / 3.0, 1.0]])

    def test_jacobi_keeps_diag_sign(self):
        a = np.array([[-2.0, 0.0], [0.0, 4.0]])
        d, da = precond.jacobi_precondition(a)
        np.testing.assert_allclose(d, [-0.5, 0.25])
        np.testing.assert_allclose(np.diag(da), [1.0, 1.0])

    def test_jacobi_zero_diag_raises(self):
        with pytest.raises(ZeroRowError):
            precond.jacobi_precondition(np.array([[0.0, 1.0], [1.0, 1.0]]))


class TestVdsTrial:
    def test_p_equal_e_gives_ratio_one(self):
        a = imbalanced(9)
        e, _ = precond.row_equilibrate(a)
        k_ea, k_pa = precond.vds_trial(a, e)
        assert k_ea == pytest.approx(k_pa, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_within_sqrt_m_of_any_diagonal(self, seed):
        a = imbalanced(seed, 6, 6)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
        p = 10.0 ** rng.uniform(-2.0, 2.0, size=6)
        k_ea, k_pa = precond.vds_trial(a, p)
        assert k_ea <= np.sqrt(6.0) * k_pa * (1.0 + 1e-9)

    def test_scales_rows_by_the_diagonal(self):
        a = np.array([[3.0, 0.0], [0.0, 1.0]])
        k_ea, k_pa = precond.vds_trial(a, [1.0, 6.0])
        assert k_ea == pytest.approx(1.0, rel=1e-12)
        assert k_pa == pytest.approx(2.0, rel=1e-12)

    def test_rejects_zero_and_nonfinite_diagonal(self):
        a = np.eye(2)
        with pytest.raises(ZeroRowError):
            precond.vds_trial(a, [1.0, 0.0])
        with pytest.raises(NonFiniteError):
            precond.vds_trial(a, [1.0, np.inf])
        with pytest.raises(NonFiniteError):
            precond.vds_trial(a, [np.nan, 1.0])

    def test_rejects_negative_and_mismatched_diagonal(self):
        a = np.eye(2)
        with pytest.raises(DimensionError):
            precond.vds_trial(a, [1.0, -1.0])
        with pytest.raises(DimensionError):
            precond.vds_trial(a, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            precond.vds_trial(a, [1.0])


class TestReports:
    def test_report_fields_and_csv(self):
        a = np.array([[3.0, 4.0], [0.0, 5.0]])
        [rep] = precond.conditioning_report(a, ["row_equilibration"], seed=5)
        assert rep.rows == 2 and rep.cols == 2
        assert rep.kappa_before == pytest.approx(3.0, abs=1e-10)
        row = rep.csv_row()
        assert row.startswith("row_equilibration,2,2,")
        assert row.endswith(",5")
        assert len(row.split(",")) == len(precond.CSV_HEADER.split(","))

    def test_one_report_per_kind_in_order(self):
        a = imbalanced(4)
        kinds = ["jacobi", "row_equilibration", "column_equilibration"]
        reps = precond.conditioning_report(a, kinds)
        assert [r.kind for r in reps] == kinds
        assert {r.kappa_before for r in reps} == {densela.condition_number(a)}
        _, ea = precond.row_equilibrate(a)
        assert reps[1].kappa_after == densela.condition_number(ea)
        assert precond.conditioning_report(a, []) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionError):
            precond.conditioning_report(np.eye(2), ["row_equilibration", "nope"])
