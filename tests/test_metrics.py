import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clbgmm.errors import ValidationError
from clbgmm.metrics import (
    AccuracyMatrix,
    accuracy,
    average_accuracy,
    average_incremental_accuracy,
    compute_report,
    final_accuracies,
    forgetting,
    forgetting_measure,
    intransigence,
    relative_evolution,
)

from _oracles import (
    brute_average_accuracy,
    brute_average_incremental_accuracy,
    brute_forgetting,
    brute_forgetting_measure,
)


def matrix_from(rows):
    return AccuracyMatrix.from_rows(rows, [f"t{i}" for i in range(1, len(rows) + 1)])


def random_matrix(rng, t=6):
    return [[rng.uniform() for _ in range(k)] for k in range(1, t + 1)]


class TestAccuracyMatrix:
    def test_rejects_non_triangular(self):
        with pytest.raises(ValidationError):
            matrix_from([[0.5, 0.5]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError):
            matrix_from([[1.5]])

    def test_undefined_upper_triangle(self):
        m = matrix_from([[0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            m.get(1, 2)


class TestAccuracy:
    def test_fraction_of_equal_pairs(self):
        assert accuracy(["a", "b", "b"], ["a", "b", "c"]) == 2 / 3
        assert accuracy(np.array(["x"], dtype=object), np.array(["x"], dtype=object)) == 1.0

    @pytest.mark.parametrize("preds,truth", [([], []), (["a"], ["a", "b"]), (["a", "b"], ["a"])])
    def test_rejects_empty_or_unequal_lengths(self, preds, truth):
        with pytest.raises(ValidationError, match="one prediction per truth value"):
            accuracy(preds, truth)


# a call outside a metric's range -> its whole message
RANGE_ERRORS = {
    "AIA k=2 of 1": (lambda: average_incremental_accuracy(matrix_from([[0.5]]), 2),
                     "k=2 out of range"),
    "f j=0": (lambda: forgetting(matrix_from([[0.5], [0.5, 0.5]]), 0, 2),
              "(j=0, k=2) out of range"),
    "f k=3 of 2": (lambda: forgetting(matrix_from([[0.5], [0.5, 0.5]]), 1, 3),
                   "(j=1, k=3) out of range"),
    "FM k=3 of 2": (lambda: forgetting_measure(matrix_from([[0.5], [0.5, 0.5]]), 3),
                    "k=3 out of range"),
    "test size 0": (lambda: final_accuracies(matrix_from([[0.5]]), [0]),
                    "test sizes must be positive"),
    "two references for one task": (lambda: compute_report(matrix_from([[0.5]]), [10], [0.5, 0.5]),
                                    "need 1 joint-reference accuracies, got 2"),
}


@pytest.mark.parametrize("case", list(RANGE_ERRORS))
def test_out_of_range_call_names_the_range(case):
    call, message = RANGE_ERRORS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


class TestAverageAccuracy:
    def test_two_task_mean(self):
        m = matrix_from([[0.9], [0.6, 0.8]])
        assert average_accuracy(m, 2) == pytest.approx(0.7)

    def test_k1_identity(self):
        m = matrix_from([[0.42]])
        assert average_accuracy(m, 1) == 0.42

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            average_accuracy(matrix_from([[0.5]]), 2)


class TestAverageIncrementalAccuracy:
    def test_running_mean(self):
        m = matrix_from([[0.8], [0.6, 0.8]])
        assert average_incremental_accuracy(m, 2) == pytest.approx((0.8 + 0.7) / 2)

    def test_constant_fixed_point(self):
        m = matrix_from([[0.6], [0.6, 0.6], [0.6, 0.6, 0.6]])
        for k in (1, 2, 3):
            assert average_incremental_accuracy(m, k) == pytest.approx(0.6)


class TestForgetting:
    def test_simple_drop(self):
        m = matrix_from([[0.9], [0.7, 0.5]])
        assert forgetting(m, 1, 2) == pytest.approx(0.2)

    def test_negative_not_clamped(self):
        m = matrix_from([[0.5], [0.6, 0.5]])
        assert forgetting(m, 1, 2) == pytest.approx(-0.1)

    def test_j_ge_k_rejected(self):
        m = matrix_from([[0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            forgetting(m, 2, 2)

    def test_max_over_available_rows_only(self):
        # column 2 exists only from row 2 on; the max must skip row 1
        m = matrix_from([[0.1], [0.9, 0.8], [0.2, 0.3, 0.4]])
        assert forgetting(m, 2, 3) == pytest.approx(0.8 - 0.3)


class TestForgettingMeasure:
    def test_single_past_task(self):
        m = matrix_from([[0.9], [0.7, 0.5]])
        assert forgetting_measure(m, 2) == pytest.approx(0.2)

    def test_undefined_at_first_task(self):
        with pytest.raises(ValidationError):
            forgetting_measure(matrix_from([[0.5]]), 1)

    def test_nonnegative_on_decaying_columns(self):
        m = matrix_from([[0.9], [0.8, 0.9], [0.7, 0.85, 0.9]])
        for k in (2, 3):
            assert forgetting_measure(m, k) >= 0.0

    def test_zero_on_constant_columns(self):
        m = matrix_from([[0.6], [0.6, 0.7], [0.6, 0.7, 0.8]])
        for k in (2, 3):
            assert forgetting_measure(m, k) == pytest.approx(0.0, abs=1e-15)


class TestOracleEquivalence:
    def test_100_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rows = random_matrix(rng)
            m = matrix_from(rows)
            for k in range(1, 7):
                assert average_accuracy(m, k) == pytest.approx(
                    brute_average_accuracy(rows, k), abs=1e-12)
                assert average_incremental_accuracy(m, k) == pytest.approx(
                    brute_average_incremental_accuracy(rows, k), abs=1e-12)
            for k in range(2, 7):
                for j in range(1, k):
                    assert forgetting(m, j, k) == pytest.approx(
                        brute_forgetting(rows, j, k), abs=1e-12)
                assert forgetting_measure(m, k) == pytest.approx(
                    brute_forgetting_measure(rows, k), abs=1e-12)


class TestIntransigence:
    def test_zero(self):
        assert intransigence(0.8, 0.8) == 0.0

    def test_positive(self):
        assert intransigence(0.9, 0.7) == pytest.approx(0.2)

    def test_negative_allowed(self):
        assert intransigence(0.6, 0.7) == pytest.approx(-0.1)


class TestRelativeEvolution:
    def test_paper_merged_over_au(self):
        assert relative_evolution(0.575, 0.530) == pytest.approx(0.0849, abs=1e-4)

    def test_equal_is_zero(self):
        assert relative_evolution(0.5, 0.5) == 0.0

    def test_paper_compound_disgust(self):
        assert relative_evolution(0.496, 0.527) == pytest.approx(-0.0588, abs=1e-4)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValidationError):
            relative_evolution(0.5, 0.0)


class TestFinalAccuracies:
    def test_equal_sizes_macro_equals_micro(self):
        m = matrix_from([[0.9], [0.5, 0.7]])
        macro, micro = final_accuracies(m, [10, 10])
        assert macro == pytest.approx(micro)

    def test_weighted_example(self):
        m = matrix_from([[0.9], [1.0, 0.0]])
        macro, micro = final_accuracies(m, [90, 10])
        assert macro == pytest.approx(0.5)
        assert micro == pytest.approx(0.9)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            final_accuracies(matrix_from([[0.5]]), [10, 10])


class TestComputeReport:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_pure_function_of_matrix(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_matrix(rng, t=4)
        m = matrix_from(rows)
        sizes = [10, 20, 30, 40]
        refs = [rng.uniform() for _ in range(4)]
        a = compute_report(m, sizes, refs)
        b = compute_report(m, sizes, refs)
        assert a.to_dict() == b.to_dict()
        assert a.aia[0] == a.aa[0]
        assert all(0.0 <= v <= 1.0 for v in a.aa + a.aia)
