import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clbgmm.dataset import ModalitySpec
from clbgmm.errors import ValidationError
from clbgmm.fusion import FusionPipeline, MinMaxNormalizer, apply_normalizer, fit_normalizer, fuse


class TestFitNormalizer:
    def test_componentwise_extremes(self):
        norm = fit_normalizer([[0.0, 2.0], [1.0, 4.0]])
        assert norm.per_dim_min.tolist() == [0.0, 2.0]
        assert norm.per_dim_max.tolist() == [1.0, 4.0]
        assert norm.to_dict() == {"per_dim_min": [0.0, 2.0], "per_dim_max": [1.0, 4.0]}

    def test_single_vector_degenerate_range(self):
        norm = fit_normalizer([[3.0, 3.0]])
        assert norm.per_dim_min.tolist() == norm.per_dim_max.tolist() == [3.0, 3.0]

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            fit_normalizer([])

    def test_old_file_key_is_ignored(self):
        stored = {"per_dim_min": [0.0], "per_dim_max": [2.0], "fitted_on": "t1"}
        assert MinMaxNormalizer.from_dict(stored).to_dict() == {
            "per_dim_min": [0.0], "per_dim_max": [2.0]}

    def test_bounds_cover_all_inputs(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(100, 5))
        norm = fit_normalizer(vectors)
        for v in vectors:
            assert np.all(norm.per_dim_min <= v)
            assert np.all(v <= norm.per_dim_max)


class TestApplyNormalizer:
    def test_midpoint(self):
        norm = fit_normalizer([[0.0], [2.0]])
        assert apply_normalizer(norm, [[1.0]])[0, 0] == pytest.approx(0.5)

    def test_zero_range_maps_to_zero(self):
        norm = fit_normalizer([[3.0]])
        assert apply_normalizer(norm, [[3.0]])[0, 0] == 0.0

    def test_clamps_out_of_range(self):
        # out-of-range values occur on later tasks: the normalizer is frozen
        norm = fit_normalizer([[0.0], [2.0]])
        assert apply_normalizer(norm, [[5.0], [-5.0]]).tolist() == [[1.0], [0.0]]

    def test_dimension_mismatch(self):
        norm = fit_normalizer([[0.0, 1.0]])
        with pytest.raises(ValidationError, match="dimension mismatch"):
            apply_normalizer(norm, [[1.0]])

    @pytest.mark.parametrize("v", [[0.5, 0.5], 0.5], ids=["(D,)", "scalar"])
    def test_rejects_input_that_is_not_a_matrix(self, v):
        norm = fit_normalizer([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValidationError, match="dimension mismatch"):
            apply_normalizer(norm, v)

    def test_matches_the_elementwise_formula(self):
        rng = np.random.default_rng(2)
        # the middle column has zero range; rows drawn wider than the fit clip
        norm = fit_normalizer(rng.normal(size=(10, 3)) * [1.0, 0.0, 5.0])
        matrix = rng.normal(size=(20, 3)) * 4.0
        lo, hi = norm.per_dim_min.tolist(), norm.per_dim_max.tolist()
        expected = [[min(max((x - lo[j]) / (hi[j] - lo[j]), 0.0), 1.0) if hi[j] > lo[j] else 0.0
                     for j, x in enumerate(row)] for row in matrix.tolist()]
        out = apply_normalizer(norm, matrix)
        assert {0.0, 1.0} <= set(out[:, 0]) and set(out[:, 1]) == {0.0}
        assert np.array_equal(out, np.array(expected))

    def test_zero_range_column_raises_no_warning(self):
        # x - min overflows in the constant column, which is never computed
        norm = fit_normalizer([[1e308, 0.0], [1e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_normalizer(norm, [[-1e308, 0.5]])
        assert out.tolist() == [[0.0, 0.5]]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
    def test_output_always_in_unit_interval(self, v):
        norm = fit_normalizer([[-1.0, 0.0, 5.0], [1.0, 0.0, 7.0]])
        out = apply_normalizer(norm, [v])
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestFuse:
    def test_concatenation_and_layout(self):
        fused = fuse([np.array([[0.1, 0.9]]), np.array([[2.0]])])
        assert fused.tolist() == [[0.1, 0.9, 2.0]]

    def test_single_segment_identity(self):
        fused = fuse([[1.0, 2.0, 3.0]])
        assert fused.tolist() == [1.0, 2.0, 3.0]

    def test_cfee_shaped_dimensions(self):
        fused = fuse([np.zeros((5, 512)), np.zeros((5, 17))])
        assert fused.shape == (5, 529)

    def test_slicing_recovers_segments(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 7))
        fused = fuse([a, b])
        assert np.array_equal(fused[:, :4], a)
        assert np.array_equal(fused[:, 4:], b)


class TestFusionPipeline:
    # manifest order differs from name order, and only the middle modality is raw
    SPECS = (ModalitySpec("z", "", 2, True), ModalitySpec("a", "", 1, False),
             ModalitySpec("m", "", 3, True))

    def features(self, seed, n):
        rng = np.random.default_rng(seed)
        return {spec.name: rng.normal(size=(n, spec.dim)) * 3.0 for spec in self.SPECS}

    def test_transform_normalizes_and_concatenates_in_manifest_order(self):
        train, test = self.features(0, 20), self.features(1, 7)
        pipeline = FusionPipeline.fit(self.SPECS, train)
        assert list(pipeline.normalizers) == ["z", "a", "m"]
        expected = fuse([apply_normalizer(fit_normalizer(train["z"]), test["z"]), test["a"],
                         apply_normalizer(fit_normalizer(train["m"]), test["m"])])
        assert np.array_equal(pipeline.transform(test), expected)

    def test_dict_roundtrip(self):
        pipeline = FusionPipeline.fit(self.SPECS, self.features(0, 20))
        doc = pipeline.to_dict()
        assert doc["normalizers"]["a"] is None
        back = FusionPipeline.from_dict(doc, self.SPECS)
        assert list(back.normalizers) == list(pipeline.normalizers)
        assert back.to_dict() == doc
        test = self.features(1, 7)
        assert np.array_equal(back.transform(test), pipeline.transform(test))
