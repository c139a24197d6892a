"""Index formulas vs the independent scalar oracle, plus NaN discipline."""

import numpy as np
import pytest

from burnmap.errors import ConfigError, DataError
from burnmap.rasters import ALL_BANDS, BandId, RasterPatch
from burnmap.spectral import (
    BITEMPORAL,
    UNITEMPORAL,
    IndexKind,
    compute_index,
    delta_field,
)
from burnmap.synthetic import benchmark_config, generate_dataset

from scalar_formulas import scalar_delta, scalar_index, scalar_rbr, scalar_rdnbr


def patch_from(bands_to_value: dict) -> RasterPatch:
    """1x1 patch over all bands; unlisted bands get 0.5."""
    data = np.array(
        [[[bands_to_value.get(b, 0.5)]] for b in ALL_BANDS], dtype=np.float32
    )
    return RasterPatch(ALL_BANDS, data)


def random_patch(rng, height=1, width=1000):
    data = rng.uniform(0.01, 1.0, (len(ALL_BANDS), height, width)).astype(np.float32)
    return RasterPatch(ALL_BANDS, data)


def pixel_dict(patch, row, col):
    return {b.value: float(patch.band(b)[row, col]) for b in ALL_BANDS}


class TestScalarOracle:
    """Vectorized indices must reproduce the scalar formulas pixel for pixel."""

    def test_unitemporal_oracle_1000_pixels(self):
        rng = np.random.default_rng(101)
        patch = random_patch(rng)
        for kind in UNITEMPORAL:
            field = compute_index(kind, patch)[0]
            expected = np.array(
                [scalar_index(kind.value, pixel_dict(patch, 0, c)) for c in range(1000)]
            )
            np.testing.assert_allclose(field, expected, rtol=1e-6, err_msg=kind.value)

    def test_delta_oracle(self):
        rng = np.random.default_rng(102)
        pre, post = random_patch(rng, 1, 200), random_patch(rng, 1, 200)
        for kind in UNITEMPORAL:
            field = delta_field(kind, pre, post)[0]
            expected = [
                scalar_delta(kind.value, pixel_dict(pre, 0, c), pixel_dict(post, 0, c))
                for c in range(200)
            ]
            np.testing.assert_allclose(field, expected, rtol=1e-6, err_msg=kind.value)

    def test_bitemporal_oracle(self):
        rng = np.random.default_rng(103)
        pre, post = random_patch(rng, 1, 200), random_patch(rng, 1, 200)
        for kind, scalar in ((IndexKind.RDNBR, scalar_rdnbr), (IndexKind.RBR, scalar_rbr)):
            field = delta_field(kind, pre, post)[0]
            expected = [
                scalar(pixel_dict(pre, 0, c), pixel_dict(post, 0, c)) for c in range(200)
            ]
            np.testing.assert_allclose(field, expected, rtol=1e-6)


class TestHandValues:
    def test_ndvi_hand_case(self):
        p = patch_from({BandId.B8A: 0.5, BandId.B04: 0.25})
        np.testing.assert_allclose(
            compute_index(IndexKind.NDVI, p)[0, 0], 0.25 / 0.75, rtol=1e-6
        )

    def test_ndvi_equal_bands_is_zero(self):
        p = patch_from({BandId.B8A: 0.3, BandId.B04: 0.3})
        assert compute_index(IndexKind.NDVI, p)[0, 0] == 0.0

    def test_mirbi_constant_term(self):
        p = patch_from({BandId.B11: 0.0, BandId.B12: 0.0})
        np.testing.assert_allclose(compute_index(IndexKind.MIRBI, p)[0, 0], 2.0)

    def test_delta_identical_patches_zero(self):
        rng = np.random.default_rng(5)
        p = random_patch(rng, 4, 4)
        for kind in UNITEMPORAL:
            np.testing.assert_array_equal(
                delta_field(kind, p, p), np.zeros((4, 4), np.float32)
            )

    def test_dndvi_hand_case(self):
        # NDVI_pre = 0.6 (NIR=0.4, Red=0.1); NDVI_post = 0.1 (NIR=0.11, Red=0.09)
        pre = patch_from({BandId.B8A: 0.4, BandId.B04: 0.1})
        post = patch_from({BandId.B8A: 0.11, BandId.B04: 0.09})
        np.testing.assert_allclose(
            delta_field(IndexKind.NDVI, pre, post)[0, 0], 0.5, rtol=1e-5
        )

    def test_rdnbr_hand_case(self):
        # NBR_pre = 0.5 (NIR=0.3, SWIR=0.1); NBR_post = 0.1 (NIR=0.22, SWIR=0.18)
        pre = patch_from({BandId.B8A: 0.3, BandId.B12: 0.1})
        post = patch_from({BandId.B8A: 0.22, BandId.B12: 0.18})
        np.testing.assert_allclose(
            delta_field(IndexKind.RDNBR, pre, post)[0, 0], 0.4 / np.sqrt(0.0005), rtol=1e-5
        )

    def test_rdnbr_zero_pre_nbr_is_nan(self):
        pre = patch_from({BandId.B8A: 0.2, BandId.B12: 0.2})
        post = patch_from({BandId.B8A: 0.22, BandId.B12: 0.18})
        assert np.isnan(delta_field(IndexKind.RDNBR, pre, post)[0, 0])

    def test_rbr_hand_case(self):
        pre = patch_from({BandId.B8A: 0.3, BandId.B12: 0.1})
        post = patch_from({BandId.B8A: 0.22, BandId.B12: 0.18})
        np.testing.assert_allclose(
            delta_field(IndexKind.RBR, pre, post)[0, 0], 0.4 / 1.501, rtol=1e-5
        )

    def test_rbr_finite_at_nbr_minus_one(self):
        pre = patch_from({BandId.B8A: 0.0, BandId.B12: 0.2})  # NBR_pre = -1
        post = patch_from({BandId.B8A: 0.22, BandId.B12: 0.18})
        assert np.isfinite(delta_field(IndexKind.RBR, pre, post)[0, 0])

    def test_equal_epochs_zero_rdnbr_rbr(self):
        p = patch_from({BandId.B8A: 0.3, BandId.B12: 0.1})
        assert delta_field(IndexKind.RDNBR, p, p)[0, 0] == 0.0
        assert delta_field(IndexKind.RBR, p, p)[0, 0] == 0.0


class TestProperties:
    NORMALIZED = (IndexKind.NDVI, IndexKind.NDWI, IndexKind.NBR, IndexKind.NBR2, IndexKind.NBI)

    def test_normalized_indices_bounded(self):
        rng = np.random.default_rng(7)
        patch = random_patch(rng, 8, 125)
        for kind in self.NORMALIZED:
            v = compute_index(kind, patch)
            assert np.nanmax(np.abs(v)) <= 1.0 + 1e-6, kind.value

    def test_delta_antisymmetry(self):
        rng = np.random.default_rng(8)
        a, b = random_patch(rng, 4, 50), random_patch(rng, 4, 50)
        for kind in UNITEMPORAL:
            ab = delta_field(kind, a, b)
            ba = delta_field(kind, b, a)
            defined = np.isfinite(ab) & np.isfinite(ba)
            np.testing.assert_allclose(ab[defined], -ba[defined], rtol=1e-5, atol=1e-7)

    def test_float32_storage(self):
        rng = np.random.default_rng(9)
        field = compute_index(IndexKind.BAI, random_patch(rng, 2, 2))
        assert field.dtype == np.float32 and field.shape == (2, 2)


class TestNanDiscipline:
    def test_zero_denominator_is_nan(self):
        p = patch_from({BandId.B8A: 0.4, BandId.B12: 0.0})
        assert np.isnan(compute_index(IndexKind.CSI, p)[0, 0])

    def test_evi_zero_denominator(self):
        # NIR + 6*Red - 7.5*Blue + 1 = 0.5 + 2.25 - 3.75 + 1 = 0, all
        # dyadic values so the cancellation is exact in float arithmetic.
        p = patch_from({BandId.B8A: 0.5, BandId.B04: 0.375, BandId.B02: 0.5})
        assert np.isnan(compute_index(IndexKind.EVI, p)[0, 0])

    def test_no_nan_on_positive_reflectance(self):
        rng = np.random.default_rng(11)
        patch = random_patch(rng, 4, 100)
        for kind in (IndexKind.NDVI, IndexKind.NBR, IndexKind.MIRBI, IndexKind.SAVI):
            assert np.isfinite(compute_index(kind, patch)).all()

    def test_delta_propagates_nan(self):
        pre = patch_from({BandId.B8A: 0.4, BandId.B12: 0.0})
        post = patch_from({BandId.B8A: 0.4, BandId.B12: 0.2})
        assert np.isnan(delta_field(IndexKind.CSI, pre, post)[0, 0])

    @pytest.mark.filterwarnings("error")
    def test_benchmark_data_raises_no_floating_point_warning(self):
        """Singular pixels turn into NaN without a RuntimeWarning: every change
        field over the standard benchmark dataset, warnings as errors."""
        nan_pixels = 0
        for s in generate_dataset(benchmark_config(noise=0.02), seed=1):
            for kind in IndexKind:
                nan_pixels += int(np.isnan(delta_field(kind, s.pre, s.post)).sum())
        assert nan_pixels > 0  # the singular pixels are really there


class TestErrors:
    def test_missing_band_names_index_and_band(self):
        bands = tuple(b for b in ALL_BANDS if b is not BandId.B06)
        data = np.full((len(bands), 2, 2), 0.4, np.float32)
        p = RasterPatch(bands, data)
        with pytest.raises(DataError, match="BAIS2.*B06"):
            compute_index(IndexKind.BAIS2, p)

    def test_bitemporal_rejected_in_compute_index(self):
        p = patch_from({})
        with pytest.raises(ConfigError, match="pre/post"):
            compute_index(IndexKind.RDNBR, p)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DataError, match="delta"):
            delta_field(IndexKind.NDVI, random_patch(rng, 2, 4), random_patch(rng, 2, 5))


class TestPlumbing:
    def test_parse_case_insensitive_and_plus(self):
        assert IndexKind.parse("ndvi") is IndexKind.NDVI
        assert IndexKind.parse("NBR+") is IndexKind.NBRPLUS
        assert IndexKind.parse("RdNBR") is IndexKind.RDNBR
        with pytest.raises(ConfigError):
            IndexKind.parse("NOTANINDEX")

    def test_partition_of_kinds(self):
        assert set(UNITEMPORAL) | set(BITEMPORAL) == set(IndexKind)
        assert len(UNITEMPORAL) == 13 and len(BITEMPORAL) == 2
