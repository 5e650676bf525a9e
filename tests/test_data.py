"""Raw binary dataset format and synthetic generator."""

import numpy as np
import pytest

from eevit.data import (
    DatasetSpec,
    EmptyDatasetError,
    LabelRangeError,
    TruncatedRecordError,
    build_dataset,
    gen_synthetic,
    load_raw_images,
    quantize_to_bytes,
    write_raw_images,
)


def _spec(**kwargs):
    defaults = dict(source="raw", path="", image_side=32, channels=3, num_classes=10)
    defaults.update(kwargs)
    return DatasetSpec(**defaults)


class TestRawFormat:
    def test_three_records_stride_3073(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(3, 3, 32, 32), dtype=np.uint8)
        labels = np.array([0, 5, 9], dtype=np.int64)
        path = tmp_path / "data.bin"
        write_raw_images(str(path), pixels, labels)
        assert path.stat().st_size == 3 * 3073
        ds = load_raw_images(str(path), _spec(path=str(path)))
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.labels, labels)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(5, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5)
        path = tmp_path / "roundtrip.bin"
        write_raw_images(str(path), pixels, labels)
        spec = _spec(path=str(path))
        ds = load_raw_images(str(path), spec)
        # un-normalize and re-quantize to recover the original bytes exactly
        mean = np.asarray(spec.mean).reshape(1, -1, 1, 1)
        std = np.asarray(spec.std).reshape(1, -1, 1, 1)
        recovered = quantize_to_bytes(ds.images * std + mean)
        np.testing.assert_array_equal(recovered, pixels)
        path2 = tmp_path / "again.bin"
        write_raw_images(str(path2), recovered, ds.labels)
        assert path.read_bytes() == path2.read_bytes()

    def test_all_zero_pixels_normalize_exactly(self, tmp_path):
        pixels = np.zeros((2, 3, 32, 32), dtype=np.uint8)
        path = tmp_path / "zeros.bin"
        write_raw_images(str(path), pixels, np.zeros(2, dtype=np.int64))
        spec = _spec(path=str(path), mean=(0.4, 0.5, 0.6), std=(0.2, 0.25, 0.3))
        ds = load_raw_images(str(path), spec)
        for c, (m, s) in enumerate(zip(spec.mean, spec.std)):
            np.testing.assert_allclose(ds.images[:, c], (0.0 - m) / s, rtol=1e-15)

    def test_truncated_stream_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (3073 + 17))
        with pytest.raises(TruncatedRecordError):
            load_raw_images(str(path), _spec(path=str(path)))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(EmptyDatasetError, match="empty.bin"):
            load_raw_images(str(path), _spec(path=str(path)))

    def test_label_out_of_range_rejected(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
        path = tmp_path / "labels.bin"
        write_raw_images(str(path), pixels, np.array([0, 10]))
        with pytest.raises(LabelRangeError):
            load_raw_images(str(path), _spec(path=str(path)))

    def test_writer_rejects_labels_outside_one_byte(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
        for labels in ([0, 256], [-1, 0]):
            with pytest.raises(LabelRangeError):
                write_raw_images(str(tmp_path / "wide.bin"), pixels, np.array(labels))


class TestSynthetic:
    def test_same_seed_bitwise_identical(self):
        a = gen_synthetic(4, 5, 16, 3, noise=0.1, seed=7)
        b = gen_synthetic(4, 5, 16, 3, noise=0.1, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seed_differs(self):
        a = gen_synthetic(4, 5, 16, 3, noise=0.1, seed=7)
        b = gen_synthetic(4, 5, 16, 3, noise=0.1, seed=8)
        assert not np.array_equal(a[0], b[0])

    def test_zero_noise_collapses_classes(self):
        pixels, labels = gen_synthetic(3, 4, 16, 3, noise=0.0, seed=0)
        for c in range(3):
            block = pixels[labels == c]
            for img in block[1:]:
                np.testing.assert_array_equal(img, block[0])

    def test_counts(self):
        pixels, labels = gen_synthetic(10, 100, 16, 3, noise=0.05, seed=0)
        assert pixels.shape == (1000, 3, 16, 16)
        assert np.bincount(labels).tolist() == [100] * 10

    def test_pixels_in_unit_range(self):
        pixels, _ = gen_synthetic(5, 10, 16, 3, noise=0.5, seed=3)
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 5, 16, 3, 0.1, 0)


class TestBuildDataset:
    def test_synthetic_source(self):
        spec = DatasetSpec(source="synthetic", per_class=5, num_classes=3,
                           image_side=16, mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))
        ds = build_dataset(spec)
        assert len(ds) == 15
        assert ds.images.dtype == np.float64

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(source="http")

    def test_normalization_constants_must_match_channels(self):
        with pytest.raises(ValueError):
            DatasetSpec(mean=(0.5,), std=(0.5, 0.5, 0.5))
