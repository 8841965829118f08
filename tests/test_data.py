"""Tests for dataset plumbing, standardization, splits, rng streams."""

import numpy as np
import pytest

from memtact.data import (
    Dataset,
    FeatureScaler,
    derive_rng,
    stratified_split_indices,
)


def test_dataset_validation_and_subset():
    ds = Dataset(np.arange(12.0).reshape(4, 3), np.array([0, 1, 0, 1]))
    assert len(ds) == 4
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.full((2, 2), np.inf), np.zeros(2))


def test_scaler_standardizes_columns():
    rng = derive_rng(50, 0)
    x = rng.normal(3.0, 2.5, size=(400, 6))
    scaler = FeatureScaler.fit(x)
    z = scaler.transform(x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_scaler_constant_column_maps_to_zero():
    x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    z = FeatureScaler.fit(x).transform(x)
    assert np.all(z[:, 0] == 0.0)
    assert z[:, 1].std() > 0


def test_scaler_dict_roundtrip():
    scaler = FeatureScaler.fit(derive_rng(50, 1).standard_normal((20, 3)))
    back = FeatureScaler.from_dict(scaler.to_dict())
    assert np.array_equal(back.mean, scaler.mean)
    assert np.array_equal(back.std, scaler.std)


def test_scaler_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        FeatureScaler.fit(np.zeros(5))
    with pytest.raises(ValueError):
        FeatureScaler.fit(np.zeros((0, 5)))


def test_split_is_stratified_and_covering():
    labels = np.repeat([1, 2, 3], [40, 60, 100])
    train, test = stratified_split_indices(labels, 0.25, derive_rng(51, 0))
    assert np.array_equal(np.sort(np.concatenate([train, test])),
                          np.arange(200))
    counts = {lab: int(np.sum(labels[test] == lab)) for lab in (1, 2, 3)}
    assert counts == {1: 10, 2: 15, 3: 25}


def test_split_clamps_to_keep_both_sides_non_empty():
    labels = np.array([0, 0, 1, 1])
    train, test = stratified_split_indices(labels, 0.01, derive_rng(51, 1))
    # round() would give zero test samples; the clamp keeps one per label
    assert np.sum(labels[test] == 0) == 1
    assert np.sum(labels[test] == 1) == 1
    train, test = stratified_split_indices(labels, 0.99, derive_rng(51, 2))
    assert np.sum(labels[train] == 0) == 1
    assert np.sum(labels[train] == 1) == 1


def test_split_validation():
    with pytest.raises(ValueError):
        stratified_split_indices([1, 1, 2], 0.5, derive_rng(51, 3))
    with pytest.raises(ValueError):
        stratified_split_indices([], 0.5, derive_rng(51, 4))
    with pytest.raises(ValueError):
        stratified_split_indices([1, 1, 2, 2], 0.0, derive_rng(51, 5))
    with pytest.raises(ValueError):
        stratified_split_indices([1, 1, 2, 2], 1.0, derive_rng(51, 6))


def test_split_is_deterministic_per_stream():
    labels = np.repeat(np.arange(5), 20)
    a = stratified_split_indices(labels, 0.3, derive_rng(52, 0))
    b = stratified_split_indices(labels, 0.3, derive_rng(52, 0))
    c = stratified_split_indices(labels, 0.3, derive_rng(52, 1))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_derive_rng_streams_are_reproducible_and_distinct():
    assert np.array_equal(derive_rng(9, 4).standard_normal(8),
                          derive_rng(9, 4).standard_normal(8))
    a = derive_rng(9, 4).standard_normal(8)
    b = derive_rng(9, 5).standard_normal(8)
    c = derive_rng(10, 4).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # deeper stream paths work too
    d = derive_rng(9, 4, 1).standard_normal(8)
    assert not np.array_equal(a, d)
