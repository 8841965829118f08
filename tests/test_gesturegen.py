"""Generator tests: class geometry and dataset assembly."""

import numpy as np
import pytest

from memtact.data import derive_rng
from memtact.gesturegen import (
    DEFAULT_NOISE_STD,
    GenSpec,
    SPEED_BANDS,
    generate_dataset,
    generate_gesture,
)
from memtact.tactile import (
    SPEEDS,
    centroid_trajectory,
    extract_features,
    peak_count,
    preprocess,
)


def shoelace(tx, ty):
    """Signed area of the closed polygon through the trajectory points."""
    x = np.append(tx, tx[0])
    y = np.append(ty, ty[0])
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


# -- gesture geometry ----------------------------------------------------------


def test_single_tap_has_one_interior_peak():
    for speed in SPEEDS:
        for seed in range(3):
            g = generate_gesture(1, speed, derive_rng(30, seed),
                                 noise_std=0.0)
            assert peak_count(preprocess(g)) == 1


def test_double_tap_has_two_interior_peaks():
    for seed in range(3):
        g = generate_gesture(2, "regular", derive_rng(31, seed),
                             noise_std=0.0)
        assert peak_count(preprocess(g)) == 2


def test_right_swipe_moves_centroid_right():
    for seed in range(4):
        g = generate_gesture(5, "regular", derive_rng(32, seed),
                             noise_std=0.0)
        tx, _, _ = centroid_trajectory(preprocess(g))
        assert np.all(np.diff(tx) > 0)
        g = generate_gesture(6, "regular", derive_rng(32, seed),
                             noise_std=0.0)
        tx, _, _ = centroid_trajectory(preprocess(g))
        assert np.all(np.diff(tx) < 0)


def test_vertical_swipes_move_centroid_vertically():
    for seed in range(4):
        g = generate_gesture(3, "regular", derive_rng(33, seed),
                             noise_std=0.0)
        _, ty, _ = centroid_trajectory(preprocess(g))
        assert ty[-1] - ty[0] > 2.0
        g = generate_gesture(4, "regular", derive_rng(33, seed),
                             noise_std=0.0)
        _, ty, _ = centroid_trajectory(preprocess(g))
        assert ty[0] - ty[-1] > 2.0


def test_circle_directions_have_opposite_signed_areas():
    for seed in range(4):
        cw = generate_gesture(7, "regular", derive_rng(34, seed),
                              noise_std=0.0)
        ccw = generate_gesture(8, "regular", derive_rng(34, seed),
                               noise_std=0.0)
        a_cw = shoelace(*centroid_trajectory(cw)[:2])
        a_ccw = shoelace(*centroid_trajectory(ccw)[:2])
        assert a_cw * a_ccw < 0
        assert abs(a_cw) > 1.0 and abs(a_ccw) > 1.0


def test_two_finger_swipe_has_wider_contact():
    one = generate_gesture(4, "regular", derive_rng(35, 0), noise_std=0.0)
    two = generate_gesture(9, "regular", derive_rng(35, 0), noise_std=0.0)
    area_one = extract_features(preprocess(one))[23]
    area_two = extract_features(preprocess(two))[23]
    assert area_two > area_one


def test_speed_bands_control_frame_count():
    for speed, (lo, hi) in SPEED_BANDS.items():
        for seed in range(5):
            g = generate_gesture(1, speed, derive_rng(36, seed))
            assert lo <= len(g) <= hi


def test_generated_pressures_stay_in_unit_range():
    g = generate_gesture(9, "fast", derive_rng(37, 0), noise_std=0.3)
    assert g.frames.min() >= 0.0 and g.frames.max() <= 1.0


def test_generate_gesture_validation():
    rng = derive_rng(38, 0)
    with pytest.raises(ValueError):
        generate_gesture(0, "regular", rng)
    with pytest.raises(ValueError):
        generate_gesture(3, "turbo", rng)


# -- dataset assembly ------------------------------------------------------------


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(label_set=7)
    with pytest.raises(ValueError):
        GenSpec(samples_per_label=0)
    with pytest.raises(ValueError):
        GenSpec(speed_mix=(0.5, 0.5))
    with pytest.raises(ValueError):
        GenSpec(speed_mix=(0.6, 0.3, 0.3))
    with pytest.raises(ValueError):
        GenSpec(noise_std=-0.01)
    # NaN passes every comparison, so each non-finite value needs its check
    for mix in ((np.nan, 0.5, 0.5), (0.5, 0.5, np.nan), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError, match="speed_mix"):
            GenSpec(speed_mix=mix)
    for noise in (np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_std"):
            GenSpec(noise_std=noise)


def test_dataset_counts_and_manifest():
    spec = GenSpec(samples_per_label=4, label_set=10, seed=2)
    gestures, manifest = generate_dataset(spec)
    assert len(gestures) == 40
    labels = [g.label for g in gestures]
    assert {k: labels.count(k) for k in range(1, 11)} == \
        {k: 4 for k in range(1, 11)}
    assert manifest["total"] == 40
    assert manifest["counts_per_label"] == {str(k): 4 for k in range(1, 11)}
    assert manifest["spec"]["samples_per_label"] == 4
    assert manifest["seed"] == 2
    # largest-remainder allocation of 4 samples over thirds: slow gets the
    # leftover
    ones = [g.speed for g in gestures if g.label == 1]
    assert sorted(ones) == ["fast", "regular", "slow", "slow"]


def test_dataset_regeneration_is_bit_identical():
    spec = GenSpec(samples_per_label=3, label_set=10, seed=6)
    first, manifest_a = generate_dataset(spec)
    second, manifest_b = generate_dataset(spec)
    assert manifest_a == manifest_b
    for a, b in zip(first, second):
        assert a.label == b.label and a.speed == b.speed
        assert np.array_equal(a.frames, b.frames)


def test_five_label_set_mixes_both_source_templates():
    spec = GenSpec(samples_per_label=6, label_set=5, noise_std=0.0, seed=3)
    gestures, manifest = generate_dataset(spec)
    assert sorted(set(g.label for g in gestures)) == [1, 2, 3, 4, 5]
    assert manifest["counts_per_label"] == {str(k): 6 for k in range(1, 6)}
    # the horizontal-swipe class draws from both directions
    swipes = [g for g in gestures if g.label == 3]
    going_right = 0
    for g in swipes:
        tx, _, _ = centroid_trajectory(preprocess(g))
        going_right += int(tx[-1] > tx[0])
    assert going_right == 3


def test_default_noise_level():
    assert DEFAULT_NOISE_STD == 0.02
    g = generate_gesture(1, "fast", derive_rng(39, 6))
    quiet = generate_gesture(1, "fast", derive_rng(39, 6), noise_std=0.0)
    assert not np.array_equal(g.frames, quiet.frames)
