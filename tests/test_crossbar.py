"""Tile-level tests: MAC reads, pulsed updates, programming, weight maps."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtact import crossbar
from memtact.crossbar import (
    ESCAPE_AFTER_FLIPS,
    AnalogTile,
    UpdateStats,
    weight_map_affine,
    write_program_report_csv,
)
from memtact.data import derive_rng
from memtact.device import (
    DeviceParams,
    PulseScheme,
    default_distribution,
    gammas_from_stats,
    simulate_trace,
)


SYM = DeviceParams(gamma_up=0.1, gamma_down=0.1, sigma_c2c=0.0)
NOISY = DeviceParams(gamma_up=0.1, gamma_down=0.1, sigma_c2c=0.05)


def random_tile(rows, cols, rng, sigma=0.05):
    tile = AnalogTile.from_distribution(
        rows, cols, default_distribution(),
        derive_rng(int(rng.integers(1 << 30)), 0), sigma_c2c=sigma)
    tile.set_weights(rng.uniform(-0.8, 0.8, size=(rows, cols)))
    return tile


# -- construction -----------------------------------------------------------


def test_constructor_copies_caller_gamma_grids():
    rng = derive_rng(15, 0)
    gu, gd = (rng.uniform(0.02, 0.2, (2, 3)) for _ in range(2))
    tiles = [AnalogTile(gu, gd, -0.5, 2.0, 0.1),
             AnalogTile(gu.copy(), gd.copy(), -0.5, 2.0, 0.1)]
    gu[:] = 0.9  # the caller changes its arrays after building the tile
    gd[:] = 0.9
    up = rng.random((2, 3)) < 0.5
    streams = [derive_rng(15, 1) for _ in range(2)]
    for tile, stream in zip(tiles, streams):
        for _ in range(5):
            tile.apply_pulses(up, ~up, stream)
    assert np.array_equal(tiles[0].read_weights(), tiles[1].read_weights())
    assert np.array_equal(tiles[0].symmetry_point(),
                          tiles[1].symmetry_point())


@pytest.mark.parametrize("name", ["b_min", "b_max", "sigma_c2c"])
def test_constructor_rejects_per_device_bound_or_spread(name):
    grid = np.full((2, 3), 0.1)
    values = dict(b_min=-1.0, b_max=1.0, sigma_c2c=0.05)
    values[name] = np.full((2, 3), values[name])
    with pytest.raises(ValueError) as exc:
        AnalogTile(grid, grid, **values)
    assert str(exc.value) == ("b_min, b_max and sigma_c2c are one value per "
                              "tile, not per-device arrays")


@pytest.mark.parametrize("b_min, b_max, sigma", [
    (0.0, 1.0, 0.05), (-1.0, -0.5, 0.05), (-np.inf, 1.0, 0.05),
    (-1.0, 1.0, -0.1), (-1.0, 1.0, np.nan)],
    ids=["zero_b_min", "negative_b_max", "infinite_b_min",
         "negative_sigma", "nan_sigma"])
def test_constructor_rejects_bad_bounds_or_spread(b_min, b_max, sigma):
    grid = np.full((2, 3), 0.1)
    with pytest.raises(ValueError):
        AnalogTile(grid, grid, b_min, b_max, sigma)


# -- reads ------------------------------------------------------------------


def test_identity_tile_forward_returns_input():
    tile = AnalogTile.uniform(5, 5, SYM)
    tile.set_weights(np.eye(5))
    x = np.array([0.3, -0.2, 0.9, 0.0, -0.5])
    assert np.array_equal(tile.forward_mac(x), x)


def test_zero_input_zero_output():
    rng = derive_rng(0, 0)
    tile = random_tile(6, 3, rng)
    assert np.array_equal(tile.forward_mac(np.zeros(6)), np.zeros(3))
    assert np.array_equal(tile.backward_mac(np.zeros(3)), np.zeros(6))


def test_macs_match_dense_oracle_exactly():
    rng = derive_rng(1, 0)
    for _ in range(10):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        tile = random_tile(rows, cols, rng)
        w = tile.read_weights()
        x = rng.standard_normal(rows)
        d = rng.standard_normal(cols)
        assert np.array_equal(tile.forward_mac(x), x @ w)
        assert np.array_equal(tile.backward_mac(d), w @ d)


def test_forward_backward_adjoint():
    rng = derive_rng(2, 0)
    for _ in range(10):
        tile = random_tile(7, 4, rng)
        x = rng.standard_normal(7)
        d = rng.standard_normal(4)
        lhs = float(np.dot(tile.forward_mac(x), d))
        rhs = float(np.dot(x, tile.backward_mac(d)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_mac_shape_validation():
    tile = AnalogTile.uniform(3, 2, SYM)
    assert tile.forward_mac(np.zeros((4, 3))).shape == (4, 2)
    for x in (np.zeros(2), np.zeros((4, 2)), np.zeros((1, 4, 3)), 0.0):
        with pytest.raises(ValueError):
            tile.forward_mac(x)
    with pytest.raises(ValueError):
        tile.backward_mac(np.zeros(3))


def test_fresh_tile_reads_zero_and_reads_are_idempotent():
    tile = AnalogTile.uniform(4, 4, NOISY)
    assert np.array_equal(tile.read_weights(), np.zeros((4, 4)))
    x = np.ones(4)
    first = tile.forward_mac(x)
    for _ in range(5):
        assert np.array_equal(tile.forward_mac(x), first)
    assert np.array_equal(tile.read_weights(), np.zeros((4, 4)))


def test_set_weights_clips_to_bounds():
    tile = AnalogTile.uniform(2, 2, SYM)
    tile.set_weights(np.array([[2.0, -2.0], [0.5, 0.0]]))
    assert np.array_equal(tile.read_weights(),
                          np.array([[1.0, -1.0], [0.5, 0.0]]))


def test_midpoint_step_and_symmetry_point():
    params = DeviceParams(gamma_up=0.15, gamma_down=0.05, sigma_c2c=0.0)
    tile = AnalogTile.uniform(2, 3, params)
    assert np.allclose(tile.midpoint_step(), 0.1)
    assert np.allclose(tile.symmetry_point(), 0.5)
    # computed once per tile, read-only, equal to the closed forms
    rng = derive_rng(5, 0)
    noisy = random_tile(4, 7, rng)
    for got, closed in ((noisy.midpoint_step(),
                         reference_midpoint_step(noisy)),
                        (noisy.symmetry_point(),
                         reference_symmetry_point(noisy))):
        assert np.array_equal(got, closed)
        with pytest.raises(ValueError):
            got[0, 0] = 0.0
        assert np.array_equal(got, closed)
    assert noisy.midpoint_step() is noisy.midpoint_step()
    assert noisy.symmetry_point() is noisy.symmetry_point()
    # at the symmetry point one up and one down step cancel to first order
    tile.set_weights(tile.symmetry_point())
    full = np.ones((2, 3), dtype=bool)
    none = np.zeros((2, 3), dtype=bool)
    stream = derive_rng(0, 0)
    for _ in range(300):
        tile.apply_pulses(full, none, stream)
        tile.apply_pulses(none, full, stream)
    assert np.allclose(tile.read_weights(), 0.5, atol=0.02)


# -- pulsed updates ---------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gu=st.floats(1e-4, 0.9), gd=st.floats(1e-4, 0.9),
       b_lo=st.floats(-2.0, -0.05), b_hi=st.floats(0.05, 2.0),
       sigma=st.floats(0.0, 0.5), start=st.floats(0.0, 1.0),
       layout=st.tuples(st.integers(0, 2), st.integers(0, 6),
                        st.integers(0, 6), st.integers(0, 9)))
def test_tile_pulse_matches_scalar_device_model(gu, gd, b_lo, b_hi, sigma,
                                                start, layout):
    """A 1x1 tile pulsed through a scheme's polarities is the scheme's
    trace, bit for bit against simulate_trace."""
    scheme = PulseScheme(*layout)
    w0 = min(max(b_lo + start * (b_hi - b_lo), b_lo), b_hi)
    one, none = np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)
    params = DeviceParams(gamma_up=gu, gamma_down=gd, b_min=b_lo, b_max=b_hi,
                          sigma_c2c=sigma)
    tile = AnalogTile.uniform(1, 1, params)
    tile.set_weights(np.array([[w0]]))
    rng = derive_rng(3, 1)
    out = [w0]
    for up in scheme.polarity_sequence() > 0:
        tile.apply_pulses(one if up else none, none if up else one, rng)
        out.append(tile.read_weights()[0, 0])
    trace = simulate_trace(params, scheme, w0, derive_rng(3, 1))
    assert np.array_equal(np.array(out), trace.samples)


def test_lr_zero_changes_nothing_but_tracks_scales():
    tile = AnalogTile.uniform(3, 3, NOISY)
    tile.set_weights(np.full((3, 3), 0.2))
    before = tile.read_weights()
    stats = tile.stochastic_update(np.array([4.0, -1.0, 0.5]),
                                   np.array([0.25, 2.0, -0.5]), 0.0,
                                   derive_rng(0, 0))
    assert np.array_equal(tile.read_weights(), before)
    assert stats.pulses_up == 0 and stats.pulses_down == 0
    # the running maxima must remember inputs seen during the dead call
    assert stats.scale_x == 4.0
    assert stats.scale_d == 2.0
    stats = tile.stochastic_update(np.ones(3), np.ones(3), 0.0,
                                   derive_rng(0, 0))
    assert stats.scale_x == 4.0 and stats.scale_d == 2.0


def test_update_touches_only_coincident_device():
    rng = derive_rng(4, 0)
    tile = AnalogTile.uniform(4, 5, NOISY)
    for i in range(4):
        for j in range(5):
            tile.set_weights(np.zeros((4, 5)))
            x = np.zeros(4)
            d = np.zeros(5)
            x[i] = 1.0
            d[j] = -1.0
            tile.stochastic_update(x, d, 0.5, rng)
            w = tile.read_weights()
            w[i, j] = 0.0
            assert np.array_equal(w, np.zeros((4, 5)))


def test_update_polarity_descends_gradient():
    # deterministic firing: lr=1 makes both factor probabilities 1
    tile = AnalogTile.uniform(1, 1, SYM)
    tile.stochastic_update(np.array([1.0]), np.array([1.0]), 1.0,
                           derive_rng(0, 0))
    assert tile.read_weights()[0, 0] < 0  # positive product pushes down
    tile = AnalogTile.uniform(1, 1, SYM)
    tile.stochastic_update(np.array([1.0]), np.array([-1.0]), 1.0,
                           derive_rng(0, 0))
    assert tile.read_weights()[0, 0] > 0


def test_update_expectation_monte_carlo():
    """Mean pulsed motion tracks -lr*x*d*step/(s_x*s_d) at the midpoint."""
    lr = 0.25
    x = np.array([0.8])
    d = np.array([0.6])
    tile = AnalogTile.uniform(1, 1, NOISY)
    rng = derive_rng(5, 0)
    deltas = np.empty(4000)
    for t in range(deltas.size):
        tile.set_weights(np.zeros((1, 1)))
        tile.stochastic_update(x, d, lr, rng)
        deltas[t] = tile.read_weights()[0, 0]
    # scales latch onto |x|, |d| after the first call
    step0 = 0.1
    expected = -lr * x[0] * d[0] * step0 / (0.8 * 0.6)
    se = deltas.std(ddof=1) / np.sqrt(deltas.size)
    assert abs(deltas.mean() - expected) < 3 * se


def test_update_validation():
    tile = AnalogTile.uniform(2, 2, SYM)
    rng = derive_rng(0, 0)
    with pytest.raises(ValueError):
        tile.stochastic_update(np.zeros(3), np.zeros(2), 0.1, rng)
    with pytest.raises(ValueError):
        tile.stochastic_update(np.zeros(2), np.zeros(2), -0.1, rng)
    with pytest.raises(ValueError):
        tile.stochastic_update(np.array([np.inf, 0.0]), np.zeros(2), 0.1, rng)
    with pytest.raises(ValueError):
        tile.stochastic_update(np.array([np.nan, 1.0]), np.ones(2), 0.1, rng)
    with pytest.raises(ValueError):
        tile.stochastic_update(np.ones(2), np.array([1.0, np.nan]), 0.1, rng)
    with pytest.raises(ValueError):
        tile.stochastic_update(np.ones(2), np.array([-np.inf, 1.0]), 0.1, rng)
    # a NaN lr fails every comparison and an infinite one fires every device
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"lr must be finite and "
                           f"non-negative, got {lr}"):
            tile.stochastic_update(np.ones(2), np.ones(2), lr, rng)
    # rejected calls leave the running scales alone
    assert tile.stochastic_update(np.zeros(2), np.zeros(2), 0.1, rng) \
        == UpdateStats(0, 0, 0.0, 0.0)


def test_same_stream_reproduces_update_sequence():
    runs = []
    for _ in range(2):
        stream = derive_rng(11, 3)
        tile = AnalogTile.from_distribution(6, 4, default_distribution(),
                                            stream)
        tile.set_weights(np.full((6, 4), 0.1))
        rng = derive_rng(12, 0)
        for k in range(20):
            tile.stochastic_update(rng.standard_normal(6),
                                   rng.standard_normal(4), 0.3, stream)
        runs.append(tile.read_weights())
    assert np.array_equal(runs[0], runs[1])


# -- weight mapping ---------------------------------------------------------


@pytest.mark.parametrize("w, expected", [
    ([[-2.0, 2.0], [0.0, 1.0]], [[-0.9, 0.9], [0.0, 0.45]]),
    ([[-0.7, -0.7], [-0.7, -0.7]], [[0.0, 0.0], [0.0, 0.0]]),
    ([[-0.9, 0.9], [0.3, -0.2]], [[-0.9, 0.9], [0.3, -0.2]]),
    ([[np.nan, 0.0], [0.0, 1.0]], None),
    ([[np.inf, 0.0], [0.0, 1.0]], None),
    ([[0.0, 1.0]], None),
], ids=["symmetric_range", "constant_to_zeros", "full_band_identity",
        "nan_rejected", "inf_rejected", "shape_rejected"])
def test_weight_map_affine(w, expected):
    """Extremes land on +-0.9 of unit bounds, a constant matrix on +0.0
    everywhere, a matrix already spanning that band on itself; non-finite
    or misshapen weights raise."""
    w = np.array(w)
    tile = AnalogTile.uniform(2, 2, SYM)
    if expected is None:
        with pytest.raises(ValueError):
            weight_map_affine(w, tile)
        return
    scale, offset = weight_map_affine(w, tile)
    targets = scale * w + offset
    assert np.array_equal(targets, expected)
    assert np.array_equal(np.signbit(targets), np.signbit(expected))


# -- programming ------------------------------------------------------------


def test_program_already_at_target():
    tile = AnalogTile.uniform(3, 3, NOISY)
    targets = np.full((3, 3), 0.25)
    tile.set_weights(targets)
    report = tile.program_and_verify(targets, derive_rng(0, 0))
    assert report.converged.all()
    assert report.iterations.max() == 0
    assert np.array_equal(report.achieved, targets)


def test_program_unattainable_target_flagged():
    tile = AnalogTile.uniform(1, 2, NOISY)
    report = tile.program_and_verify(np.array([[1.5, 0.2]]), derive_rng(0, 0),
                                     max_iter=50)
    assert not report.attainable[0, 0]
    assert not report.converged[0, 0]
    assert report.iterations[0, 0] == 50
    assert report.attainable[0, 1]


def test_programmed_devices_meet_tolerance():
    rng = derive_rng(6, 0)
    stream = derive_rng(7, 0)
    tile = AnalogTile.from_distribution(20, 20, default_distribution(),
                                        stream)
    targets = rng.uniform(-0.9, 0.9, size=(20, 20))
    report = tile.program_and_verify(targets, stream, epsilon=0.02,
                                     max_iter=200)
    floor = 0.005 * (tile.b_max - tile.b_min)
    tol = np.maximum(0.02 * np.abs(targets), floor)
    err = np.abs(report.achieved - targets)
    assert (err[report.converged] <= tol[report.converged]).all()
    assert report.converged_fraction > 0.9
    assert report.mean_iterations < 200


def test_program_escape_pulse_repeats_polarity_after_third_sign_change():
    # noise-free device whose step is wider than the band around 0.1: greedy
    # pulsing from 0 goes up, down, up across the target, changing the error
    # sign three times; the fourth pulse escapes by going up again
    gu, gd = gammas_from_stats(10.0, 0.1)
    params = DeviceParams(gamma_up=gu, gamma_down=gd, sigma_c2c=0.0)
    up = lambda w: w + gu * (1.0 - w)
    down = lambda w: w + gd * (-1.0 - w)
    target = np.array([[0.1]])
    for max_iter, expected in ((3, up(down(up(0.0)))),
                               (4, up(up(down(up(0.0)))))):
        tile = AnalogTile.uniform(1, 1, params)
        report = tile.program_and_verify(target, derive_rng(0, 0),
                                         max_iter=max_iter)
        assert not report.converged[0, 0]
        assert report.iterations[0, 0] == max_iter
        assert report.achieved[0, 0] == pytest.approx(expected, abs=1e-12)


def test_program_converges_over_unseen_seeds():
    # seeds disjoint from criterion 3 (tile 30, targets 31)
    fractions = []
    for k in range(6):
        stream = derive_rng(40 + k, 0)
        tile = AnalogTile.from_distribution(100, 100, default_distribution(),
                                            stream)
        targets = derive_rng(1040 + k, 0).uniform(-0.9, 0.9, size=(100, 100))
        report = tile.program_and_verify(targets, stream, epsilon=0.02,
                                         max_iter=200)
        assert report.iterations.max() <= 200
        fractions.append(report.converged_fraction)
    print(f"converged fraction over {len(fractions)} seeds: "
          f"min {min(fractions):.4f}, max {max(fractions):.4f}")
    assert min(fractions) >= 0.99


def test_program_failure_causes_partition_unconverged_devices():
    # the noise-free 2-cycle device of the escape test: out of pulses before
    # its first escape, bouncing after it; a target past b_max is unattainable
    gu, gd = gammas_from_stats(10.0, 0.1)
    params = DeviceParams(gamma_up=gu, gamma_down=gd, sigma_c2c=0.0)
    targets = np.array([[0.1, 1.5]])
    for max_iter, cause in ((3, "out_of_pulses"), (4, "bouncing")):
        report = AnalogTile.uniform(1, 2, params).program_and_verify(
            targets, derive_rng(0, 0), max_iter=max_iter)
        masks = report.failure_causes()
        assert masks[cause][0, 0] and masks["unattainable"][0, 1]
        assert sum(m.astype(int) for m in masks.values()).tolist() == [[1, 1]]
        counts = report.aggregates()["failure_causes"]
        assert counts == {"unattainable": 1, "bouncing": 0,
                          "out_of_pulses": 0, cause: 1}

    stream = derive_rng(3, 0)
    tile = AnalogTile.from_distribution(30, 30, default_distribution(),
                                        stream)
    targets = derive_rng(3, 5).uniform(-1.2, 1.2, size=(30, 30))
    report = tile.program_and_verify(targets, stream, max_iter=40)
    total = sum(m.astype(int) for m in report.failure_causes().values())
    assert np.array_equal(total, (~report.converged).astype(int))
    assert report.escaped[report.converged].any()  # escapes also converge
    counts = report.aggregates()["failure_causes"]
    assert sum(counts.values()) == int((~report.converged).sum()) > 0
    assert min(counts.values()) > 0


def test_program_validation():
    tile = AnalogTile.uniform(2, 2, SYM)
    rng = derive_rng(0, 0)
    with pytest.raises(ValueError):
        tile.program_and_verify(np.zeros((3, 2)), rng)
    with pytest.raises(ValueError):
        tile.program_and_verify(np.zeros((2, 2)), rng, epsilon=0.0)
    # a NaN or infinite band would accept every device unpulsed
    for epsilon in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            tile.program_and_verify(np.zeros((2, 2)), rng, epsilon=epsilon)
    with pytest.raises(ValueError):
        tile.program_and_verify(np.zeros((2, 2)), rng, max_iter=0)


# -- active-set programming against the full-tile reference -----------------


def reference_apply_pulses(tile, up_mask, down_mask, rng):
    """The mask-based soft-bounds pulse as the tile once ran it."""
    for mask, gamma, bound in ((up_mask, tile._gu, tile.b_max),
                               (down_mask, tile._gd, tile.b_min)):
        n = int(np.count_nonzero(mask))
        if n:
            xi = rng.standard_normal(n)
            m = mask
            step = gamma[m] * (1.0 + tile.sigma_c2c * xi)
            tile._w[m] = np.clip(tile._w[m] + step * (bound - tile._w[m]),
                                 tile.b_min, tile.b_max)


def reference_program(tile, targets, rng, epsilon=0.02, max_iter=200):
    """Full-tile program-and-verify: every iteration masks the whole tile.

    Returns (achieved, iterations, converged, escaped).
    """
    floor = 0.005 * (tile.b_max - tile.b_min)
    tol = np.maximum(epsilon * np.abs(targets), floor)
    iterations = np.zeros(tile.shape, dtype=np.int64)
    escaped = np.zeros(tile.shape, dtype=bool)
    active = np.abs(tile._w - targets) > tol
    below = tile._w < targets
    flips = np.zeros(tile.shape, dtype=np.int8)
    for _ in range(max_iter):
        if not active.any():
            break
        escape = flips >= ESCAPE_AFTER_FLIPS
        flips[escape] = 0
        escaped |= escape & active
        up_mask = active & (below ^ escape)
        down_mask = active ^ up_mask
        reference_apply_pulses(tile, up_mask, down_mask, rng)
        iterations[active] += 1
        now_below = tile._w < targets
        flips += now_below ^ below
        below = now_below
        active &= np.abs(tile._w - targets) > tol
    return tile.read_weights(), iterations, ~active, escaped


@st.composite
def programming_cases(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.3]))
    seed = draw(st.integers(0, 2**16))
    # targets up to 1.3 in magnitude: some lie outside the unit bounds
    reach = draw(st.sampled_from([0.9, 1.3]))
    max_iter = draw(st.sampled_from([1, 2, 5, 17, 200]))
    epsilon = draw(st.sampled_from([0.005, 0.02, 0.1]))
    start = draw(st.sampled_from(["zero", "random", "at_target"]))
    return rows, cols, sigma, seed, reach, max_iter, epsilon, start


def make_programming_case(rows, cols, sigma, seed, reach, start):
    tile = AnalogTile.from_distribution(rows, cols, default_distribution(),
                                        derive_rng(seed, 0), sigma_c2c=sigma)
    rng = derive_rng(seed, 1)
    targets = rng.uniform(-reach, reach, size=(rows, cols))
    if start == "random":
        tile.set_weights(rng.uniform(-1.0, 1.0, size=(rows, cols)))
    elif start == "at_target":
        # about half the devices start inside their band
        tile.set_weights(np.where(rng.random((rows, cols)) < 0.5, targets,
                                  0.0))
    return tile, targets


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=programming_cases())
def test_active_set_program_matches_full_tile_reference(case):
    rows, cols, sigma, seed, reach, max_iter, epsilon, start = case
    tiles = [make_programming_case(rows, cols, sigma, seed, reach, start)
             for _ in range(2)]
    rngs = [derive_rng(seed, 2) for _ in range(2)]
    (ref_tile, targets), (tile, _) = tiles
    achieved, iterations, converged, escaped = reference_program(
        ref_tile, targets, rngs[0], epsilon, max_iter)
    report = tile.program_and_verify(targets, rngs[1], epsilon=epsilon,
                                     max_iter=max_iter)
    assert np.array_equal(report.achieved, achieved)
    assert np.array_equal(report.iterations, iterations)
    assert np.array_equal(report.converged, converged)
    assert np.array_equal(report.escaped, escaped)
    assert np.array_equal(tile.read_weights(), achieved)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_apply_pulses_matches_mask_reference():
    rng = derive_rng(12, 0)
    for shape in ((1, 1), (3, 7), (16, 5)):
        tiles = [random_tile(*shape, derive_rng(12, 1)) for _ in range(2)]
        streams = [derive_rng(12, 2) for _ in range(2)]
        for _ in range(20):
            fire = rng.random(shape) < 0.4
            up = fire & (rng.random(shape) < 0.5)
            tiles[0].apply_pulses(up, fire ^ up, streams[0])
            reference_apply_pulses(tiles[1], up, fire ^ up, streams[1])
        assert np.array_equal(tiles[0].read_weights(),
                              tiles[1].read_weights())
        assert (streams[0].bit_generator.state
                == streams[1].bit_generator.state)


@pytest.mark.parametrize("block, shape", [(7, (5, 9)), (None, (128, 200))],
                         ids=["block_7", "default_block"])
def test_blocked_pulse_matches_one_block_reference(monkeypatch, block, shape):
    """The kernel pulses PULSE_BLOCK devices at a time, each block drawing
    its normals in turn; across block boundaries, and for a count that is
    an exact multiple of the block, states and generator match the mask
    reference, which draws each polarity's normals in one call."""
    if block is not None:
        monkeypatch.setattr(crossbar, "PULSE_BLOCK", block)
    block = crossbar.PULSE_BLOCK
    size = shape[0] * shape[1]
    assert size >= 3 * block
    rng = derive_rng(14, 0)
    up = rng.random(size) < 0.5
    rounds = [(up, ~up)]  # both polarities span two blocks or more
    up = np.zeros(size, dtype=bool)
    up[:2 * block] = True
    down = np.zeros(size, dtype=bool)
    down[2 * block:3 * block] = True
    rounds.append((up, down))  # exactly two blocks up, one down
    assert min(np.count_nonzero(m) for m in rounds[0]) > block
    tiles = [random_tile(*shape, derive_rng(14, 1)) for _ in range(2)]
    streams = [derive_rng(14, 2) for _ in range(2)]
    for up, down in rounds * 2:
        tiles[0].apply_pulses(up.reshape(shape), down.reshape(shape),
                              streams[0])
        reference_apply_pulses(tiles[1], up.reshape(shape),
                               down.reshape(shape), streams[1])
    assert tiles[0].read_weights().tobytes() == \
        tiles[1].read_weights().tobytes()
    assert streams[0].bit_generator.state == streams[1].bit_generator.state


# -- sparse coincidence update against the mask-based reference ------------


def reference_midpoint_step(tile):
    return 0.5 * (tile._gu * tile.b_max - tile._gd * tile.b_min)


def reference_symmetry_point(tile):
    return (tile._gu * tile.b_max + tile._gd * tile.b_min) \
        / (tile._gu + tile._gd)


def reference_stochastic_update(tile, x, d, lr, rng):
    """The coincidence update as the tile once ran it: full-tile masks."""
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if x.shape != (tile.rows,) or d.shape != (tile.cols,):
        raise ValueError("x and d must match the tile dimensions")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(d))):
        raise ValueError("update vectors must be finite")
    if lr < 0:
        raise ValueError("lr must be non-negative")
    tile._scale_x = max(tile._scale_x, float(np.abs(x).max(initial=0.0)))
    tile._scale_d = max(tile._scale_d, float(np.abs(d).max(initial=0.0)))
    if lr == 0.0 or tile._scale_x == 0.0 or tile._scale_d == 0.0:
        return UpdateStats(0, 0, tile._scale_x, tile._scale_d)
    root = np.sqrt(lr)
    p = np.minimum(1.0, root * np.abs(x) / tile._scale_x)
    q = np.minimum(1.0, root * np.abs(d) / tile._scale_d)
    fired = np.outer(rng.random(tile.rows) < p, rng.random(tile.cols) < q)
    grad_sign = np.outer(np.sign(x), np.sign(d))
    up_mask = fired & (grad_sign < 0)
    down_mask = fired & (grad_sign > 0)
    tile.apply_pulses(up_mask, down_mask, rng)
    return UpdateStats(int(up_mask.sum()), int(down_mask.sum()),
                       tile._scale_x, tile._scale_d)


def update_vector(kind, n, rng):
    v = rng.standard_normal(n)
    if kind == "sparse":  # zeros, -0.0 among them, between mixed signs
        return v * (rng.random(n) < 0.5)
    if kind == "zero":
        return np.zeros(n)
    if kind == "positive":
        return np.abs(v)
    if kind == "tiny":  # far below the running scale: rare rows fire
        return 1e-3 * v
    return v


@st.composite
def update_cases(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    sigma = draw(st.sampled_from([0.0, 0.05, 0.3]))
    seed = draw(st.integers(0, 2**16))
    kinds = st.sampled_from(["mixed", "sparse", "zero", "positive", "tiny"])
    # lr 0 moves nothing; lr >= 1 saturates the firing probabilities
    lrs = st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0, 4.0])
    calls = draw(st.lists(st.tuples(kinds, kinds, lrs), min_size=1,
                          max_size=10))
    return rows, cols, sigma, seed, calls


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=update_cases())
def test_sparse_update_matches_mask_reference(case):
    rows, cols, sigma, seed, calls = case
    tiles = [random_tile(rows, cols, derive_rng(seed, 0), sigma)
             for _ in range(2)]
    rngs = [derive_rng(seed, 2) for _ in range(2)]
    vectors = derive_rng(seed, 1)
    for kind_x, kind_d, lr in calls:
        x = update_vector(kind_x, rows, vectors)
        d = update_vector(kind_d, cols, vectors)
        want = reference_stochastic_update(tiles[0], x, d, lr, rngs[0])
        got = tiles[1].stochastic_update(x, d, lr, rngs[1])
        assert got == want
        assert type(got.pulses_up) is int and type(got.pulses_down) is int
        assert np.array_equal(tiles[1].read_weights(),
                              tiles[0].read_weights())
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_program_on_fortran_ordered_inputs_matches_c_order():
    # the flat-index kernel needs C-ordered state; transposed inputs must not
    # detach the state from the grid it indexes
    rng = derive_rng(13, 0)
    gu, gd = (np.asfortranarray(rng.uniform(0.02, 0.2, (6, 4)))
              for _ in range(2))
    tiles = [AnalogTile(gu, gd, -1.0, 1.0, 0.05),
             AnalogTile(np.ascontiguousarray(gu), np.ascontiguousarray(gd),
                        -1.0, 1.0, 0.05)]
    start = rng.uniform(-0.5, 0.5, (4, 6)).T
    targets = rng.uniform(-0.8, 0.8, (6, 4))
    reports = []
    for tile, w in zip(tiles, (start, np.ascontiguousarray(start))):
        tile.set_weights(w)
        reports.append(tile.program_and_verify(np.asfortranarray(targets),
                                               derive_rng(4, 0)))
        assert np.array_equal(tile.read_weights(), reports[-1].achieved)
    assert reports[0].mean_iterations > 0
    assert np.array_equal(reports[0].achieved, reports[1].achieved)
    assert np.array_equal(reports[0].iterations, reports[1].iterations)


# -- state bounds -----------------------------------------------------------


@st.composite
def bounded_write_cases(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    params = DeviceParams(
        gamma_up=draw(st.floats(1e-3, 0.9)),
        gamma_down=draw(st.floats(1e-3, 0.9)),
        b_min=draw(st.floats(-3.0, -0.05)), b_max=draw(st.floats(0.05, 3.0)),
        sigma_c2c=draw(st.floats(0.0, 0.5)))
    calls = draw(st.lists(st.sampled_from(["update", "pulses", "program"]),
                          min_size=1, max_size=8))
    return rows, cols, params, calls, draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=bounded_write_cases())
def test_states_stay_within_tile_bounds(case):
    """Every write leaves every state in [b_min, b_max], also where a large
    step or a noisy pulse would carry a device past its bound."""
    rows, cols, params, calls, seed = case
    tile = AnalogTile.uniform(rows, cols, params)
    rng, inputs = derive_rng(seed, 0), derive_rng(seed, 1)
    for call in calls:
        if call == "update":
            tile.stochastic_update(inputs.standard_normal(rows),
                                   inputs.standard_normal(cols),
                                   float(inputs.choice([0.1, 1.0, 4.0])), rng)
        elif call == "pulses":
            for _ in range(5):
                up = inputs.random((rows, cols)) < 0.5
                tile.apply_pulses(up, ~up, rng)
        else:  # targets out to 1.5 times the bounds: some are unattainable
            targets = inputs.uniform(1.5 * params.b_min, 1.5 * params.b_max,
                                     (rows, cols))
            tile.program_and_verify(targets, rng, max_iter=20)
        w = tile.read_weights()
        assert (w >= params.b_min).all() and (w <= params.b_max).all()


# -- serialization ----------------------------------------------------------


def test_program_report_csv_roundtrip(tmp_path):
    stream = derive_rng(9, 0)
    tile = AnalogTile.from_distribution(3, 2, default_distribution(), stream)
    targets = derive_rng(9, 0).uniform(-0.8, 0.8, size=(3, 2))
    report = tile.program_and_verify(targets, stream)
    path = tmp_path / "report.csv"
    write_program_report_csv([report], path, header_lines=["run=unit-test"])
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["layer", "row", "col", "target", "achieved",
                       "iterations", "converged"]
    assert len(rows) == 1 + 6
    for r in rows[1:]:
        assert r[0] == "0"
        i, j = int(r[1]), int(r[2])
        assert float(r[3]) == report.targets[i, j]
        assert float(r[4]) == report.achieved[i, j]
        assert int(r[5]) == report.iterations[i, j]
        assert int(r[6]) == report.converged[i, j]
