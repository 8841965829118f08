"""Device-level tests: pulse arithmetic, statistics, traces, fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtact.data import derive_rng
from memtact.device import (
    _nelder_mead,
    _noise_free_samples,
    DeviceDistribution,
    DeviceParams,
    PulseScheme,
    Trace,
    asymmetry,
    build_distribution,
    default_distribution,
    fit_softbounds,
    gammas_from_stats,
    n_states,
    pulse,
    read_device_params,
    read_distribution,
    read_trace_csv,
    sample_device,
    sample_stats_grid,
    simulate_trace,
    write_device_params,
    write_distribution,
    write_trace_csv,
)


def make_params(gu=0.1, gd=0.1, b_min=-1.0, b_max=1.0, sigma=0.0):
    return DeviceParams(gamma_up=gu, gamma_down=gd, b_min=b_min, b_max=b_max,
                        sigma_c2c=sigma)


# -- single pulses ----------------------------------------------------------


def up(params, w, xi=0.0):
    return pulse(w, params.gamma_up, params.sigma_c2c, xi, params.b_max,
                 params.b_min, params.b_max)


def down(params, w, xi=0.0):
    return pulse(w, params.gamma_down, params.sigma_c2c, xi, params.b_min,
                 params.b_min, params.b_max)


def test_up_pulse_saturates_at_upper_bound():
    assert up(make_params(gu=0.1), 1.0) == 1.0
    # a noisy step that would overshoot lands on the bound
    assert up(make_params(gu=0.5, sigma=1.0), 0.95, xi=3.0) == 1.0
    assert down(make_params(gd=0.5, sigma=1.0), -0.95, xi=3.0) == -1.0


def test_midpoint_pulse_steps_are_exact():
    assert up(make_params(gu=0.1), 0.0) == 0.1
    assert down(make_params(gd=0.05), 0.0) == -0.05


def test_noise_free_pulses_are_monotone():
    params = make_params(gu=0.07, gd=0.12)
    w = np.linspace(-0.95, 0.95, 9)
    assert np.all(up(params, w) >= w)
    assert np.all(down(params, w) <= w)


def test_noisy_pulse_expectation_is_monotone():
    # cycle-to-cycle noise can flip single steps but not the mean motion
    params = make_params(gu=0.08, gd=0.08, sigma=0.3)
    rng = derive_rng(2, 0)
    for w in (-0.7, 0.0, 0.6):
        assert np.mean(up(params, w, rng.standard_normal(4000)) - w) > 0
        assert np.mean(down(params, w, rng.standard_normal(4000)) - w) < 0


# -- device statistics ------------------------------------------------------


def test_n_states_worked_examples():
    assert n_states(make_params(gu=0.1, gd=0.1)) == 20.0
    g = 1.0 / 11.0
    assert n_states(make_params(gu=g, gd=g)) == pytest.approx(22.0, abs=1e-12)
    base = make_params(gu=0.04, gd=0.06)
    double = make_params(gu=0.08, gd=0.12)
    assert n_states(double) == pytest.approx(n_states(base) / 2, rel=1e-12)


def test_asymmetry_worked_examples():
    assert asymmetry(make_params(gu=0.1, gd=0.1)) == 0.0
    # midpoint steps 0.15 and 0.05 with unit bounds
    assert asymmetry(make_params(gu=0.15, gd=0.05)) == pytest.approx(0.5)
    assert asymmetry(make_params(gu=0.05, gd=0.15)) == pytest.approx(-0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(b_min=0.2)          # wrong sign
    with pytest.raises(ValueError):
        make_params(gu=0.0)
    with pytest.raises(ValueError):
        make_params(sigma=-0.1)
    with pytest.raises(ValueError):
        make_params(gu=1.5, gd=1.5)     # fewer than 2 resolvable states
    # every comparison with NaN is false: each non-finite field is named
    for field in ("gamma_up", "gamma_down", "b_min", "b_max", "sigma_c2c"):
        for value in (float("nan"), float("inf")):
            kwargs = {"gamma_up": 0.1, "gamma_down": 0.1, field: value}
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                DeviceParams(**kwargs)


def test_read_device_params_names_file_record_and_field(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('[{"gamma_up": 0.1, "gamma_down": 0.1, "b_min": -1.0, '
                    '"b_max": 1.0, "sigma_c2c": NaN}]')
    with pytest.raises(ValueError) as exc:
        read_device_params(path)
    assert str(exc.value) == (f"{path}: device record 0: sigma_c2c must be "
                              f"finite")


# -- traces -----------------------------------------------------------------


def test_empty_scheme_yields_initial_sample_only():
    scheme = PulseScheme(0, 0, 0, 0)
    trace = simulate_trace(make_params(), scheme, 0.25, derive_rng(0, 0))
    assert len(trace) == 1
    assert trace.samples[0] == 0.25


def test_up_ramp_matches_geometric_decay():
    params = make_params(gu=0.1)
    scheme = PulseScheme(1, 200, 0, 0)
    trace = simulate_trace(params, scheme, -0.3, derive_rng(0, 0))
    k = np.arange(201)
    expected = 1.0 - (1.0 - (-0.3)) * 0.9 ** k
    np.testing.assert_allclose(trace.samples, expected, rtol=0, atol=1e-12)
    assert abs(trace.samples[-1] - 1.0) < 1e-8


def test_default_scheme_trace_length():
    trace = simulate_trace(make_params(), PulseScheme(), 0.0, derive_rng(0, 0))
    assert len(trace) == 14001


def test_trace_matches_per_pulse_oracle():
    """Noise-free simulation equals a direct per-pulse reference loop."""
    rng = derive_rng(3, 0)
    for _ in range(10):
        gu = float(rng.uniform(0.02, 0.3))
        gd = float(rng.uniform(0.02, 0.3))
        b_lo = float(rng.uniform(-1.4, -0.6))
        b_hi = float(rng.uniform(0.6, 1.4))
        params = make_params(gu=gu, gd=gd, b_min=b_lo, b_max=b_hi)
        scheme = PulseScheme(2, 17, 23, 40)
        w0 = float(rng.uniform(b_lo, b_hi))
        trace = simulate_trace(params, scheme, w0, derive_rng(4, 0))
        w = w0
        expected = [w0]
        for pol in scheme.polarity_sequence():
            if pol > 0:
                w = w + gu * (1.0 + 0.0) * (b_hi - w)
            else:
                w = w + gd * (1.0 + 0.0) * (b_lo - w)
            w = min(max(w, b_lo), b_hi)
            expected.append(w)
        assert np.array_equal(trace.samples, np.asarray(expected))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gu=st.floats(1e-4, 0.9), gd=st.floats(1e-4, 0.9),
       b_lo=st.floats(-2.0, -0.05), b_hi=st.floats(0.05, 2.0),
       start=st.floats(0.0, 1.0),
       layout=st.tuples(st.integers(0, 3), st.integers(0, 9),
                        st.integers(0, 9), st.integers(0, 25)))
def test_closed_form_trace_into_buffer_matches_fresh_and_oracle(
        gu, gd, b_lo, b_hi, start, layout):
    """Writing into a reused buffer changes no bit; both track the loop."""
    scheme = PulseScheme(*layout)
    w0 = min(max(b_lo + start * (b_hi - b_lo), b_lo), b_hi)
    fresh = _noise_free_samples(gu, gd, b_lo, b_hi, scheme, w0)
    buf = np.full(scheme.total_pulses() + 1, np.nan)
    into = _noise_free_samples(gu, gd, b_lo, b_hi, scheme, w0, out=buf)
    assert into is buf
    assert np.array_equal(into, fresh)
    params = make_params(gu=gu, gd=gd, b_min=b_lo, b_max=b_hi)
    oracle = simulate_trace(params, scheme, w0, derive_rng(0, 0)).samples
    np.testing.assert_allclose(fresh, oracle, rtol=0, atol=1e-9)


def test_simulate_rejects_out_of_bounds_start():
    with pytest.raises(ValueError):
        simulate_trace(make_params(), PulseScheme(), 1.5, derive_rng(0, 0))


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(samples=np.array([]))
    with pytest.raises(ValueError):
        Trace(samples=np.array([0.1, np.nan]))


def test_simulation_is_deterministic():
    params = make_params(sigma=0.05)
    a = simulate_trace(params, PulseScheme(1, 50, 50, 100), 0.0,
                       derive_rng(9, 1))
    b = simulate_trace(params, PulseScheme(1, 50, 50, 100), 0.0,
                       derive_rng(9, 1))
    assert np.array_equal(a.samples, b.samples)


# -- fitting ----------------------------------------------------------------


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def fenced_bowl(x):
    """A bowl whose floor lies behind the fit's 1e30 penalty at x[0] > 1."""
    if x[0] > 1.0:
        return 1e30
    return float(np.sum((x - np.array([2.0, 1.0, -1.0, 0.5])) ** 2))


def walled(x):
    """Every vertex of the first simplex sits on the penalty, all tied."""
    if x[0] >= 1.0:
        return 1e30
    return float(np.sum(np.abs(x - 0.3)))


@pytest.mark.parametrize("fun, x0, opts", [
    (rosenbrock, [-1.2, 1.0, 0.8, 1.5],
     dict(xatol=1e-8, fatol=1e-10, maxiter=4000, maxfev=6000)),
    (fenced_bowl, [0.99, 0.0, 1.0, -1.0],
     dict(xatol=1e-8, fatol=1e-6, maxiter=4000, maxfev=6000)),
    (walled, [1.0, 0.0, 2.0, 3.0],
     dict(xatol=1e-8, fatol=1e-6, maxiter=4000, maxfev=6000)),
    (rosenbrock, [-1.2, 1.0, 0.8, 1.5],
     dict(xatol=1e-8, fatol=1e-10, maxiter=4000, maxfev=157)),
    (rosenbrock, [-1.2, 1.0, 0.8, 1.5],
     dict(xatol=1e-8, fatol=1e-10, maxiter=41, maxfev=6000)),
], ids=["smooth", "penalty", "tied_penalty", "maxfev_binds", "maxiter_binds"])
def test_nelder_mead_matches_scipy(fun, x0, opts):
    """The in-package search takes scipy's steps: same x, fun and nfev."""
    optimize = pytest.importorskip("scipy.optimize")
    want = optimize.minimize(fun, np.array(x0), method="Nelder-Mead",
                             options=opts)
    x, f, nfev = _nelder_mead(lambda x: fun(np.array(x)), np.array(x0),
                              **opts)
    assert np.array_equal(x, want.x)
    assert f == want.fun
    assert nfev == want.nfev
    if opts["maxfev"] < 6000:
        assert nfev == opts["maxfev"]
    elif opts["maxiter"] < 4000:
        assert want.nit == opts["maxiter"] and nfev < opts["maxfev"]
    else:
        assert want.success


def test_fit_recovers_known_device():
    params = make_params(gu=0.12, gd=0.07, b_min=-0.8, b_max=1.1)
    scheme = PulseScheme()
    trace = simulate_trace(params, scheme, 0.0, derive_rng(0, 0))
    fitted, report = fit_softbounds(trace, scheme)
    assert report.mad < 1e-6
    for got, want in ((fitted.gamma_up, 0.12), (fitted.gamma_down, 0.07),
                      (fitted.b_min, -0.8), (fitted.b_max, 1.1)):
        assert abs(got - want) / abs(want) < 0.01


def test_fit_tracks_saturation_plateau():
    params = make_params(gu=0.3, gd=0.25)
    scheme = PulseScheme(1, 200, 200, 0)
    trace = simulate_trace(params, scheme, 0.0, derive_rng(0, 0))
    fitted, _ = fit_softbounds(trace, scheme)
    plateau = float(trace.samples.max())
    assert abs(fitted.b_max - plateau) / plateau < 0.01


def test_fit_rejects_degenerate_traces():
    scheme = PulseScheme(1, 10, 0, 0)
    with pytest.raises(ValueError):
        fit_softbounds(Trace(samples=np.full(11, 0.4)), scheme)
    with pytest.raises(ValueError):
        fit_softbounds(Trace(samples=np.linspace(0, 1, 7)), scheme)
    # one down pulse cannot identify the lower bound
    one_down = PulseScheme(1, 10, 1, 0)
    trace = simulate_trace(make_params(), one_down, 0.0, derive_rng(0, 0))
    with pytest.raises(ValueError, match="at least 2 pulses of each"):
        fit_softbounds(trace, one_down)


def _noisy_bench_traces(seed):
    """The benchmark's characterize set-up: 8 default-population devices."""
    rng = derive_rng(seed, 0)
    scheme = PulseScheme(1, 200, 200, 1000)
    out = []
    for _ in range(8):
        params = sample_device(default_distribution(), rng)
        out.append((params, simulate_trace(params, scheme, 0.0, rng)))
    return scheme, out


def _worst_error(fit, true):
    return max(abs(getattr(fit, k) - getattr(true, k)) / abs(getattr(true, k))
               for k in ("gamma_up", "gamma_down", "b_min", "b_max"))


@pytest.mark.parametrize("seed", [201, 203, 207, 209])
def test_fit_matches_search_from_truth(seed):
    """One search from the regression start loses nothing that counts.

    The fit's residual is at most that of the true device's noise-free
    trace, and within 1e-5, relative, of the residual a search started at
    the true parameters reaches.
    """
    scheme, traces = _noisy_bench_traces(seed)
    for true, trace in traces:
        fit, report = fit_softbounds(trace, scheme)

        def mad(p):
            gu, gd, b_lo, b_hi = p
            if not (0 < gu < 1 and 0 < gd < 1 and b_lo < 0.0 < b_hi):
                return 1e30
            model = _noise_free_samples(*p, scheme, 0.0)
            return float(np.mean(np.abs(model - trace.samples)))

        truth = [true.gamma_up, true.gamma_down, true.b_min, true.b_max]
        assert report.mad <= mad(truth)
        _, ref, _ = _nelder_mead(mad, truth, xatol=1e-8, fatol=1e-6,
                                 maxiter=4000, maxfev=6000)
        assert abs(report.mad - ref) <= 1e-5 * ref


def test_fit_is_deterministic():
    params = make_params(gu=0.09, gd=0.11)
    scheme = PulseScheme(2, 60, 60, 120)
    trace = simulate_trace(params, scheme, 0.0, derive_rng(0, 0))
    f1, r1 = fit_softbounds(trace, scheme)
    f2, r2 = fit_softbounds(trace, scheme)
    assert f1 == f2
    assert r1 == r2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gu=st.floats(0.005, 0.9), gd=st.floats(0.005, 0.9),
       b_lo=st.floats(-2.0, -0.05), b_hi=st.floats(0.05, 2.0),
       start=st.floats(0.01, 0.99),
       layout=st.tuples(st.integers(1, 3), st.integers(3, 60),
                        st.integers(3, 60), st.integers(0, 60)))
def test_noise_free_fit_is_exact_at_once(gu, gd, b_lo, b_hi, start, layout):
    """On a noise-free trace the regression start is the fit: every
    parameter within 1e-9, relative, no spread, and one model evaluation."""
    scheme = PulseScheme(*layout)
    true = make_params(gu=gu, gd=gd, b_min=b_lo, b_max=b_hi)
    w0 = b_lo + start * (b_hi - b_lo)
    fit, report = fit_softbounds(
        simulate_trace(true, scheme, w0, derive_rng(0, 0)), scheme)
    assert _worst_error(fit, true) <= 1e-9
    assert fit.sigma_c2c <= 1e-9
    assert report.evaluations == 1


# -- populations ------------------------------------------------------------


def test_build_distribution_identical_pair():
    dev = make_params(gu=0.08, gd=0.1)
    dist = build_distribution([dev, dev])
    np.testing.assert_allclose(dist.mean, [n_states(dev), asymmetry(dev)],
                               atol=1e-12)
    np.testing.assert_allclose(dist.covariance, np.zeros((2, 2)), atol=1e-15)


def test_population_roundtrip_monte_carlo():
    # 20 synthetic devices spanning the documented state-count range
    ns = np.linspace(13, 33, 20)
    asym = np.linspace(-0.05, 0.25, 20)
    devices = []
    for n, a in zip(ns, asym):
        gu, gd = gammas_from_stats(n, a)
        devices.append(make_params(gu=float(gu), gd=float(gd)))
    dist = build_distribution(devices)
    n_draw, _ = sample_stats_grid(dist, 100_000, derive_rng(5, 0))
    # standard error of the sample mean over 1e5 draws
    se = float(np.sqrt(dist.covariance[0, 0] / len(n_draw)))
    assert abs(n_draw.mean() - ns.mean()) < 3 * se


def test_build_distribution_needs_two_devices():
    with pytest.raises(ValueError):
        build_distribution([make_params()])


def test_sample_device_zero_covariance_is_exact():
    dist = DeviceDistribution(mean=np.array([22.0, 0.1]),
                              covariance=np.zeros((2, 2)))
    dev = sample_device(dist, derive_rng(0, 0))
    assert n_states(dev) == pytest.approx(22.0, abs=1e-9)
    assert asymmetry(dev) == pytest.approx(0.1, abs=1e-9)


def test_sample_device_clamps_low_state_counts():
    dist = DeviceDistribution(mean=np.array([0.5, 0.0]),
                              covariance=np.zeros((2, 2)))
    dev = sample_device(dist, derive_rng(0, 0))
    assert n_states(dev) == pytest.approx(2.0, abs=1e-9)


def test_sampled_stats_invert_back_to_gammas():
    dist = default_distribution()
    rng = derive_rng(6, 0)
    for _ in range(50):
        dev = sample_device(dist, rng)
        assert n_states(dev) >= 2.0
        assert abs(asymmetry(dev)) < 1.0
        gu, gd = gammas_from_stats(n_states(dev), asymmetry(dev))
        assert gu == pytest.approx(dev.gamma_up, rel=1e-9)
        assert gd == pytest.approx(dev.gamma_down, rel=1e-9)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DeviceDistribution(mean=np.array([22.0]), covariance=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DeviceDistribution(mean=np.array([22.0, 0.0]),
                           covariance=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        DeviceDistribution(mean=np.array([22.0, 0.0]),
                           covariance=np.array([[-1.0, 0.0], [0.0, 1.0]]))


# -- file round trips -------------------------------------------------------


def test_trace_csv_roundtrip(tmp_path):
    trace = simulate_trace(make_params(sigma=0.05), PulseScheme(1, 30, 30, 0),
                           0.1, derive_rng(7, 0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.samples, trace.samples)
    commented = tmp_path / "commented.csv"
    write_trace_csv(trace, commented, header_lines=["a=1", "b"])
    assert commented.read_bytes() == b"# a=1\n# b\n" + path.read_bytes()
    assert np.array_equal(read_trace_csv(commented).samples, trace.samples)


def test_trace_csv_skips_comments_and_checks_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# a comment\npulse_index,conductance\n0,0.5\n1,0.25\n")
    back = read_trace_csv(path)
    assert np.array_equal(back.samples, [0.5, 0.25])
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0,0.5\n")
    with pytest.raises(ValueError):
        read_trace_csv(bad)


@pytest.mark.parametrize("rows, message", [
    ("0,0.5\n1\n", "line 4: no conductance value"),
    ("0,0.5\n1,abc\n", "line 4: conductance 'abc' is not a number"),
    ("0,0.5\n1,nan\n", "trace samples must be finite"),
], ids=["missing", "not_a_number", "not_finite"])
def test_trace_csv_bad_row_names_file_and_line(tmp_path, rows, message):
    path = tmp_path / "trace.csv"
    path.write_text("# a comment\npulse_index,conductance\n" + rows)
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value).startswith(f"{path}")
    assert str(exc.value).endswith(message)


def test_device_params_json_roundtrip(tmp_path):
    single = make_params(gu=0.123456789, gd=0.07, sigma=0.05)
    path = tmp_path / "one.json"
    write_device_params(single, path)
    assert read_device_params(path) == single

    many = [make_params(gu=0.1), make_params(gu=0.2, gd=0.15)]
    path = tmp_path / "many.json"
    write_device_params(many, path)
    assert read_device_params(path) == many


def test_distribution_json_roundtrip(tmp_path):
    dist = build_distribution([make_params(gu=0.08), make_params(gu=0.12),
                               make_params(gu=0.1, gd=0.09)])
    path = tmp_path / "dist.json"
    write_distribution(dist, path, extra={"note": "fitted"})
    back = read_distribution(path)
    np.testing.assert_allclose(back.mean, dist.mean, rtol=1e-15)
    np.testing.assert_allclose(back.covariance, dist.covariance, rtol=1e-15)
