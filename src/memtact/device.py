"""Soft-bounds synaptic device model.

A device holds one analog weight w confined to [b_min, b_max]. Identical
voltage pulses move it by state-dependent increments that shrink toward the
bounds:

    up:   w <- w + gamma_up   * (b_max - w) * (1 + sigma_c2c * xi)
    down: w <- w - gamma_down * (w - b_min) * (1 + sigma_c2c * xi)

with xi a fresh standard normal per pulse. The module covers single-pulse
dynamics, pulse-train simulation, parameter fitting from measured traces, and
device-to-device population sampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import json_array, json_float, json_object, named, read_csv, \
    read_json, write_csv

DEFAULT_B_MIN = -1.0
DEFAULT_B_MAX = 1.0
DEFAULT_SIGMA_C2C = 0.05

# Population defaults used when no measured traces are available: state count
# centered on 22 with spread 5, mild positive update asymmetry.
DEFAULT_N_STATES_MEAN = 22.0
DEFAULT_N_STATES_STD = 5.0
DEFAULT_ASYMMETRY_MEAN = 0.1
DEFAULT_ASYMMETRY_STD = 0.05


@dataclass(frozen=True)
class DeviceParams:
    """Soft-bounds parameters of one device, in normalized conductance units.

    gamma_up / gamma_down are the fractional step sizes toward b_max / b_min.
    sigma_c2c is the relative cycle-to-cycle spread of every pulse.
    """

    gamma_up: float
    gamma_down: float
    b_min: float = DEFAULT_B_MIN
    b_max: float = DEFAULT_B_MAX
    sigma_c2c: float = DEFAULT_SIGMA_C2C

    def __post_init__(self):
        # every comparison with NaN is false, so the checks below pass it
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (self.b_min < 0.0 < self.b_max):
            raise ValueError("bounds must satisfy b_min < 0 < b_max")
        if self.gamma_up <= 0.0 or self.gamma_down <= 0.0:
            raise ValueError("step coefficients must be positive")
        if self.sigma_c2c < 0.0:
            raise ValueError("sigma_c2c must be non-negative")
        # steps that underflow to 0, or bounds or steps whose range or sum
        # overflows, leave n_states undefined
        if sum(midpoint_step_sizes(self)) == 0.0:
            raise ValueError("midpoint steps underflow to zero")
        if not math.isfinite(n_states(self)):
            raise ValueError("n_states is not finite")
        if n_states(self) < 2.0:
            raise ValueError("device resolves fewer than 2 states")


def midpoint_step_sizes(params: DeviceParams) -> tuple[float, float]:
    """Noise-free (up, down) step magnitudes evaluated at w = 0."""
    return params.gamma_up * params.b_max, -params.gamma_down * params.b_min


def n_states(params: DeviceParams) -> float:
    """Effective number of resolvable states: range over mean midpoint step."""
    du, dd = midpoint_step_sizes(params)
    return (params.b_max - params.b_min) / (0.5 * (du + dd))


def asymmetry(params: DeviceParams) -> float:
    """Normalized up/down imbalance of the midpoint steps, in (-1, 1)."""
    du, dd = midpoint_step_sizes(params)
    return (du - dd) / (du + dd)


def pulse(w, gamma, sigma, xi, bound, b_min, b_max):
    """One soft-bounds pulse toward `bound`, on floats or elementwise.

    gamma and bound are those of the pulse's polarity, xi its standard
    normal draw. np.minimum of np.maximum is np.clip without its wrappers.
    """
    return np.minimum(np.maximum(w + gamma * (1.0 + sigma * xi) * (bound - w),
                                 b_min), b_max)


@dataclass(frozen=True)
class PulseScheme:
    """Pulse-train layout used for characterization traces.

    Each batch applies up_per_batch up pulses, then down_per_batch down
    pulses, then alternating_per_batch pulses of alternating polarity
    starting with up.
    """

    batches: int = 10
    up_per_batch: int = 200
    down_per_batch: int = 200
    alternating_per_batch: int = 1000

    def __post_init__(self):
        for name in ("batches", "up_per_batch", "down_per_batch",
                     "alternating_per_batch"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def total_pulses(self) -> int:
        per_batch = (self.up_per_batch + self.down_per_batch
                     + self.alternating_per_batch)
        return self.batches * per_batch

    def polarity_sequence(self) -> np.ndarray:
        """+1 for up, -1 for down, one entry per pulse."""
        batch = np.concatenate([
            np.ones(self.up_per_batch, dtype=np.int8),
            -np.ones(self.down_per_batch, dtype=np.int8),
            np.where(np.arange(self.alternating_per_batch) % 2 == 0, 1, -1
                     ).astype(np.int8),
        ])
        return np.tile(batch, self.batches)


@dataclass(frozen=True)
class Trace:
    """Conductance samples of one device, one sample per pulse plus the start."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("trace needs at least the initial sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def simulate_trace(params: DeviceParams, scheme: PulseScheme, w0: float,
                   rng: np.random.Generator) -> Trace:
    """Drive a device through the scheme's pulse train, recording every state."""
    if not params.b_min <= w0 <= params.b_max:
        raise ValueError("initial state w0 lies outside the device bounds")
    up = scheme.polarity_sequence() > 0
    gamma = np.where(up, params.gamma_up, params.gamma_down).tolist()
    bound = np.where(up, params.b_max, params.b_min).tolist()
    xi = rng.standard_normal(up.size).tolist()
    b_lo, b_hi, sig = params.b_min, params.b_max, params.sigma_c2c
    out = np.empty(up.size + 1)
    out[0] = w = w0
    for i in range(up.size):
        out[i + 1] = w = pulse(w, gamma[i], sig, xi[i], bound[i], b_lo, b_hi)
    return Trace(samples=out)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a trace fit: the mean absolute one-step residual over the
    pulses sigma_c2c is measured on, and the model evaluations, always 1.
    Both stay because fit-device logs the residual and the benchmark's
    tracer counts evaluations."""

    mad: float
    evaluations: int


def fit_softbounds(trace: Trace, scheme: PulseScheme
                   ) -> tuple[DeviceParams, FitReport]:
    """Recover soft-bounds parameters from a measured trace, in closed form.

    A pulse is affine in the state, w' = w + gamma (b - w). So per polarity
    the line of each step d against the sample x it started from, the
    step-against-conductance line of Kim et al. 2019, has slope -gamma and
    crosses zero at b. Read noise on x would also sit, negated, in d and
    steepen a least-squares line, so the line is fitted with the sample z
    before x as its instrument (Durbin 1954): gamma = -cov(z, d) / cov(z, x)
    and b = mean(x) + mean(d) / gamma. The first pulse is its own
    instrument. gamma is clipped into [2e-5, 0.99], and the bounds are
    widened to hold the first sample and +-2e-9.

    sigma_c2c is sqrt(sum r^2 / sum (gamma (b - w))^2), with r each pulse's
    residual against the fitted model, over the pulses whose result lies
    strictly inside the fitted bounds: the spread left around the mean
    response (Gong et al. 2018).
    """
    samples = np.asarray(trace.samples, dtype=np.float64)
    expected = scheme.total_pulses() + 1
    if samples.size != expected:
        raise ValueError(
            f"trace length {samples.size} does not match scheme ({expected})")
    lo, hi = float(samples.min()), float(samples.max())
    if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
        raise ValueError("trace has no dynamic range, nothing to fit")
    w0 = float(samples[0])
    w, step = samples[:-1], np.diff(samples)
    before = np.concatenate((samples[:1], samples[:-2]))
    up = scheme.polarity_sequence() > 0
    line = []
    for sel in (up, ~up):
        x, d, z = w[sel], step[sel], before[sel]
        dz = z - z.mean()
        cov = float(dz @ (x - x.mean())) if x.size >= 2 else 0.0
        if cov == 0.0:
            raise ValueError("a fit needs at least 2 pulses of each polarity, "
                             "from distinct states")
        g = -float(dz @ d) / cov
        if not 1e-5 < g < 0.999:
            g = min(max(g, 2e-5), 0.99)
        line += [g, float(x.mean() + d.mean() / g)]
    gu, b_hi, gd, b_lo = line
    b_lo, b_hi = min(b_lo, w0, -2e-9), max(b_hi, w0, 2e-9)
    drive = np.where(up, gu, gd) * (np.where(up, b_hi, b_lo) - w)
    inside = (samples[1:] > b_lo) & (samples[1:] < b_hi)
    r, drive = step[inside] - drive[inside], drive[inside]
    den = float(drive @ drive)
    params = DeviceParams(gamma_up=gu, gamma_down=gd, b_min=b_lo, b_max=b_hi,
                          sigma_c2c=math.sqrt(float(r @ r) / den)
                          if den > 0.0 else 0.0)
    mad = float(np.abs(r).mean()) if r.size else 0.0
    return params, FitReport(mad=mad, evaluations=1)


@dataclass(frozen=True)
class DeviceDistribution:
    """Gaussian device-to-device distribution over (n_states, asymmetry)."""

    mean: np.ndarray
    covariance: np.ndarray
    clamp_n_min: float = 2.0
    clamp_asym: float = 1.0 - 1e-6

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.shape != (2,):
            raise ValueError("mean must be (n_states, asymmetry)")
        if cov.shape != (2, 2):
            raise ValueError("covariance must be 2x2")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        scale = max(float(np.abs(cov).max()), 1e-30)
        if np.linalg.eigvalsh(cov).min() < -1e-9 * scale:
            raise ValueError("covariance must be positive semi-definite")
        if not 0.0 < self.clamp_asym < 1.0:
            raise ValueError("clamp_asym must lie in (0, 1)")
        if not 2.0 <= self.clamp_n_min < math.inf:
            raise ValueError("clamp_n_min must be finite and at least 2")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def default_distribution() -> DeviceDistribution:
    """Fallback population used when no measured devices are supplied."""
    return DeviceDistribution(
        mean=np.array([DEFAULT_N_STATES_MEAN, DEFAULT_ASYMMETRY_MEAN]),
        covariance=np.diag([DEFAULT_N_STATES_STD ** 2,
                            DEFAULT_ASYMMETRY_STD ** 2]))


def build_distribution(population) -> DeviceDistribution:
    """Estimate the (n_states, asymmetry) Gaussian from fitted devices."""
    population = list(population)
    if len(population) < 2:
        raise ValueError("need at least 2 devices to estimate a distribution")
    pts = np.array([[n_states(p), asymmetry(p)] for p in population])
    cov = np.cov(pts, rowvar=False, ddof=1)
    return DeviceDistribution(mean=pts.mean(axis=0), covariance=cov)


def gammas_from_stats(n, a, b_min=DEFAULT_B_MIN, b_max=DEFAULT_B_MAX):
    """Invert (n_states, asymmetry) to (gamma_up, gamma_down).

    Works on scalars or arrays. The mean midpoint step is (b_max - b_min)/n,
    split between polarities by the asymmetry.
    """
    m = (b_max - b_min) / n
    return m * (1.0 + a) / b_max, m * (1.0 - a) / (-b_min)


def sample_device(dist: DeviceDistribution, rng: np.random.Generator, *,
                  sigma_c2c: float = DEFAULT_SIGMA_C2C) -> DeviceParams:
    """Draw one device from the population, with fixed bounds at -1 and +1."""
    gu, gd = gammas_from_stats(*sample_stats_grid(dist, 1, rng))
    return DeviceParams(gamma_up=float(gu[0]), gamma_down=float(gd[0]),
                        b_min=DEFAULT_B_MIN, b_max=DEFAULT_B_MAX,
                        sigma_c2c=sigma_c2c)


def sample_stats_grid(dist: DeviceDistribution, count: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw count (n_states, asymmetry) pairs, clamped to admissible ranges."""
    draws = rng.multivariate_normal(dist.mean, dist.covariance, size=count,
                                    check_valid="ignore")
    n = np.maximum(draws[:, 0], dist.clamp_n_min)
    a = np.clip(draws[:, 1], -dist.clamp_asym, dist.clamp_asym)
    return n, a


# ---------------------------------------------------------------------------
# file formats


TRACE_COLUMNS = ["pulse_index", "conductance"]


def write_trace_csv(trace: Trace, path, header_lines=()) -> None:
    samples = trace.samples.tolist()
    write_csv(path, header_lines, TRACE_COLUMNS,
              ([str(i), repr(v)] for i, v in enumerate(samples)))


def _conductance(fields) -> float:
    if len(fields) < 2:
        raise ValueError("no conductance value")
    try:
        return float(fields[1])
    except ValueError:
        raise ValueError(f"conductance {fields[1]!r} is not a number") \
            from None


def read_trace_csv(path) -> Trace:
    """Read a trace; every ValueError names the file, a bad row its line.
    Columns past the second, as imported measurements may hold, are unread."""
    values = np.fromiter(read_csv(path, "trace", TRACE_COLUMNS, _conductance,
                                  more_columns=True), np.float64)
    with named(path):
        return Trace(samples=values)


def write_device_params(params, path) -> None:
    """Write one DeviceParams record or a list of them as JSON."""
    payload = asdict(params) if isinstance(params, DeviceParams) \
        else [asdict(p) for p in params]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_device_params(path):
    """One DeviceParams record, or a list of them, from JSON."""
    payload = read_json(path)
    keys = [f.name for f in fields(DeviceParams)]

    def record(d, what):
        d = json_object(path, d, keys, what)
        values = {k: json_float(path, d[k], f"{what} {k}") for k in keys}
        with named(f"{path}: {what}"):
            return DeviceParams(**values)

    if isinstance(payload, list):
        return [record(d, f"device record {i}") for i, d in enumerate(payload)]
    return record(payload, "device record")


def write_distribution(dist: DeviceDistribution, path, extra: dict | None = None
                       ) -> None:
    payload = {
        "mean": dist.mean.tolist(),
        "covariance": dist.covariance.tolist(),
        "clamp_n_min": dist.clamp_n_min,
        "clamp_asym": dist.clamp_asym,
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_distribution(path) -> DeviceDistribution:
    d = json_object(path, read_json(path), ("mean", "covariance"),
                    "distribution")
    values = dict(
        mean=json_array(path, d["mean"], "distribution mean", (2,)),
        covariance=json_array(path, d["covariance"], "distribution covariance",
                              (2, 2)),
        clamp_n_min=json_float(path, d.get("clamp_n_min", 2.0),
                               "distribution clamp_n_min"),
        clamp_asym=json_float(path, d.get("clamp_asym", 1.0 - 1e-6),
                              "distribution clamp_asym"))
    with named(f"{path}: distribution"):
        return DeviceDistribution(**values)
