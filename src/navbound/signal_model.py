"""Sampled code-spread signal model and worst-case ML delay-bias analysis.

The receiver observes z(kT) = w(kT - tau) + y(kT) + n(kT) where w is a
smoothed, amplitude- and phase-scaled replica of a known spreading code.
This module synthesizes w and its first two delay derivatives in closed
form, locates the maximum-likelihood delay, and evaluates the
magnification coefficient that converts an interference power budget
into a worst-case bound on the induced delay bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .cacode import ChipSequence, generate_ca_code
from .constants import CA_CODE_PERIOD

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DelayEstimationError(RuntimeError):
    """ML delay search failed; carries the last iterate when available."""

    def __init__(self, message, last_iterate: Optional[float] = None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DegenerateCurvatureError(ValueError):
    """Likelihood curvature is (numerically) zero; no first-order bound exists."""


@dataclass(frozen=True)
class WaveformSpec:
    """Parameters of the transmitted replica w(kT - tau).

    pulse_smoothing is the standard deviation (seconds) of the Gaussian
    kernel convolved with the rectangular chip train; it must be strictly
    positive so the first and second delay derivatives exist everywhere.
    """

    code: ChipSequence
    amplitude: float = 1.0
    phase: float = 0.0
    pulse_smoothing: float = 0.1 / 1.023e6
    sampling_period: float = CA_CODE_PERIOD / 4092
    num_samples: int = 4092

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.pulse_smoothing <= 0:
            raise ValueError(
                "pulse_smoothing must be strictly positive: with ideal "
                "rectangular chips the waveform derivative is undefined at "
                "chip edges"
            )
        if self.num_samples * self.sampling_period < self.code.period * (1 - 1e-12):
            raise ValueError("num_samples * sampling_period must cover one code period")

    @property
    def chip_duration(self) -> float:
        return self.code.chip_duration

    @property
    def code_period(self) -> float:
        return self.code.period


@dataclass(frozen=True)
class SampledSignal:
    """A finite complex sample sequence with its sampling period."""

    samples: np.ndarray
    sampling_period: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    def inner(self, other: "SampledSignal") -> complex:
        """<a, b> = sum_k a(k)* b(k); defined only for equal lengths."""
        if len(self) != len(other):
            raise ValueError("inner product requires equal-length signals")
        return complex(np.vdot(self.samples, other.samples))

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        if len(self) != len(other):
            raise ValueError("signal lengths differ")
        return SampledSignal(self.samples + other.samples, self.sampling_period)

    def __sub__(self, other: "SampledSignal") -> "SampledSignal":
        if len(self) != len(other):
            raise ValueError("signal lengths differ")
        return SampledSignal(self.samples - other.samples, self.sampling_period)

    def scaled(self, c: complex) -> "SampledSignal":
        return SampledSignal(c * self.samples, self.sampling_period)


@dataclass(frozen=True)
class NoiseConfig:
    """Circularly symmetric complex Gaussian noise, per-component std sigma."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, n: int) -> np.ndarray:
        if self.sigma == 0:
            return np.zeros(n, dtype=np.complex128)
        rng = np.random.default_rng(self.seed)
        with np.errstate(over="ignore"):  # SampledSignal rejects an overflowed sample
            return self.sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True)
class TauPerturbation:
    """Outcome of a delay-perturbation experiment."""

    tau0: float
    m_tau: float
    delta_tau_bound: float
    delta_tau_empirical: Optional[float] = None
    # (clean, perturbed) estimate: Newton passes, and the final
    # |Re<w - z, w'>| / ||w'||^2 that the estimator accepted
    iterations: Optional[tuple[int, int]] = None
    residual: Optional[tuple[float, float]] = None


def _waveforms(spec: WaveformSpec, tau: float, orders) -> tuple:
    """Complex samples of w, w' and/or w'' at kT - tau, k = 1..num_samples.

    The rectangular chip train convolved with a Gaussian of std s has the
    closed form sum_j c_j [Phi((t-jTc)/s) - Phi((t-(j+1)Tc)/s)]; only
    boundaries within a few s of t contribute, so the sum is truncated to
    a window of neighbouring chips. Its delay derivatives are analytic
    (Gaussian density terms). All requested orders share one set of
    chip-boundary arguments b = (t - J Tc)/s, J = j0-half .. j0+half+1: a
    chip's left argument is b[:, :-1] and its right argument b[:, 1:].
    Order 0 needs only Phi(b), orders 1 and 2 only the density of b.
    Returns one array per entry of `orders`, in that order.
    """
    t = np.arange(1, spec.num_samples + 1) * spec.sampling_period - tau
    chips = spec.code.chips.astype(np.float64)
    tc = spec.chip_duration
    s = spec.pulse_smoothing

    x = np.mod(t, spec.code_period)
    j0 = np.floor(x / tc).astype(np.int64)
    half = max(2, int(math.ceil(10.0 * s / tc)) + 1)

    jb = j0[:, None] + np.arange(-half, half + 2)[None, :]
    c = chips[np.mod(jb[:, :-1], len(chips))]
    b = (x[:, None] - jb * tc) / s

    m = {}
    if 0 in orders:
        cdf = ndtr(b)
        m[0] = np.sum(c * (cdf[:, :-1] - cdf[:, 1:]), axis=1)
    if 1 in orders or 2 in orders:
        pdf = np.exp(-0.5 * b * b) / _SQRT_2PI
        pu, pv = pdf[:, :-1], pdf[:, 1:]
        if 1 in orders:
            m[1] = np.sum(c * (pu - pv), axis=1) / s
        if 2 in orders:
            u, v = b[:, :-1], b[:, 1:]
            m[2] = np.sum(c * (-u * pu + v * pv), axis=1) / (s * s)
    factor = spec.amplitude * np.exp(1j * spec.phase)
    return tuple(factor * m[k] for k in orders)


def sample_waveform(spec: WaveformSpec, tau: float, derivative_order: int = 0) -> SampledSignal:
    """Evaluate w, w' or w'' at sample times kT for k = 1..num_samples.

    Derivatives are exact analytic derivatives of the Gaussian-smoothed
    chip train; the factor amplitude * exp(i phase) multiplies all orders.
    """
    if derivative_order not in (0, 1, 2):
        raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
    (samples,) = _waveforms(spec, tau, (derivative_order,))
    return SampledSignal(samples, spec.sampling_period)


def _stationarity(z: np.ndarray, spec: WaveformSpec, tau: float):
    """Return (g, dg, ||w'||^2, (w, w', w'')) of the misfit ||z - w(tau)||^2 / 2.

    g = Re<z - w, w'> is the (sigma-free, sign-flipped) delay derivative of
    the log-likelihood and vanishes at the ML delay; the curvature
    dg = ||w'||^2 + Re<w - z, w''> is positive at a proper minimum.
    """
    w, w1, w2 = _waveforms(spec, tau, (0, 1, 2))
    d = z - w
    n1sq = float(np.real(np.vdot(w1, w1)))
    g = float(np.real(np.vdot(d, w1)))
    dg = n1sq - float(np.real(np.vdot(d, w2)))
    return g, dg, n1sq, (w, w1, w2)


def _coarse_grid(z: np.ndarray, spec: WaveformSpec, lo: float, hi: float) -> float:
    """Best grid point of -||z - w(tau)||^2 at (at most) quarter-chip spacing.

    When the sample grid spans an integer number of code periods, shifting
    tau by one sampling period circularly shifts the replica, so all
    sample-spaced correlations come from a single FFT; that grid is used
    when it is at least as fine as a quarter chip. Otherwise each
    quarter-chip grid point is synthesized directly, and the search is
    repeated at 1/16 and 1/64 chip about the best point: with fewer than
    four samples per chip the misfit's convex basin about the true delay
    can be narrower than a quarter chip, and Newton must start inside it.
    """
    periods = spec.num_samples * spec.sampling_period / spec.code_period
    step = spec.chip_duration / 4
    if abs(periods - round(periods)) < 1e-9 and spec.sampling_period <= step:
        w0 = sample_waveform(spec, lo, 0).samples
        # Re<roll(w0, s), z> for all integer shifts s via circular correlation
        corr = np.real(np.fft.ifft(np.fft.fft(z) * np.conj(np.fft.fft(w0))))
        n_steps = int(math.floor((hi - lo) / spec.sampling_period))
        shifts = np.arange(0, min(n_steps, len(z) - 1) + 1)
        best = shifts[np.argmax(corr[shifts])]
        return lo + best * spec.sampling_period

    def best(taus):
        objective = [-float(np.linalg.norm(z - sample_waveform(spec, tau, 0).samples))
                     for tau in taus]
        return float(taus[int(np.argmax(objective))])

    tau = best(np.arange(lo, hi + 0.5 * step, step))
    for _ in range(2):
        step /= 4
        tau = best(tau + step * np.arange(-4, 5))
    return tau


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate fails the checks
def _ml_delay(z: SampledSignal, spec: WaveformSpec,
              search_window: tuple[float, float], max_iter: int = 50):
    """ML delay with what the refinement saw at it.

    Returns (tau0, (w, w', w'') at tau0, Newton passes, final residual
    |Re<w - z, w'>| / ||w'||^2 with ||w'||^2 taken at the coarse delay).
    """
    lo, hi = search_window
    if hi - lo < 2 * spec.chip_duration:
        raise DelayEstimationError(
            f"search window [{lo}, {hi}] narrower than two chips"
        )
    if len(z) != spec.num_samples:
        raise ValueError("signal length does not match spec.num_samples")

    zs = z.samples
    tau = _coarse_grid(zs, spec, lo, hi)
    if max_iter < 1:
        raise DelayEstimationError(
            f"no convergence after {max_iter} iterations", last_iterate=tau
        )

    best_tau, best_g, best_w = tau, math.inf, None
    for iterations in range(1, max_iter + 1):
        g, dg, n1sq, waveforms = _stationarity(zs, spec, tau)
        if iterations == 1:
            # ||w'||^2 at the coarse delay sets the convergence scale
            scale = n1sq
            tol = 1e-9 * scale
            floor = 64 * np.finfo(float).eps * scale
        if abs(g) < abs(best_g):
            best_tau, best_g, best_w = tau, g, waveforms
        if abs(g) <= floor:
            break
        if dg <= 0:
            raise DelayEstimationError(
                "non-positive misfit curvature during refinement", last_iterate=tau
            )
        step = g / dg
        tau = tau - step
        if not lo - spec.chip_duration <= tau <= hi + spec.chip_duration:  # NaN too
            raise DelayEstimationError(
                "Newton iterate left the search window: no stationary point inside",
                last_iterate=tau,
            )
        if abs(step) < 1e-22:
            break
    else:
        if abs(best_g) > tol:
            raise DelayEstimationError(
                f"no convergence after {max_iter} iterations", last_iterate=best_tau
            )

    if abs(best_g) > tol:
        raise DelayEstimationError(
            "stationarity residual above tolerance", last_iterate=best_tau
        )
    return best_tau, best_w, iterations, abs(best_g) / scale


def ml_delay_estimate(z: SampledSignal, spec: WaveformSpec,
                      search_window: tuple[float, float],
                      max_iter: int = 50) -> float:
    """Maximum-likelihood delay: coarse correlation search plus Newton refinement.

    The returned tau0 satisfies |Re<w - z, w'>| <= 1e-9 ||w'||^2 (iteration
    continues below that threshold while it keeps improving, so small
    perturbation-induced shifts are resolved to machine level).
    """
    return _ml_delay(z, spec, search_window, max_iter)[0]


def magnification_tau(z: SampledSignal, w: SampledSignal,
                      w1: SampledSignal, w2: SampledSignal) -> float:
    """Delay-bias magnification M = ||w'|| / |  ||w'||^2 + Re<w - z, w''> |.

    The real part makes the denominator the actual second derivative of
    the log-likelihood (the complex-conjugate pair in the stationarity
    condition doubles the real component only). Units: seconds of delay
    per unit interference norm.
    """
    n1sq = float(np.real(np.vdot(w1.samples, w1.samples)))
    denom = n1sq + float(np.real(np.vdot(w.samples - z.samples, w2.samples)))
    if abs(denom) < 1e-12 * n1sq:
        raise DegenerateCurvatureError(
            "likelihood curvature vanishes; no first-order bound exists"
        )
    return math.sqrt(n1sq) / abs(denom)


def worst_interference(w1: SampledSignal, power: float) -> SampledSignal:
    """The power-constrained interference maximizing the first-order delay bias.

    The bound |delta_tau| <= M ||dy|| is achieved, to first order, by dy
    parallel to the waveform derivative; this returns sqrt(power) w'/||w'||.
    """
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    n1 = w1.norm()
    if n1 == 0:
        raise ValueError("zero derivative signal")
    return w1.scaled(math.sqrt(power) / n1)


def perturbation_experiment(spec: WaveformSpec, tau_true: float,
                            noise: NoiseConfig,
                            interference: SampledSignal,
                            search_window: Optional[tuple[float, float]] = None,
                            ) -> TauPerturbation:
    """End-to-end check of the first-order bias bound.

    Simulates z = w(.-tau_true) + n, estimates the delay with and without
    the interference added, and compares the measured shift against
    m_tau * ||dy||. Deterministic given the noise seed.
    """
    if len(interference) != spec.num_samples:
        raise ValueError("interference length does not match spec.num_samples")
    if search_window is None:
        half = spec.code_period / 2
        search_window = (tau_true - half, tau_true + half)

    clean = sample_waveform(spec, tau_true, 0)
    z = SampledSignal(clean.samples + noise.sample(spec.num_samples),
                      spec.sampling_period)
    tau0, waveforms, iter0, res0 = _ml_delay(z, spec, search_window)
    m_tau = magnification_tau(
        z, *(SampledSignal(w, spec.sampling_period) for w in waveforms))
    bound = m_tau * interference.norm()

    z_pert = z + interference
    tau_pert, _, iter_pert, res_pert = _ml_delay(z_pert, spec, search_window)

    return TauPerturbation(
        tau0=tau0,
        m_tau=m_tau,
        delta_tau_bound=bound,
        delta_tau_empirical=tau_pert - tau0,
        iterations=(iter0, iter_pert),
        residual=(res0, res_pert),
    )


def default_spec(prn: int = 1, pulse_smoothing_chips: float = 0.1,
                 samples_per_chip: int = 4, amplitude: float = 1.0,
                 phase: float = 0.0) -> WaveformSpec:
    """One code period of a C/A code at the given oversampling."""
    code = generate_ca_code(prn)
    tc = code.chip_duration
    n = len(code) * samples_per_chip
    return WaveformSpec(
        code=code,
        amplitude=amplitude,
        phase=phase,
        pulse_smoothing=pulse_smoothing_chips * tc,
        sampling_period=code.period / n,
        num_samples=n,
    )
