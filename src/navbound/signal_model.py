"""Sampled code-spread signal model and worst-case ML delay-bias analysis.

The receiver observes z(kT) = w(kT - tau) + y(kT) + n(kT) where w is a
smoothed, unit-amplitude, zero-phase replica of a known spreading code:
signal strength enters through the noise sigma and the interference power.
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

from .cacode import ChipSequence, generate_ca_code

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ROUNDING = 64 * np.finfo(float).eps
_NEWTON_PASSES = 50


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    The capture spans a whole number of code periods, so a delay shift of
    m samples circularly shifts the replica.
    """

    code: ChipSequence
    pulse_smoothing: float
    sampling_period: float
    num_samples: int

    def __post_init__(self):
        if not 0 < self.pulse_smoothing < math.inf:  # NaN fails too
            raise ValueError(
                "pulse_smoothing must be strictly positive and finite: with "
                "ideal rectangular chips the waveform derivative is undefined "
                "at chip edges"
            )
        if not 0 < self.sampling_period < math.inf:
            raise ValueError("sampling_period must be positive and finite")
        if not (_is_int(self.num_samples) and self.num_samples >= 1):
            raise ValueError("num_samples must be an integer >= 1")
        periods = self.num_samples * self.sampling_period / self.code.period
        if not (math.isfinite(periods) and round(periods) >= 1
                and abs(periods - round(periods)) < 1e-9):
            raise ValueError("num_samples * sampling_period must span a whole "
                             "number (>= 1) of code periods")

    @property
    def chip_duration(self) -> float:
        return self.code.chip_duration

    @property
    def code_period(self) -> float:
        return self.code.period


@dataclass(frozen=True)
class SampledSignal:
    """A finite complex sample sequence."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        if len(self) != len(other):
            raise ValueError("signal lengths differ")
        return SampledSignal(self.samples + other.samples)

    def scaled(self, c: complex) -> "SampledSignal":
        return SampledSignal(c * self.samples)


@dataclass(frozen=True)
class NoiseConfig:
    """Circularly symmetric complex Gaussian noise, per-component std sigma."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:  # NaN fails too
            raise ValueError("sigma must be finite and non-negative")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

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
    closed form sum_j c_j [Phi((t-jTc)/s) - Phi((t-(j+1)Tc)/s)], with
    analytic delay derivatives. The Gaussian is truncated at 10 s: a sample
    in chip j0 sums chips j0-half .. j0+half, half = ceil(10 s / Tc), whose
    two outer boundaries take Phi = 1 (left), 0 (right) and density 0. A
    sample moves by at most ~Phi(-10) = 7.6e-24 at unit amplitude, phi(10)/s
    in w' and 10 phi(10)/s^2 in w''. Only the 2 half inner boundaries get
    arguments b = (t - J Tc)/s, Phi (order 0) or the density (orders 1, 2):
    2 rows and 3 chip terms at the default 0.1-chip smoothing. Chip terms
    are summed row by row, left to right, as numpy sums a row of fewer than
    8 terms; windows of 8 or more keep numpy's (pairwise) row sum, so every
    sample is the sum numpy gives for the same terms along a sample row.
    Returns one array per entry of `orders`, in that order.
    """
    t = np.arange(1, spec.num_samples + 1) * spec.sampling_period - tau
    tc = spec.chip_duration
    s = spec.pulse_smoothing

    # np.mod's result from a cheaper fmod: a negative remainder gains one
    # period, and adding 0.0 to the others turns -0.0 into np.mod's +0.0
    x = np.fmod(t, spec.code_period)
    x += (x < 0) * spec.code_period
    j0 = np.floor(x / tc)
    half = int(math.ceil(10.0 * s / tc))

    # inner boundary rows; with the two outer rows, a chip is rows [:-1] and [1:]
    b = np.add.outer(np.arange(1 - half, half + 1, dtype=np.float64), j0)
    b *= tc
    np.subtract(x, b, out=b)
    b /= s
    # chip j0 + k - half for chip row k, read from a circularly padded copy
    chips = spec.code.chips
    padded = np.take(chips, np.arange(-half, len(chips) + half + 1), mode="wrap")
    c = padded.astype(np.float64)[np.add.outer(np.arange(2 * half + 1),
                                               j0.astype(np.intp))]
    terms = np.empty_like(c)
    rows = (2 * half + 2, len(x))

    def chip_sum(first, second):
        np.subtract(first, second, out=terms)
        np.multiply(terms, c, out=terms)
        if len(terms) >= 8:
            # numpy sums a row of 8 or more terms pairwise: keep its row sum
            return np.ascontiguousarray(terms.T).sum(axis=1)
        # below 8 terms numpy's row sum adds left to right from +0.0
        acc = terms[0] + terms[1]
        for row in terms[2:]:
            acc += row
        acc += 0.0  # a row of -0.0 terms sums to +0.0
        return acc

    m = {}
    if 0 in orders:
        # scipy is imported at the first Phi, so commands that never
        # synthesize w itself start without it
        from scipy.special import ndtr

        cdf = np.zeros(rows)
        cdf[0] = 1.0
        ndtr(b, out=cdf[1:-1])
        m[0] = chip_sum(cdf[:-1], cdf[1:])
    if 1 in orders or 2 in orders:
        pdf = np.zeros(rows)
        inner = np.multiply(b, -0.5, out=pdf[1:-1])
        inner *= b
        np.exp(inner, out=inner)
        inner /= _SQRT_2PI
        if 1 in orders:
            m[1] = chip_sum(pdf[:-1], pdf[1:]) / s
        if 2 in orders:
            inner *= b  # b * density: the chip term is -u pu + v pv
            m[2] = chip_sum(pdf[1:], pdf[:-1]) / (s * s)
    # astype keeps the sign of a zero, where + 0j would turn -0.0 into +0.0
    return tuple(m[k].astype(np.complex128) for k in orders)


def sample_waveform(spec: WaveformSpec, tau: float, derivative_order: int = 0) -> SampledSignal:
    """Evaluate w, w' or w'' at sample times kT for k = 1..num_samples.

    Derivatives are exact analytic derivatives of the Gaussian-smoothed
    chip train, at unit amplitude and zero phase, so every order is real.
    """
    if derivative_order not in (0, 1, 2):
        raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
    (samples,) = _waveforms(spec, tau, (derivative_order,))
    return SampledSignal(samples)


class _Syntheses:
    """The syntheses of one delay experiment, shared by its estimates.

    A clean and a perturbed estimate search the same window, so they
    correlate against the same reference spectra, and the perturbed
    estimate's first Newton pass usually starts at the clean estimate's
    first delay. Entries are keyed by the exact delay, so a hit returns
    what a fresh synthesis would. Made per experiment and dropped with it.
    """

    def __init__(self, spec: WaveformSpec):
        self.spec = spec
        self._references = {}
        self._orders = {}

    def reference(self, tau: float) -> tuple:
        """(w(tau), conj(fft(w(tau)))) for the coarse correlation."""
        if tau not in self._references:
            w = sample_waveform(self.spec, tau, 0).samples
            self._references[tau] = (w, np.conj(np.fft.fft(w)))
        return self._references[tau]

    def orders(self, tau: float) -> tuple:
        """(w, w', w'') at tau."""
        if tau not in self._orders:
            self._orders[tau] = _waveforms(self.spec, tau, (0, 1, 2))
        return self._orders[tau]


def _misfit_derivatives(z, w, w1, w2) -> tuple[float, float, float]:
    """(g, dg, ||w'||^2) of the misfit ||z - w||^2 / 2, given w, w' and w''.

    g = Re<z - w, w'> is the (sigma-free, sign-flipped) delay derivative of
    the log-likelihood and vanishes at the ML delay; the curvature
    dg = ||w'||^2 + Re<w - z, w''> is positive at a proper minimum.
    """
    d = z - w
    n1sq = float(np.real(np.vdot(w1, w1)))
    g = float(np.real(np.vdot(d, w1)))
    dg = n1sq - float(np.real(np.vdot(d, w2)))
    return g, dg, n1sq


def _coarse_grid(z: np.ndarray, syntheses: _Syntheses, lo: float, hi: float) -> float:
    """Least-misfit grid delay lo + i T / phases + m T in [lo, hi] to start Newton.

    The capture spans whole code periods, so shifting tau by m sampling
    periods T circularly shifts the replica: Re<w(ref + m T), z> for every
    m comes from one circular correlation against w(ref), and its peak is
    the least misfit of that sub-sample phase. At four or more samples per
    chip one phase (the sample grid) suffices. Coarser sampling leaves few
    sample phases per chip. When they all lie several smoothings s from
    the nearest chip boundary the replica depends on the delay only
    through Gaussian tails, and the misfit's dip at the true delay can be
    a small fraction of s wide, beside a shoulder or a second minimum that
    a quarter-chip grid would pick (past about 8.3 s the tails round away
    and _ml_delay finds the delay unresolvable). There the phases are at
    most s / 4 apart and are compared by their misfits themselves (where
    the misfit is flat their correlations can differ by less than
    rounding); the search is then repeated at 1/4 and 1/16 of that step
    about the best point, so that Newton starts inside the convex basin.
    """
    spec = syntheses.spec
    period = spec.sampling_period
    quarter = spec.chip_duration / 4
    step = quarter if period <= quarter else min(quarter, spec.pulse_smoothing / 4)
    phases = 1 if period <= step else math.ceil(period / step)
    zf = np.fft.fft(z)
    peaks = []
    for i in range(phases):
        ref = lo + i * period / phases
        w, spectrum = syntheses.reference(ref)
        corr = np.real(np.fft.ifft(zf * spectrum))
        n_steps = int(math.floor((hi - ref) / period))
        shifts = np.arange(0, min(n_steps, len(z) - 1) + 1)
        m = shifts[np.argmax(corr[shifts])]
        peaks.append((ref + m * period, w, m))
    if phases == 1:
        return peaks[0][0]
    misfits = [np.linalg.norm(z - np.roll(w, m)) for _, w, m in peaks]
    tau = peaks[int(np.argmin(misfits))][0]
    step = period / phases
    for _ in range(2):
        step /= 4
        taus = tau + step * np.arange(-4, 5)
        misfits = [np.linalg.norm(z - sample_waveform(spec, t, 0).samples)
                   for t in taus]
        tau = float(taus[int(np.argmin(misfits))])
    return tau


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate fails the checks
def _ml_delay(z: SampledSignal, syntheses: _Syntheses,
              search_window: tuple[float, float]):
    """ML delay with what the refinement saw at it.

    Returns (tau0, (w, w', w'') at tau0, Newton passes, final residual
    |Re<w - z, w'>| / ||w'||^2 with ||w'||^2 taken at the coarse delay).
    """
    spec = syntheses.spec
    lo, hi = search_window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"search window [{lo}, {hi}] must be finite")
    if hi - lo < 2 * spec.chip_duration:
        raise DelayEstimationError(
            f"search window [{lo}, {hi}] narrower than two chips"
        )
    if len(z) != spec.num_samples:
        raise ValueError("signal length does not match spec.num_samples")

    zs = z.samples
    tau = _coarse_grid(zs, syntheses, lo, hi)

    best_tau, best_g, best_w = tau, math.inf, None
    for iterations in range(1, _NEWTON_PASSES + 1):
        waveforms = syntheses.orders(tau)
        g, dg, n1sq = _misfit_derivatives(zs, *waveforms)
        if iterations == 1:
            # ||w'||^2 at the coarse delay sets the convergence scale
            scale = n1sq
        if abs(g) < abs(best_g):
            best_tau, best_g, best_w = tau, g, waveforms
        if abs(g) <= _ROUNDING * scale:
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

    if abs(best_g) > 1e-9 * scale:
        raise DelayEstimationError(
            f"stationarity residual above tolerance after {iterations} Newton "
            "passes", last_iterate=best_tau
        )
    # A shift of a millionth of a chip moves the replica by about
    # ||w'|| Tc 1e-6; below rounding the samples do not fix the delay, and
    # Newton stops anywhere on a flat misfit (one sample per chip, with
    # every sample many smoothings from a chip boundary).
    w, w1, _ = best_w
    if np.linalg.norm(w1) * (1e-6 * spec.chip_duration) <= _ROUNDING * np.linalg.norm(w):
        raise DelayEstimationError(
            "the samples do not resolve the delay: a millionth of a chip moves "
            "the replica by less than rounding", last_iterate=best_tau
        )
    return best_tau, best_w, iterations, abs(best_g) / scale


def ml_delay_estimate(z: SampledSignal, spec: WaveformSpec,
                      search_window: tuple[float, float]) -> float:
    """Maximum-likelihood delay: coarse correlation search plus Newton refinement.

    The returned tau0 satisfies |Re<w - z, w'>| <= 1e-9 ||w'||^2 after at
    most 50 Newton passes, which go on below that threshold while they
    improve, so small perturbation-induced shifts are resolved to machine
    level. Raises DelayEstimationError when no such point is found, or
    when a millionth of a chip moves the replica at tau0 by less than rounding.
    """
    return _ml_delay(z, _Syntheses(spec), search_window)[0]


def magnification_tau(z: SampledSignal, w: SampledSignal,
                      w1: SampledSignal, w2: SampledSignal) -> float:
    """Delay-bias magnification M = ||w'|| / |  ||w'||^2 + Re<w - z, w''> |.

    The real part makes the denominator the actual second derivative of
    the log-likelihood (the complex-conjugate pair in the stationarity
    condition doubles the real component only). Units: seconds of delay
    per unit interference norm.
    """
    _, denom, n1sq = _misfit_derivatives(*(s.samples for s in (z, w, w1, w2)))
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
                            interference: SampledSignal) -> TauPerturbation:
    """End-to-end check of the first-order bias bound.

    Simulates z = w(.-tau_true) + n, estimates the delay with and without
    the interference added over tau_true +- code_period / 2, and compares
    the shift against m_tau * ||dy||. Deterministic given the noise seed.
    """
    if len(interference) != spec.num_samples:
        raise ValueError("interference length does not match spec.num_samples")
    half = spec.code_period / 2
    search_window = (tau_true - half, tau_true + half)

    clean = sample_waveform(spec, tau_true, 0)
    z = SampledSignal(clean.samples + noise.sample(spec.num_samples))
    syntheses = _Syntheses(spec)
    tau0, waveforms, iter0, res0 = _ml_delay(z, syntheses, search_window)
    m_tau = magnification_tau(z, *map(SampledSignal, waveforms))
    bound = m_tau * interference.norm()

    z_pert = z + interference
    tau_pert, _, iter_pert, res_pert = _ml_delay(z_pert, syntheses, search_window)

    return TauPerturbation(
        tau0=tau0,
        m_tau=m_tau,
        delta_tau_bound=bound,
        delta_tau_empirical=tau_pert - tau0,
        iterations=(iter0, iter_pert),
        residual=(res0, res_pert),
    )


def default_spec(prn: int = 1, pulse_smoothing_chips: float = 0.1,
                 samples_per_chip: int = 4) -> WaveformSpec:
    """One code period of a C/A code at the given oversampling."""
    if not (_is_int(samples_per_chip) and samples_per_chip >= 1):
        raise ValueError(f"samples_per_chip must be an integer >= 1, "
                         f"got {samples_per_chip!r}")
    code = generate_ca_code(prn)
    tc = code.chip_duration
    n = len(code) * samples_per_chip
    return WaveformSpec(
        code=code,
        pulse_smoothing=pulse_smoothing_chips * tc,
        sampling_period=code.period / n,
        num_samples=n,
    )
