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
_SQRT_HALF = math.sqrt(0.5)
_ROUNDING = 64 * np.finfo(float).eps
_NEWTON_PASSES = 50
_TINY_SQUARES = np.finfo(float).tiny / np.finfo(float).eps


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
    The capture spans a whole number of code periods, num_samples samples
    at T = periods * code_period / num_samples, so a delay shift of m
    samples circularly shifts the replica.
    """

    code: ChipSequence
    pulse_smoothing: float
    periods: int
    num_samples: int

    def __post_init__(self):
        if not 0 < self.pulse_smoothing < math.inf:  # NaN fails too
            raise ValueError(
                "pulse_smoothing must be strictly positive and finite: with "
                "ideal rectangular chips the waveform derivative is undefined "
                "at chip edges"
            )
        if not (_is_int(self.periods) and self.periods >= 1):
            raise ValueError("periods must be an integer >= 1")
        if not (_is_int(self.num_samples) and self.num_samples >= 1):
            raise ValueError("num_samples must be an integer >= 1")

    @property
    def chip_duration(self) -> float:
        return self.code.chip_duration

    @property
    def code_period(self) -> float:
        return self.code.period

    @property
    def sampling_period(self) -> float:
        return self.periods * self.code.period / self.num_samples


@dataclass(frozen=True)
class SampledSignal:
    """A finite complex sample sequence, stored as a contiguous complex128
    array (a strided view is copied), so its float64 view is always valid."""

    samples: np.ndarray

    def __post_init__(self):
        if np.ndim(self.samples) != 1:  # checked first: the copy is at least 1-D
            raise ValueError("samples must be 1-D")
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
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
    """Real (float64) samples of w, w' and/or w'' at kT - tau, k = 1..num_samples.

    The rectangular chip train convolved with a Gaussian of std s has the
    closed form sum_j c_j [Phi((t-jTc)/s) - Phi((t-(j+1)Tc)/s)], with
    analytic delay derivatives. The Gaussian is truncated at 10 s: a sample
    in chip j0 sums chips j0-half .. j0+half, half = ceil(10 s / Tc), whose
    two outer boundaries take Phi = 1 (left), 0 (right) and density 0. A
    sample moves by at most ~Phi(-10) = 7.6e-24 at unit amplitude, phi(10)/s
    in w' and 10 phi(10)/s^2 in w''.

    T = periods P / N, so T/Tc = p/q in lowest terms, and sample k sits
    at chip k p/q - tau/Tc (mod L): its chip and its phase R = k p mod q
    come from integers, and its offset within the chip is R/q -
    frac(tau/Tc), plus one where that is negative. Each position
    carries the one rounding of tau/Tc that all samples share and the
    rounding of its phase's offset. The 2 half inner boundaries of a
    phase get arguments b = (offset - r) / (s/Tc), r = 1-half .. half,
    and Phi (order 0) or the density (orders 1, 2) run on that 2 half x q
    table: 2 x 4 arguments at the default spec. Phi(x) is
    0.5 erfc(-x / sqrt 2) from the standard library's math.erfc, one
    Python call per table entry. A chip term is the
    difference of two boundary values of its sample's phase, times the
    chip. Every sample is the sum numpy gives for its chip terms along a
    sample row: numpy's sum over the window axis for fewer than 8 terms,
    its (pairwise) row sum for 8 or more. Samples are held in time order,
    one float64 array per entry of `orders`, in that order: the replica
    has unit amplitude and zero phase, so every order is real, and only
    sample_waveform wraps one into a complex SampledSignal. No table or
    index outlives the call.
    """
    tc = spec.chip_duration
    theta = tau / tc  # the delay in chips
    if not math.isfinite(theta):
        raise ValueError(f"delay tau={tau!r} s is not a finite number of chips")
    chips = spec.code.chips
    length, n, periods = len(chips), spec.num_samples, spec.periods
    g = math.gcd(periods * length, n)
    p, q = periods * length // g, n // g
    s = spec.pulse_smoothing
    half = int(math.ceil(10.0 * s / tc))

    floor = math.floor(theta)
    offset = np.arange(q) / q - (theta - floor)
    before = offset < 0  # the sample lies in the chip before
    offset += before
    # Sample k = i q + j, j = 1..q, lies in chip i p + j p // q at phase
    # j p % q. The window of a sample starts half chips before its chip
    # of the code tiled over periods + 2 + 2 half // L periods, so that
    # c[row, i, j - 1] = tiled[start[j - 1] + row + i p] is its chip row;
    # the largest index read, 2 half + periods L - p + L - 1, lies inside.
    whole, phase = np.divmod(np.arange(1, q + 1) * p, q)
    start = (whole - before[phase] - (floor + half) % length) % length
    tiled = np.tile(chips.astype(np.float64), periods + 2 + 2 * half // length)
    step = tiled.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        tiled, (2 * half + 1, n // q, length), (step, p * step, step), writeable=False)
    c = windows[:, :, start]

    # inner boundary rows of the table; with the outer two, a chip is the
    # difference of rows [:-1] and [1:]
    b = np.add.outer(np.arange(half - 1, -half - 1, -1, dtype=np.float64), offset)
    b /= s / tc
    rows = (2 * half + 2, q)

    def chip_sum(first, second):
        terms = c * (first - second)[:, None, phase]
        if len(terms) >= 8:
            # numpy sums a row of 8 or more terms pairwise: keep its row sum
            terms = np.ascontiguousarray(np.moveaxis(terms, 0, -1))
            return terms.sum(axis=-1).reshape(n)
        return terms.sum(axis=0).reshape(n)

    m = {}
    if 0 in orders:
        cdf = np.zeros(rows)
        cdf[0] = 1.0
        cdf[1:-1] = [[0.5 * math.erfc(-x * _SQRT_HALF) for x in row]
                     for row in b.tolist()]
        m[0] = chip_sum(cdf[:-1], cdf[1:])
    if 1 in orders or 2 in orders:
        pdf = np.zeros(rows)
        pdf[1:-1] = np.exp(-0.5 * b * b) / _SQRT_2PI
        if 1 in orders:
            m[1] = chip_sum(pdf[:-1], pdf[1:]) / s
        if 2 in orders:
            pdf[1:-1] *= b  # b * density: the chip term is -u pu + v pv
            m[2] = chip_sum(pdf[1:], pdf[:-1]) / (s * s)
    return tuple(m[k] for k in orders)


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

    One table keyed by the exact delay holds the float64 (w, w', w'') of
    each delay synthesized, so a hit returns what a fresh synthesis
    would. A coarse reference is order 0 of its delay's entry, and only
    its conjugate real FFT is kept beside it. The coarse grid passes
    through the window centre, and an experiment centres its window on
    the true delay, so the one synthesis there serves the clean signal,
    both estimates' coarse reference and, when a coarse search lands on
    the centre, that estimate's first Newton pass. Made per experiment
    and dropped with it.
    """

    def __init__(self, spec: WaveformSpec):
        self.spec = spec
        self._orders = {}
        self._spectra = {}

    def orders(self, tau: float) -> tuple:
        """(w, w', w'') at tau."""
        if tau not in self._orders:
            self._orders[tau] = _waveforms(self.spec, tau, (0, 1, 2))
        return self._orders[tau]

    def reference(self, tau: float) -> tuple:
        """(w(tau), conj(rfft(w(tau)))) for the coarse correlation."""
        w = self.orders(tau)[0]
        if tau not in self._spectra:
            self._spectra[tau] = np.conj(np.fft.rfft(w))
        return w, self._spectra[tau]


def _misfit_derivatives(z, w, w1, w2) -> tuple[float, float, float]:
    """(g, dg, ||w'||^2) of the misfit ||z - w||^2 / 2, given w, w' and w''.

    g = Re<z - w, w'> is the (sigma-free, sign-flipped) delay derivative of
    the log-likelihood and vanishes at the ML delay; the curvature
    dg = ||w'||^2 + Re<w - z, w''> is positive at a proper minimum. The
    arrays may be complex (magnification_tau) or real (the estimator's
    Re z and replicas), where np.vdot is a real dot.
    """
    d = z - w
    n1sq = float(np.real(np.vdot(w1, w1)))
    g = float(np.real(np.vdot(d, w1)))
    dg = n1sq - float(np.real(np.vdot(d, w2)))
    return g, dg, n1sq


def _coarse_grid(z: np.ndarray, syntheses: _Syntheses, lo: float, hi: float,
                 centre: float) -> float:
    """Least-misfit grid delay centre + i T / phases + m T in [lo, hi] to start Newton.

    z is the real part of the received signal, which the misfit's delay
    dependence sees alone: the replica is real. The capture spans whole
    code periods, so shifting tau by m sampling periods T circularly
    shifts the replica: <w(ref + m T), z> for every m comes from one
    circular correlation against w(ref), by real FFT, and its peak is the
    least misfit of that sub-sample phase. The grid passes through
    `centre` (m = 0 of the first phase), so when the peak lies there the
    coarse delay is `centre` exactly and its synthesis is shared. At four
    or more samples per chip one phase (the sample grid) suffices. Coarser
    sampling leaves few sample phases per chip. When they all lie several
    smoothings s from the nearest chip boundary the replica depends on the
    delay only through Gaussian tails, and the misfit's dip at the true
    delay can be a small fraction of s wide, beside a shoulder or a second
    minimum that a quarter-chip grid would pick (past about 8.3 s the
    tails round away and _ml_delay finds the delay unresolvable). There
    the phases are at most s / 4 apart and are compared by their misfits
    themselves (where the misfit is flat their correlations can differ by
    less than rounding); the search is then repeated at 1/4 and 1/16 of
    that step about the best point, so that Newton starts inside the
    convex basin.
    """
    spec = syntheses.spec
    n = len(z)
    period = spec.sampling_period
    quarter = spec.chip_duration / 4
    phases = 1 if period <= quarter else math.ceil(
        period / min(quarter, spec.pulse_smoothing / 4))
    zf = np.fft.rfft(z)
    peaks = []
    for i in range(phases):
        ref = centre + i * period / phases
        w, spectrum = syntheses.reference(ref)
        corr = np.fft.irfft(zf * spectrum, n)
        first = math.ceil((lo - ref) / period)
        last = min(math.floor((hi - ref) / period), first + n - 1)
        shifts = np.arange(first, last + 1)
        m = int(shifts[np.argmax(corr[shifts % n])])
        peaks.append((ref + m * period, w, m))
    if phases == 1:
        return peaks[0][0]
    misfits = [np.linalg.norm(z - np.roll(w, m)) for _, w, m in peaks]
    tau = peaks[int(np.argmin(misfits))][0]
    step = period / phases
    for _ in range(2):
        step /= 4
        taus = tau + step * np.arange(-4, 5)
        misfits = [np.linalg.norm(z - _waveforms(spec, t, (0,))[0]) for t in taus]
        tau = float(taus[int(np.argmin(misfits))])
    return tau


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate fails the checks
def _ml_delay(z: SampledSignal, syntheses: _Syntheses,
              search_window: tuple[float, float], centre: float):
    """ML delay with what the refinement saw at it.

    The coarse grid passes through `centre`. Returns (tau0, (w, w', w'')
    at tau0, Newton passes, final residual |Re<w - z, w'>| / ||w'||^2
    with ||w'||^2 taken at the coarse delay). The replica is real, so
    Re<z - w, w^(k)> = <Re z - w, w^(k)>: the search and the refinement
    read Re z only.
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

    zs = np.ascontiguousarray(z.samples.real)
    tau = _coarse_grid(zs, syntheses, lo, hi, centre)

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
    lo, hi = search_window
    return _ml_delay(z, _Syntheses(spec), search_window, (lo + hi) / 2)[0]


def _unit_scaled(signals: list) -> tuple[list, int]:
    """(2^-e s for each complex array s, e), with e putting their largest real
    or imaginary part in [0.5, 1) (e = 0 if all are zero). The one rescale of
    magnification_tau and worst_interference: exact on normal floats."""
    parts = [s.view(np.float64) for s in signals]
    exponent = math.frexp(max(max(p.max(initial=0.0), -p.min(initial=0.0))
                              for p in parts))[1]
    return [np.ldexp(p, -exponent).view(np.complex128) for p in parts], exponent


def magnification_tau(z: SampledSignal, w: SampledSignal,
                      w1: SampledSignal, w2: SampledSignal) -> float:
    """Delay-bias magnification M = ||w'|| / |  ||w'||^2 + Re<w - z, w''> |.

    The real part makes the denominator the actual second derivative of
    the log-likelihood (the complex-conjugate pair in the stationarity
    condition doubles the real component only). Units: seconds of delay
    per unit interference norm. Where a sum of squares or products over-
    or underflows, M is taken on the four signals rescaled by
    _unit_scaled, the exact power-of-two rescale worst_interference also
    uses, and scaled back: it is homogeneous of degree -1 in them.
    """
    if not len(z) == len(w) == len(w1) == len(w2):
        raise ValueError("signal lengths differ")
    signals = [s.samples for s in (z, w, w1, w2)]
    with np.errstate(over="ignore", invalid="ignore"):
        _, denom, n1sq = _misfit_derivatives(*signals)
    exponent = 0
    # at ||w'||^2 >= tiny / eps, products that underflowed (each off by at
    # most tiny eps / 2) move the sums by a negligible fraction of an ulp
    if not (_TINY_SQUARES <= n1sq < math.inf and math.isfinite(denom)):
        signals, exponent = _unit_scaled(signals)
        _, denom, n1sq = _misfit_derivatives(*signals)
    if abs(denom) <= 1e-12 * n1sq:  # all-zero signals too
        raise DegenerateCurvatureError(
            "likelihood curvature vanishes; no first-order bound exists"
        )
    return math.ldexp(math.sqrt(n1sq) / abs(denom), -exponent)


def worst_interference(w1: SampledSignal, power: float) -> SampledSignal:
    """The power-constrained interference maximizing the first-order delay bias.

    The bound |delta_tau| <= M ||dy|| is achieved, to first order, by dy
    parallel to the waveform derivative; this returns sqrt(power) w'/||w'||,
    with ||w'|| taken on w' rescaled by _unit_scaled (as magnification_tau
    does), so it cannot overflow and dy is bit-exact for w' and 2^k w'.
    """
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    (unit,), _ = _unit_scaled([w1.samples])
    n1 = float(np.linalg.norm(unit))
    if n1 == 0:
        raise ValueError("zero derivative signal")
    return SampledSignal(math.sqrt(power) / n1 * unit)


def perturbation_experiment(spec: WaveformSpec, tau_true: float,
                            noise: NoiseConfig,
                            interference: SampledSignal) -> TauPerturbation:
    """End-to-end check of the first-order bias bound.

    Simulates z = w(.-tau_true) + n, estimates the delay with and without
    the interference added over tau_true +- code_period / 2, and compares
    the shift against m_tau * ||dy||. Deterministic given the noise seed.
    Both coarse grids pass through tau_true, so the one (w, w', w'')
    synthesis there gives the clean signal and both coarse references,
    and serves an estimate's first Newton pass when its coarse search
    lands on tau_true.
    """
    if len(interference) != spec.num_samples:
        raise ValueError("interference length does not match spec.num_samples")
    half = spec.code_period / 2
    search_window = (tau_true - half, tau_true + half)

    syntheses = _Syntheses(spec)
    clean = syntheses.orders(tau_true)[0]
    z = SampledSignal(clean + noise.sample(spec.num_samples))
    tau0, waveforms, iter0, res0 = _ml_delay(z, syntheses, search_window, tau_true)
    m_tau = magnification_tau(z, *map(SampledSignal, waveforms))
    bound = m_tau * interference.norm()

    z_pert = z + interference
    tau_pert, _, iter_pert, res_pert = _ml_delay(z_pert, syntheses, search_window,
                                                 tau_true)

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
        periods=1,
        num_samples=n,
    )
