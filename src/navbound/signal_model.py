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


def _finite(samples: np.ndarray) -> np.ndarray:
    """samples, a contiguous float64 or complex128 array, if its every part is finite."""
    if not np.all(np.isfinite(samples.view(np.float64))):
        raise ValueError("samples must be finite")
    return samples


@dataclass(frozen=True)
class SampledSignal:
    """A finite complex sample sequence, stored as a contiguous complex128
    array (a strided view is copied), so its float64 view is always valid."""

    samples: np.ndarray

    def __post_init__(self):
        if np.ndim(self.samples) != 1:  # checked first: the copy is at least 1-D
            raise ValueError("samples must be 1-D")
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", _finite(samples))

    def __len__(self):
        return len(self.samples)

    def norm(self) -> float:
        """Euclidean norm, by _norm: no square over- or underflows."""
        return _norm(self.samples)

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        if len(self) != len(other):
            raise ValueError("signal lengths differ")
        return SampledSignal(self.samples + other.samples)

    def scaled(self, c: complex) -> "SampledSignal":
        return SampledSignal(c * self.samples)


@dataclass(frozen=True)
class NoiseConfig:
    """Circularly symmetric complex Gaussian noise, per-component std sigma: sample(n) is
    sigma (a + j b), a then b drawn from default_rng(seed); the delay experiment draws a alone."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:  # NaN fails too
            raise ValueError("sigma must be finite and non-negative")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def _blocks(self, n: int, count: int = 2) -> np.ndarray:
        """(count, n) standard normals drawn from default_rng(seed), zeros at sigma 0."""
        if self.sigma == 0:
            return np.zeros((count, n))
        return np.random.default_rng(self.seed).standard_normal((count, n))

    def sample(self, n: int) -> np.ndarray:
        a, b = self._blocks(n)
        with np.errstate(over="ignore"):  # SampledSignal rejects an overflowed sample
            return self.sigma * (a + 1j * b)


@dataclass(frozen=True)
class TauPerturbation:
    """Outcome of a delay-perturbation experiment."""

    tau0: float
    m_tau: float
    delta_tau_bound: float
    delta_tau_empirical: float
    # (clean, perturbed) estimate: Newton passes, and the final
    # |Re<w - z, w'>| / ||w'||^2 that the estimator accepted
    iterations: tuple[int, int]
    residual: tuple[float, float]


def _chip_windows(spec: WaveformSpec, p, q, half, floor, count) -> tuple:
    """The chip layout (phases, windows, entry) at floor(tau/Tc) = floor mod L,
    with phases 0 .. count - 1 in the chip before.

    An entry is a (window chips, phase) pair: entry e = a q + j has the
    2 half + 1 chips windows[a, j or 0] and the phase phases[j], and
    sample k is entry[k - 1]. The grid repeats every r = q L / gcd(p, L)
    samples, a divisor of N. When 2^(2 half + 1) q <= r, the entries are
    every sign pattern of a window at every phase, keyed by the pattern's
    bits times q plus the phase; otherwise they are the samples of one
    repeat. So the table never has more than r entries.
    """
    length, width = len(spec.code), 2 * half + 1
    # Sample k = i q + j, j = 1..q, of the first repeat lies in chip
    # i p + j p // q at phase j p % q, and its window starts half chips
    # before its chip, at code chip start[j - 1, i] mod L.
    whole, phase = np.divmod(np.arange(1, q + 1) * p, q)
    repeat = q * length // math.gcd(p, length)
    start = (whole - (phase < count) - (floor + half))[:, None] \
        + np.arange(0, p * (repeat // q), p)
    if 2 ** width * q <= repeat:  # so 2^width <= L: a window wraps the code once at most
        sign = spec.code.chips > 0
        bits = np.convolve(np.concatenate((sign, sign[:width - 1])),
                           q << np.arange(width - 1, -1, -1), "valid")  # q x sign bits
        entry = (bits.take(start, mode="wrap") + phase[:, None]).T.reshape(-1)
        bit = np.arange(2 ** width)[:, None, None] >> np.arange(width) & 1
        phase, windows = np.arange(q), np.where(bit, 1.0, -1.0)
    else:
        entry = np.arange(repeat)
        windows = spec.code.chips.astype(np.float64).take(
            start.T[:, :, None] + np.arange(width), mode="wrap")
    return phase, windows, np.tile(entry, spec.num_samples // repeat)


def _waveforms(spec: WaveformSpec, tau: float, layouts: dict) -> tuple:
    """Real (float64) samples (w, w', w'') at kT - tau, k = 1..num_samples.

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
    and Phi (order 0) and the density (orders 1, 2) run on that 2 half x q
    table: 2 x 4 arguments each at the default spec. Phi(x) is
    0.5 erfc(-x / sqrt 2) from the standard library's math.erfc, one
    Python call per table entry. A chip term is the difference of two
    boundary values of its phase, times the chip. The chip layout maps
    each sample to an entry of _chip_windows, and each order's terms are
    summed once per entry, as numpy sums a row (in order below 8 terms,
    pairwise from 8), divided by 1, s or s^2 and gathered into the
    samples: every sample is the row sum of its own chip terms. Every
    call returns the three orders, each a float64 array in time order:
    the replica has unit amplitude and zero phase, so every order is
    real, and only sample_waveform wraps one into a complex
    SampledSignal. The chip layouts are kept in `layouts` for one call
    or one experiment.
    """
    tc = spec.chip_duration
    theta = tau / tc  # the delay in chips
    if not math.isfinite(theta):
        raise ValueError(f"delay tau={tau!r} s is not a finite number of chips")
    length, n, periods = len(spec.code), spec.num_samples, spec.periods
    g = math.gcd(periods * length, n)
    p, q = periods * length // g, n // g
    s = spec.pulse_smoothing
    half = int(math.ceil(10.0 * s / tc))

    floor = math.floor(theta)
    offset = np.arange(q) / q - (theta - floor)
    before = offset < 0  # the sample lies in the chip before
    offset += before
    key = (floor % length, int(np.count_nonzero(before)))  # phases 0 .. count - 1
    if key not in layouts:
        layouts[key] = _chip_windows(spec, p, q, half, *key)
    phase, c, entry = layouts[key]

    # Phi, density and b x density at each phase's chip boundaries: rows
    # 1 .. 2 half inner, 0 and 2 half + 1 outer; a chip spans [:-1] to [1:]
    b = np.add.outer(np.arange(half - 1, -half - 1, -1, dtype=np.float64), offset)
    b /= s / tc
    f = np.zeros((3, 2 * half + 2, q))
    f[0, 0] = 1.0
    f[0, 1:-1] = [[0.5 * math.erfc(-x * _SQRT_HALF) for x in row]
                  for row in b.tolist()]
    f[1, 1:-1] = np.exp(-0.5 * b * b) / _SQRT_2PI
    f[2, 1:-1] = f[1, 1:-1] * b
    d = f[:, :-1] - f[:, 1:]
    d[2] = f[2, 1:] - f[2, :-1]  # the order 2 chip term is -u pu + v pv
    # (3 orders, entries / q, q, 2 half + 1): each entry's terms in a row
    terms = c * d.swapaxes(1, 2)[:, None, phase]
    sums = terms.sum(axis=-1).reshape(3, -1) / np.array([1.0, s, s * s])[:, None]
    # one array per order: freeing a single (3, N) block, 98 KB at N = 4092,
    # made glibc malloc trim the heap top and fault its pages back in
    return tuple(row.take(entry) for row in sums)


def sample_waveform(spec: WaveformSpec, tau: float, derivative_order: int = 0) -> SampledSignal:
    """Evaluate w, w' or w'' at sample times kT for k = 1..num_samples.

    Derivatives are exact analytic derivatives of the Gaussian-smoothed
    chip train, at unit amplitude and zero phase, so every order is real.
    The one synthesis gives all three orders, and this returns one.
    """
    if not (_is_int(derivative_order) and derivative_order in (0, 1, 2)):
        raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
    return SampledSignal(_waveforms(spec, tau, {})[derivative_order])


class _Syntheses:
    """The syntheses of one delay experiment, shared by its estimates.

    One table keyed by the exact delay holds the float64 (w, w', w'') of
    each delay synthesized, so a hit returns what a fresh synthesis would,
    and is the one holder of an estimate's waveforms: M_tau reads them at
    tau0. A coarse reference is order 0 of its delay's entry; kept beside it
    are its conjugate real FFT and, per window, the d^2_min that makes the
    centre the coarse delay when 4 ||z - w||^2 < d^2_min (_coarse_grid). The
    coarse grid passes through the window centre, and an experiment centres
    its window on the true delay, so the one synthesis there serves the
    clean signal, both estimates' coarse reference and, when a coarse
    search lands on the centre, that estimate's first Newton pass. Its
    syntheses share their chip layouts, and so their entries. Made per
    experiment and dropped with it.
    """

    def __init__(self, spec: WaveformSpec):
        self.spec = spec
        self.layouts, self._orders, self._spectra, self._separations = {}, {}, {}, {}

    def orders(self, tau: float) -> tuple:
        """(w, w', w'') at tau."""
        if tau not in self._orders:
            self._orders[tau] = _waveforms(self.spec, tau, self.layouts)
        return self._orders[tau]

    def reference(self, tau: float) -> tuple:
        """(w(tau), conj(rfft(w(tau)))) for the coarse correlation."""
        w = self.orders(tau)[0]
        if tau not in self._spectra:
            self._spectra[tau] = np.conj(np.fft.rfft(w))
        return w, self._spectra[tau]

    def separation(self, tau: float, first: int, last: int) -> float:
        """d^2_min = min ||w - roll(w, m)||^2 = 2 (R(0) - R(m)), w = w(tau), over the shifts
        m != 0 in [first, last] (-n < first <= 0 <= last < first + n), R = irfft(|W|^2)."""
        if (tau, first, last) not in self._separations:
            r = np.fft.irfft(np.abs(self.reference(tau)[1]) ** 2, self.spec.num_samples)
            self._separations[tau, first, last] = 2 * (r[0] - max(
                r[1:last + 1].max(initial=-math.inf), r[len(r) + first:].max(initial=-math.inf)))
        return self._separations[tau, first, last]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b>: one np.dot of float64 arrays, else the sum of the dots of the contiguous
    real and imaginary parts, so real values give the same bits in either dtype."""
    if a.dtype.kind != "c" and b.dtype.kind != "c":
        return float(np.dot(a, b))
    return sum(float(np.dot(np.ascontiguousarray(part(a)), np.ascontiguousarray(part(b))))
               for part in (np.real, np.imag))


def _misfit_derivatives(z, w, w1, w2) -> tuple[float, float, float]:
    """(g, dg, ||w'||^2) of the misfit ||z - w||^2 / 2, given w, w' and w''.

    g = Re<z - w, w'> is the (sigma-free, sign-flipped) delay derivative of
    the log-likelihood and vanishes at the ML delay; the curvature
    dg = ||w'||^2 + Re<w - z, w''> is positive at a proper minimum. Each
    product is a _dot: float64 arrays (the estimator's Re z and replicas)
    and complex ones share one arithmetic.
    """
    d = z - w
    n1sq = _dot(w1, w1)
    return _dot(d, w1), n1sq - _dot(d, w2), n1sq


def _coarse_grid(z: np.ndarray, syntheses: _Syntheses, lo: float, hi: float,
                 centre: float) -> float:
    """Least-misfit grid delay centre + i T / phases + m T in [lo, hi] to start Newton.

    z is the real part of the received signal, which the misfit's delay
    dependence sees alone: the replica is real. The capture spans whole
    code periods, so shifting tau by m sampling periods T circularly
    shifts the replica: <w(ref + m T), z> for every m comes from one
    circular correlation against w(ref), by real FFT, and its peak (the
    first, of the first n shifts from lo: in the window tau +- P, P one code
    period, w(tau) peaks at tau - P) is the least misfit of that sub-sample
    phase. The grid passes through `centre` (m = 0 of the first phase), so
    when the peak lies there the coarse delay is `centre` exactly and its
    synthesis is shared. At four or more samples per chip one phase (the
    sample grid) suffices. Its peak is m = 0, found with no FFT of z, if m = 0
    is a window shift and 4 ||z - w_0||^2 < d^2_min (_Syntheses.separation,
    after d^2(+-1) >= d^2_min) less n _ROUNDING ||w_0||^2 for the FFT error:
    <z, w_0 - w_m> = ||w_0 - w_m||^2 / 2 + <z - w_0, w_0 - w_m> > 0. Coarser
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
    spec, layouts = syntheses.spec, syntheses.layouts
    n = len(z)
    period = spec.sampling_period
    quarter = spec.chip_duration / 4
    phases = 1 if period <= quarter else math.ceil(
        period / min(quarter, spec.pulse_smoothing / 4))
    peaks = []
    for i in range(phases):
        ref = centre + i * period / phases
        first = math.ceil((lo - ref) / period)
        last = min(math.floor((hi - ref) / period), first + n - 1)
        if phases == 1 and first <= 0 <= last:  # ref is centre
            w = syntheses.orders(ref)[0]
            e, ww, w1 = z - w, _dot(w, w), _dot(w[1:], w[:-1]) + w[0] * w[-1]  # R(0), R(1)
            radius = 4 * _dot(e, e) + n * _ROUNDING * ww  # inf on overflow
            if radius < 2 * (ww - w1) and radius < syntheses.separation(ref, first, last):
                return ref
        zf = np.fft.rfft(z) if i == 0 else zf
        w, spectrum = syntheses.reference(ref)
        corr = np.fft.irfft(zf * spectrum, n)
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
        # not through the table, which would keep all 18 refinement points
        misfits = [np.linalg.norm(z - _waveforms(spec, t, layouts)[0]) for t in taus]
        tau = float(taus[int(np.argmin(misfits))])
    return tau


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate fails the checks
def _ml_delay(z: np.ndarray, syntheses: _Syntheses,
              search_window: tuple[float, float], centre: float):
    """ML delay of a received signal from its real part z, with what the refinement saw at it.

    The coarse grid passes through `centre`. Returns (tau0, Newton passes,
    final residual |Re<w - z, w'>| / ||w'||^2 with ||w'||^2 taken at the
    coarse delay); `syntheses` holds (w, w', w'') at tau0, as at every
    iterate. The replica is real, so Re<z - w, w^(k)> = <Re z - w, w^(k)>:
    the search and the refinement read Re z only.
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

    tau = _coarse_grid(z, syntheses, lo, hi, centre)

    best_tau, best_g = tau, math.inf
    for iterations in range(1, _NEWTON_PASSES + 1):
        g, dg, n1sq = _misfit_derivatives(z, *syntheses.orders(tau))
        if iterations == 1:
            # ||w'||^2 at the coarse delay sets the convergence scale
            scale = n1sq
        if abs(g) < abs(best_g):
            best_tau, best_g = tau, g
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
    w, w1, _ = syntheses.orders(best_tau)
    if np.linalg.norm(w1) * (1e-6 * spec.chip_duration) <= _ROUNDING * np.linalg.norm(w):
        raise DelayEstimationError(
            "the samples do not resolve the delay: a millionth of a chip moves "
            "the replica by less than rounding", last_iterate=best_tau
        )
    return best_tau, iterations, abs(best_g) / scale


def ml_delay_estimate(z: SampledSignal, spec: WaveformSpec,
                      search_window: tuple[float, float]) -> float:
    """Maximum-likelihood delay: coarse correlation search plus Newton refinement.

    It searches the first n shifts from the window's low end (the window
    tau +- P, P one code period, estimates w(tau) at tau - P), with no FFT
    of z when 4 ||Re z - w(c)||^2 < ||w(c) - w(c + m T)||^2 for every other
    shift m, c the midpoint. The returned tau0 satisfies |Re<w - z, w'>| <=
    1e-9 ||w'||^2 after at most 50 Newton passes, which go on below that
    threshold while they improve, so small perturbation-induced shifts are
    resolved to machine level. Raises DelayEstimationError when no such
    point is found, or when a millionth of a chip moves the replica at tau0
    by less than rounding.
    """
    lo, hi = search_window
    return _ml_delay(z.samples.real, _Syntheses(spec), search_window, (lo + hi) / 2)[0]


def _unit_scaled(signals: list) -> tuple[list, int]:
    """(2^-e s in s's dtype for each float64 or complex128 array s, e), with e
    putting their largest real or imaginary part in [0.5, 1) (e = 0 if all are
    zero). The one rescale of M_tau, dy and every norm: exact on normal floats."""
    parts = [np.ascontiguousarray(s).view(np.float64) for s in signals]
    exponent = math.frexp(max(max(p.max(initial=0.0), -p.min(initial=0.0))
                              for p in parts))[1]
    return [np.ldexp(p, -exponent).view(s.dtype) for p, s in zip(parts, signals)], exponent


def _norm(x: np.ndarray) -> float:
    """Euclidean norm, sqrt(_dot) on x rescaled by _unit_scaled, scaled back."""
    (unit,), exponent = _unit_scaled([x])
    return math.ldexp(math.sqrt(_dot(unit, unit)), exponent)


def _magnification(z, w, w1, w2) -> float:
    """M_tau of magnification_tau on the arrays rescaled by _unit_scaled, scaled
    back (it is homogeneous of degree -1 in them): exact on normal floats."""
    (z, w, w1, w2), exponent = _unit_scaled([z, w, w1, w2])
    _, denom, n1sq = _misfit_derivatives(z, w, w1, w2)
    if abs(denom) <= 1e-12 * n1sq:  # all-zero signals too
        raise DegenerateCurvatureError("likelihood curvature vanishes; "
                                       "no first-order bound exists")
    return math.ldexp(math.sqrt(n1sq) / abs(denom), -exponent)


def magnification_tau(z: SampledSignal, w: SampledSignal,
                      w1: SampledSignal, w2: SampledSignal) -> float:
    """Delay-bias magnification M = ||w'|| / |  ||w'||^2 + Re<w - z, w''> |.

    The real part makes the denominator the actual second derivative of
    the log-likelihood (the complex-conjugate pair in the stationarity
    condition doubles the real component only). Units: seconds of delay
    per unit interference norm. By _magnification, as the delay experiment
    on its float64 Re z and replicas: on real signals the two agree bit for bit.
    """
    if not len(z) == len(w) == len(w1) == len(w2):
        raise ValueError("signal lengths differ")
    return _magnification(*(s.samples for s in (z, w, w1, w2)))


def _worst_mode(w1: np.ndarray, power: float) -> np.ndarray:
    """sqrt(power) w1 / ||w1|| in w1's dtype, ||w1|| taken on w1 rescaled by
    _unit_scaled: it cannot overflow, and is bit-exact for w1 and 2^k w1."""
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    (unit,), _ = _unit_scaled([w1])
    n1 = math.sqrt(_dot(unit, unit))
    if n1 == 0:
        raise ValueError("zero derivative signal")
    return math.sqrt(power) / n1 * unit


def worst_interference(w1: SampledSignal, power: float) -> SampledSignal:
    """The power-constrained interference maximizing the first-order delay bias.

    The bound |delta_tau| <= M ||dy|| is achieved, to first order, by dy
    parallel to the waveform derivative; this returns sqrt(power) w'/||w'||
    by _worst_mode, which worst_case_experiment calls on its float64 w'.
    """
    return SampledSignal(_worst_mode(w1.samples, power))


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
    return _experiment(_Syntheses(spec), tau_true, noise, interference.samples)


def worst_case_experiment(spec: WaveformSpec, tau_true: float, power: float,
                          sigma: float, seed: int = 0) -> TauPerturbation:
    """perturbation_experiment with dy = worst_interference(w', power), w' taken from
    its own synthesis at tau_true; the power is checked before sigma and seed."""
    syntheses = _Syntheses(spec)
    dy = _worst_mode(syntheses.orders(tau_true)[1], power)
    return _experiment(syntheses, tau_true, NoiseConfig(sigma, seed), dy)


def _experiment(syntheses: _Syntheses, tau_true: float, noise: NoiseConfig,
                dy: np.ndarray) -> TauPerturbation:
    """perturbation_experiment on a table that may already hold tau_true, with dy an
    array. The estimates and M_tau read Re z alone: z is w + in-phase noise, in float64."""
    spec = syntheses.spec
    if len(dy) != spec.num_samples:
        raise ValueError("interference length does not match spec.num_samples")
    half = spec.code_period / 2
    search_window = (tau_true - half, tau_true + half)

    with np.errstate(over="ignore"):  # _finite rejects an overflowed sample
        z = _finite(syntheses.orders(tau_true)[0] + noise.sigma * noise._blocks(len(dy), 1)[0])
    tau0, iter0, res0 = _ml_delay(z, syntheses, search_window, tau_true)
    m_tau = _magnification(z, *syntheses.orders(tau0))
    bound = m_tau * _norm(dy)

    z_pert = _finite(z + dy.real)
    tau_pert, iter_pert, res_pert = _ml_delay(z_pert, syntheses, search_window,
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
