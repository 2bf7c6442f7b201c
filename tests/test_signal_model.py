import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from navbound import signal_model
from navbound.cacode import ChipSequence, generate_ca_code
from navbound.signal_model import (DegenerateCurvatureError,
                                   DelayEstimationError, NoiseConfig,
                                   SampledSignal, WaveformSpec, _dot,
                                   _ml_delay, _norm, _Syntheses, _unit_scaled,
                                   _waveforms,
                                   default_spec, magnification_tau,
                                   ml_delay_estimate, perturbation_experiment,
                                   sample_waveform, worst_case_experiment,
                                   worst_interference)


@pytest.fixture(scope="module")
def spec():
    return default_spec(1)


@pytest.fixture(scope="module")
def tau_true(spec):
    return 0.3 * spec.code_period


def _orthogonalized(rng, spec, w1, norm):
    """Random complex interference with Re<w', dy> = 0 and given norm."""
    dy = rng.standard_normal(spec.num_samples) + 1j * rng.standard_normal(spec.num_samples)
    dy -= (np.real(np.vdot(w1.samples, dy))
           / np.real(np.vdot(w1.samples, w1.samples))) * w1.samples
    dy *= norm / np.linalg.norm(dy)
    return SampledSignal(dy)


class TestWaveform:
    def test_zero_phase_real(self, spec):
        w = sample_waveform(spec, 1.7e-4, 0)
        assert np.allclose(w.samples.imag, 0)

    def test_code_periodicity(self, spec, tau_true):
        a = sample_waveform(spec, tau_true, 0)
        b = sample_waveform(spec, tau_true + spec.code_period, 0)
        # rounding of tau + period (~1e-19 s) times the ~4e6/s chip-edge
        # slope puts the attainable agreement near 1e-12; allow margin
        assert np.allclose(a.samples, b.samples, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_finite_differences(self, order):
        # Smoothing of one chip keeps the central-difference truncation
        # error below the 1e-6 * sup|w'| tolerance at the 1e-9 s step.
        spec = default_spec(1, pulse_smoothing_chips=1.0)
        tau = 0.27 * spec.code_period
        h = 1e-9
        lower = sample_waveform(spec, tau + h, order - 1)  # t - tau shrinks
        upper = sample_waveform(spec, tau - h, order - 1)
        fd = (upper.samples - lower.samples) / (2 * h)
        exact = sample_waveform(spec, tau, order).samples
        tol = 1e-6 * np.abs(exact).max()
        assert np.abs(fd - exact).max() <= tol

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 1e305])
    def test_nonfinite_delay_raises_one_line(self, spec, tau):
        # these gave a numpy RuntimeWarning, then an IndexError
        zero = SampledSignal(np.zeros(spec.num_samples))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: sample_waveform(spec, tau, 0),
                         lambda: perturbation_experiment(spec, tau, NoiseConfig(0.0), zero)):
                with pytest.raises(ValueError, match=re.escape(
                        f"delay tau={tau!r} s is not a finite number of chips")):
                    call()

    def test_rejects_zero_smoothing(self, spec):
        with pytest.raises(ValueError):
            WaveformSpec(code=spec.code, pulse_smoothing=0.0,
                         periods=spec.periods, num_samples=spec.num_samples)

    def test_rejects_bad_order(self, spec):
        with pytest.raises(ValueError):
            sample_waveform(spec, 0.0, 3)

    @pytest.mark.parametrize("order", [True, 1.0, 2.0])
    def test_rejects_non_integer_order(self, spec, order):
        # equal to 1 or 2 but not an integer: rejected, as by every integer parameter
        with pytest.raises(ValueError, match=re.escape(
                f"derivative_order must be 0, 1 or 2, got {order}")):
            sample_waveform(spec, 0.0, order)

    def test_numpy_integer_order(self, spec, tau_true):
        assert _same_bytes(sample_waveform(spec, tau_true, np.int64(2)).samples,
                           sample_waveform(spec, tau_true, 2).samples)

    @pytest.mark.parametrize("field, value", [
        ("pulse_smoothing", math.nan), ("pulse_smoothing", math.inf),
        ("periods", 0), ("periods", -1), ("periods", 1.5), ("periods", True),
        ("num_samples", -4092), ("num_samples", 0), ("num_samples", 4092.5),
        ("num_samples", True),
        ("samples_per_chip", -1), ("samples_per_chip", 0),
        ("samples_per_chip", 1.5)])
    def test_rejects_nonfinite_or_nonpositive_field(self, spec, field, value):
        # unchecked, these fail later in the kernel or the search with an
        # IndexError, a NaN-to-integer ValueError or numpy warnings; a
        # fractional sample count gave a spec whose own waveform (rounded
        # up to whole samples) the estimator then refused
        with pytest.raises(ValueError, match=field):
            if field == "samples_per_chip":
                default_spec(1, samples_per_chip=value)
            else:
                fields = {"code": spec.code, "num_samples": spec.num_samples,
                          "pulse_smoothing": spec.pulse_smoothing,
                          "periods": spec.periods, field: value}
                WaveformSpec(**fields)


def _window_half(spec):
    """Chips on each side of a sample's own chip in the truncated sum."""
    return int(math.ceil(10.0 * spec.pulse_smoothing / spec.chip_duration))


def _sample_positions(spec, tau):
    """(chip, offset) of each sample k = 1..num_samples, one by one.

    The sampling period is periods P / N exactly, so sample k sits at
    chip k periods L / N - tau/Tc. Its chip and the remainder come from
    Python integers; the offset within the chip is remainder / N less the
    fractional part of tau/Tc, plus one where that is negative (then the
    sample lies in the chip before).
    """
    length, n, periods = len(spec.code), spec.num_samples, spec.periods
    theta = tau / spec.chip_duration
    whole = math.floor(theta)
    frac = theta - whole
    chips, offsets = [], []
    for k in range(1, n + 1):
        chip, remainder = divmod(k * periods * length, n)
        offset = remainder / n - frac
        if offset < 0:
            chip, offset = chip - 1, offset + 1.0
        chips.append((chip - whole) % length)
        offsets.append(offset)
    return np.array(chips), np.array(offsets)


# the kernel's Phi, entry by entry; scipy's ndtr is the independent Phi
# of _untruncated, _exact_reference and TestPhi
_phi = np.vectorize(lambda x: 0.5 * math.erfc(-x * math.sqrt(0.5)), otypes=[float])


def _chip_terms(spec, tau, order, half, truncate=True):
    """The (num_samples, 2 half + 1) chip terms of one order of w at kT - tau.

    A boundary i chips right of a sample's chip has argument
    (offset - i) / (s / Tc). With truncate, this is the kernel's formula:
    Phi is the kernel's _phi, and the window's two outer boundaries are
    the truncation points of the Gaussian, where Phi is 1 at the left one
    and 0 at the right one, with density 0 at both. Without it this is the
    plain formula, with scipy's ndtr as Phi. Order 1 and 2 terms are not
    yet divided by s and s^2.
    """
    chips = spec.code.chips.astype(np.float64)
    sigma = spec.pulse_smoothing / spec.chip_duration
    j0, offset = _sample_positions(spec, tau)
    i = np.arange(-half, half + 1)[None, :]
    c = chips[np.mod(j0[:, None] + i, len(chips))]
    u = (offset[:, None] - i) / sigma
    v = (offset[:, None] - (i + 1)) / sigma
    if order == 0:
        phi = _phi if truncate else ndtr
        fu, fv = phi(u), phi(v)
        if truncate:
            fu[:, 0], fv[:, -1] = 1.0, 0.0
        return c * (fu - fv)
    pu = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    pv = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    if truncate:
        pu[:, 0], pv[:, -1] = 0.0, 0.0
    return c * (pu - pv) if order == 1 else c * (-u * pu + v * pv)


def _per_order_waveform(spec, tau, order, half=None):
    """One order of w at kT - tau, from its own chip window and arguments.

    Left and right chip-boundary arguments are computed separately and
    each order is a separate pass: an independent reference for the
    shared-argument kernel, which must reproduce it bit for bit.
    """
    half = _window_half(spec) if half is None else half
    s = spec.pulse_smoothing
    return np.sum(_chip_terms(spec, tau, order, half), axis=1) / (1.0, s, s * s)[order]


def _fractional_spec():
    """3000 samples over one period: 2.93... samples per chip."""
    code = generate_ca_code(17)
    return WaveformSpec(code=code, pulse_smoothing=0.35 * code.chip_duration,
                        periods=1, num_samples=3000)


_KERNEL_CASES = {
    "prn1": (lambda: default_spec(1), 0.3),
    "prn7": (lambda: default_spec(7), 0.61),
    "prn32": (lambda: default_spec(32), 0.05),
    "chip_edge": (lambda: default_spec(4), 11 / 1023),
    "wrap_zero": (lambda: default_spec(9), 0.0),
    "wrap_period": (lambda: default_spec(9), 1.0),
    "wrap_before": (lambda: default_spec(9), -1 / 4092),
    "seven_terms": (lambda: default_spec(14, pulse_smoothing_chips=0.3), 0.52),
    "wide_smoothing": (lambda: default_spec(12, pulse_smoothing_chips=1.0), 0.27),
    "narrow_smoothing": (lambda: default_spec(6, pulse_smoothing_chips=0.01), 0.18),
    "fractional_rate": (_fractional_spec, 0.43),
    # half = 40: the window wraps the 3-chip code many times, over 3 periods
    "wrapping_window": (lambda: _short_spec(3, 3, 3, 20, 4.0), 0.37),
    "two_periods": (lambda: _short_spec(21, 1023, 2, 8184, 0.1), 0.71),
    # tau / Tc is past the int64 range
    "huge_delay": (lambda: default_spec(3), 1e23),
}


def _same_bytes(got, want):
    """Equal shape, dtype and bytes: signs of zeros count, unlike ==."""
    return got.shape == want.shape and got.dtype == want.dtype \
        and got.tobytes() == want.tobytes()


class TestFusedKernel:
    """The one-pass kernel against the per-order reference, compared bytewise."""

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_bit_identical_to_per_order_formula(self, case):
        make, frac = _KERNEL_CASES[case]
        spec = make()
        tau = frac * spec.code_period
        ref = [_per_order_waveform(spec, tau, order) for order in (0, 1, 2)]
        if case == "wide_smoothing":
            assert spec.pulse_smoothing / spec.chip_duration == 1.0  # half > 2
        # the two ways of summing a window's 2 half + 1 chip terms: the
        # widest window below 8 terms, and the narrowest above it
        if case == "seven_terms":
            assert _window_half(spec) == 3  # 10 s / Tc is exactly 3.0
        if case == "fractional_rate":
            assert _window_half(spec) == 4  # 10 s / Tc is 3.5
        if case == "narrow_smoothing":
            # densities underflow mid-chip, so w' is exactly zero there; in
            # a run of -1 chips every term is -0.0, and the sum is +0.0
            assert np.any(ref[1] == 0)
        for order in (0, 1, 2):
            # the public wrapper's complex cast keeps the sign of a zero
            assert _same_bytes(sample_waveform(spec, tau, order).samples,
                               ref[order].astype(np.complex128))
        fused = _waveforms(spec, tau, {})
        for got, want in zip(fused, ref):
            assert _same_bytes(got, want)

    @settings(max_examples=50, deadline=None)
    @given(prn=st.integers(1, 32), length=st.integers(5, 300),
           # windows of 3 to 7 chips, narrow enough to key on sign bits, or wider
           smoothing=st.one_of(st.floats(0.05, 0.3), st.floats(0.3, 3.0)),
           samples_per_chip=st.integers(1, 5),
           periods=st.integers(1, 3), trim=st.integers(0, 2),
           frac=st.floats(-1.0, 2.0), on_edge=st.booleans())
    def test_bit_identical_property(self, prn, length, smoothing, samples_per_chip,
                                    periods, trim, frac, on_edge):
        # A truncated C/A code keeps each example small; codes shorter than
        # the chip window wrap more than once. A trimmed sample count puts
        # the samples off the chip grid, often one that periods does not
        # divide, where every sample of a period is its own table entry.
        code = ChipSequence(generate_ca_code(prn).chips[:length])
        tc = code.chip_duration
        n = length * samples_per_chip * periods - trim
        spec = WaveformSpec(code=code, pulse_smoothing=smoothing * tc,
                            periods=periods, num_samples=n)
        # tau in [-P, 2P], on a chip edge or anywhere
        tau = round(frac * length) * tc if on_edge else frac * code.period
        got = _waveforms(spec, tau, {})
        assert len(got) == 3
        for order, samples in enumerate(got):
            assert _same_bytes(samples, _per_order_waveform(spec, tau, order))

    @pytest.mark.parametrize("periods", [2, 5, 20])
    def test_periods_tile_one_period(self, periods):
        # K whole code periods are K copies of one period's samples: the
        # one-period synthesis tiled K times, byte for byte
        for prn in range(1, 33):
            one = default_spec(prn)
            spec = WaveformSpec(code=one.code, pulse_smoothing=one.pulse_smoothing,
                                periods=periods, num_samples=periods * one.num_samples)
            for frac in (0.3, 0.71):
                tau = frac * one.code_period
                for got, want in zip(_waveforms(spec, tau, {}),
                                     _waveforms(one, tau, {})):
                    assert _same_bytes(got, np.tile(want, periods)), (prn, frac)

    def test_chip_edge_case_hits_boundaries(self):
        # The chip_edge delay puts every fourth sample on a chip boundary.
        spec = default_spec(4)
        t = np.arange(1, spec.num_samples + 1) * spec.sampling_period \
            - 11 / 1023 * spec.code_period
        frac = np.mod(t, spec.code_period) / spec.chip_duration
        assert np.sum(np.abs(frac - np.round(frac)) < 1e-9) >= spec.num_samples // 4


# |_phi - ndtr| / ndtr on 4e5 seeded arguments in [-10, 10] measured at
# most 4.2e-15 to 4.5e-15 (glibc 2.36 erfc, scipy 1.17.1), about 20 eps
_PHI_RTOL = 4.5e-15


class TestPhi:
    """The kernel's Phi, 0.5 erfc(-x / sqrt 2), against scipy's ndtr.

    _phi is the kernel's Phi: TestFusedKernel checks the kernel's order 0
    byte for byte against _chip_terms, which evaluates Phi with it.
    """

    def test_matches_ndtr_on_random_arguments(self):
        x = np.random.default_rng(27).uniform(-10.0, 10.0, 100_000)
        ref = ndtr(x)
        assert np.all(np.abs(_phi(x) - ref) <= _PHI_RTOL * ref)

    def test_matches_ndtr_on_table_arguments(self):
        # every inner boundary argument the kernel's table takes for PRN
        # 1-32 at the default spec, at the CLI's delay and seeded ones
        rng = np.random.default_rng(32)
        args = []
        for prn in range(1, 33):
            spec = default_spec(prn)
            half = _window_half(spec)
            inner = np.arange(1 - half, half + 1)
            sigma = spec.pulse_smoothing / spec.chip_duration
            for frac in (0.3, *rng.uniform(0.0, 1.0, 2)):
                _, offset = _sample_positions(spec, frac * spec.code_period)
                args.append(np.unique((offset[:, None] - inner) / sigma))
        x = np.concatenate(args)
        ref = ndtr(x)
        assert np.all(np.abs(_phi(x) - ref) <= _PHI_RTOL * ref)

    def test_fixed_points_monotonicity_and_symmetry(self):
        assert _phi(0.0) == 0.5
        assert _phi(-40.0) == 0.0
        assert _phi(40.0) == 1.0
        x = np.arange(-400_000, 400_001) * 1e-4
        phi = _phi(x)
        assert np.all(np.diff(phi) >= 0.0)
        assert np.all(np.abs(phi + phi[::-1] - 1.0) <= np.finfo(float).eps)


def _untruncated(spec, tau, order):
    """One order of w from the plain formula over half + 4 chips a side, and
    the per-sample bound on its distance from the kernel.

    Against the infinite chip sum, the kernel's truncation at its outer
    boundaries (|u| >= 10) costs at most 2 F(10) a side: the dropped tail
    telescopes to at most F(10), and the outer value set to 1 or 0 moves by
    as much. F(u) is Phi(-u) for w, phi(u)/s for w' and u phi(u)/s^2 for
    w'' (u phi(u) falls monotonically past u = 1). The reference only drops
    its tails, past 10 + 4 Tc/s: F(10 + 4 Tc/s) a side. The two row sums
    (at most n terms each) and the division by s or s^2 round apart by at
    most (n + 1) eps sum|term|; the bound allows twice that.
    """
    terms = _chip_terms(spec, tau, order, _window_half(spec) + 4, truncate=False)
    return _untruncated_bound(spec, order, terms)


def _untruncated_bound(spec, order, terms):
    """_untruncated's reference and bound from its (num_samples, n) terms."""
    s = spec.pulse_smoothing
    scale = (1.0, s, s * s)[order]

    def tail(u):
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return (ndtr(-u), pdf / s, u * pdf / (s * s))[order]

    truncation = 4 * tail(10.0) + 2 * tail(10.0 + 4 * spec.chip_duration / s)
    n = terms.shape[1]
    rounding = 2 * (n + 1) * np.finfo(float).eps * np.sum(np.abs(terms), axis=1) / scale
    return np.sum(terms, axis=1) / scale, truncation + rounding


# smoothing in chips for PRN 1-7; the other PRNs draw theirs log-uniformly
_TRUNCATION_SMOOTHINGS = (0.01, 0.1, 0.2, 0.3, 0.35, 1.0, 3.0)


class TestTruncation:
    """The kernel's 10 s truncation against the untruncated chip sum."""

    @pytest.mark.parametrize("prn", range(1, 33))
    def test_within_bound_of_untruncated_sum(self, prn):
        rng = np.random.default_rng(prn)
        smoothing = (_TRUNCATION_SMOOTHINGS[prn - 1] if prn <= 7
                     else math.exp(rng.uniform(math.log(0.01), math.log(3.0))))
        spec = default_spec(prn, pulse_smoothing_chips=smoothing,
                            samples_per_chip=int(rng.integers(1, 6)))
        period, tc = spec.code_period, spec.chip_duration
        taus = (rng.uniform(-period, 2 * period),  # anywhere
                int(rng.integers(-1023, 2047)) * tc,  # on a chip edge
                (0.0, period, -spec.sampling_period)[prn % 3])  # at a wrap
        for tau in taus:
            for order, got in zip((0, 1, 2), _waveforms(spec, tau, {})):
                ref, bound = _untruncated(spec, tau, order)
                assert got.dtype == np.float64
                assert np.all(np.abs(got - ref) <= bound), (tau, order)

    @pytest.mark.parametrize("smoothing", [0.01, 0.1, 0.2, 0.3])
    def test_bound_detects_one_chip_narrower_window(self, smoothing):
        # Truncating a chip closer puts the outer boundaries as near as
        # 10 s - Tc to a sample, and the bound above catches that.
        spec = default_spec(5, pulse_smoothing_chips=smoothing)
        tau = 0.41 * spec.code_period
        for order in (0, 1, 2):
            ref, bound = _untruncated(spec, tau, order)
            narrow = _per_order_waveform(spec, tau, order, _window_half(spec) - 1)
            assert np.any(np.abs(narrow - ref) > bound), order

    @pytest.mark.parametrize("make, phases, half", [
        pytest.param(lambda: default_spec(1), 4, 1, id="default"),
        pytest.param(lambda: default_spec(1, samples_per_chip=1), 1, 1,
                     id="one_per_chip"),
        pytest.param(_fractional_spec, 1000, 4, id="fractional_rate")])
    def test_phi_and_density_once_per_phase(self, monkeypatch, make, phases, half):
        # One argument per inner chip boundary and sub-chip sample phase:
        # 2 x 4 at the default spec, not 2 per sample. The window's outer
        # boundaries never reach erfc or exp.
        calls = {"erfc": 0, "exp": []}
        real_erfc, real_exp = math.erfc, np.exp

        def erfc(x):
            calls["erfc"] += 1
            return real_erfc(x)

        def exp(arg, out=None):
            calls["exp"].append(arg.size)
            return real_exp(arg, out=out)

        monkeypatch.setattr(math, "erfc", erfc)
        monkeypatch.setattr(np, "exp", exp)
        spec = make()
        assert _window_half(spec) == half
        tau = 0.3 * spec.code_period
        args = 2 * half * phases

        _waveforms(spec, tau, {})
        assert calls == {"erfc": args, "exp": [args]}


def _short_spec(prn, length, periods, num_samples, smoothing):
    """A C/A code cut to `length` chips, sampled num_samples times over
    `periods` periods, at `smoothing` chips."""
    code = ChipSequence(generate_ca_code(prn).chips[:length])
    return WaveformSpec(code=code, pulse_smoothing=smoothing * code.chip_duration,
                        periods=periods, num_samples=num_samples)


def _exact_reference(spec, tau):
    """Orders 0, 1, 2 of w at exact sample positions, each with the
    per-sample bound on the kernel's distance from it.

    Sample k sits at chip k periods L / N - tau/Tc, a Fraction of the
    floats tau and Tc. Each boundary argument u = (position - boundary) /
    (s/Tc) is exact before its one rounding to a float. The chip sum is the
    plain formula over half + 4 chips a side, as in _untruncated.

    The kernel's position of a sample is off by at most delta =
    eps/2 (|tau/Tc| + 4) chips: eps/2 |tau/Tc| from rounding tau/Tc, and
    at most eps/2 each (all four are below one in magnitude) from the
    fractional part of tau/Tc, its phase's R/q, their difference and the
    one added to a negative offset. Its b = (offset - r) / (s/Tc) rounds
    the difference, s/Tc and the quotient, and the reference rounds u
    once, so the two arguments of a boundary differ by at most
    D = delta / (s/Tc) + 3 eps |u|. The boundary's value F (Phi, phi or
    u phi for orders 0, 1, 2) then moves by at most |F'(u)| D + D^2 / 2
    (|F''| < 1 for all three), and each side evaluates it with relative
    error at most 4 eps, plus eps u^2 / 2 for the density, whose exponent
    -u^2/2 is rounded. A boundary enters two chip terms with chips c and
    -c', so with weight at most 2. To that add the truncation and
    summation rounding terms of _untruncated, and eps sum|term| for the
    rounding of each term's difference, on both sides.
    """
    eps = np.finfo(float).eps
    length, n, periods = len(spec.code), spec.num_samples, spec.periods
    s = spec.pulse_smoothing
    theta = Fraction(tau) / Fraction(spec.chip_duration)
    per_sigma = Fraction(spec.chip_duration) / Fraction(s)
    half = _window_half(spec) + 4
    j0, u = [], []
    for k in range(1, n + 1):
        x = (Fraction(k * periods * length, n) - theta) % length
        j = math.floor(x)
        j0.append(j)
        u.append([float((x - j - i) * per_sigma) for i in range(-half, half + 2)])
    u = np.array(u)
    chips = spec.code.chips.astype(np.float64)
    c = chips[np.mod(np.array(j0)[:, None] + np.arange(-half, half + 1), length)]
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    delta = eps / 2 * (abs(float(theta)) + 4)
    slack = delta * float(per_sigma) + 3 * eps * np.abs(u)
    values = (ndtr(u), pdf, u * pdf)
    slopes = (pdf, -u * pdf, (1 - u * u) * pdf)
    out = []
    for order in (0, 1, 2):
        f = values[order]
        terms = c * (f[:, 1:] - f[:, :-1] if order == 2 else f[:, :-1] - f[:, 1:])
        scale = (1.0, s, s * s)[order]
        evaluation = eps * (4 + (order > 0) * u * u / 2) * np.abs(f)
        arguments = np.sum(2 * (np.abs(slopes[order]) * slack + slack ** 2 / 2)
                           + 4 * evaluation, axis=1)
        _, untruncated = _untruncated_bound(spec, order, terms)
        differences = eps * np.sum(np.abs(terms), axis=1) / scale
        out.append((np.sum(terms, axis=1) / scale,
                    untruncated + differences + arguments / scale))
    return out


_EXACT_CASES = {
    "prn1": (lambda: default_spec(1), 0.3),
    "prn17_wide": (lambda: default_spec(17, pulse_smoothing_chips=0.3), 0.3),
    "fractional_rate": (_fractional_spec, 0.43),
    # the window is wider than the 7-chip code
    "wider_than_code": (lambda: _short_spec(5, 7, 2, 70, 3.0), -1.37),
    # 1.86 chips per sample
    "coarse": (lambda: _short_spec(23, 31, 3, 50, 0.2), 2.6),
    "one_sample": (lambda: _short_spec(9, 5, 1, 1, 0.5), 0.77),
    "chip_edge": (lambda: _short_spec(30, 11, 1, 33, 0.05), 4 / 11),
    "far_delay": (lambda: _short_spec(12, 13, 1, 52, 0.1), 1000.25),
}


class TestExactPositions:
    """The kernel against w at exact rational sample positions."""

    @pytest.mark.parametrize("case", sorted(_EXACT_CASES))
    def test_within_bound_of_exact_positions(self, case):
        make, frac = _EXACT_CASES[case]
        spec = make()
        tau = frac * spec.code_period
        got = _waveforms(spec, tau, {})
        for order, (ref, bound) in enumerate(_exact_reference(spec, tau)):
            assert np.all(np.abs(got[order] - ref) <= bound), order


@pytest.mark.parametrize("sigma", [0.0, 0.01])
@pytest.mark.parametrize("seed", [-1, 1.5, True, None])
def test_noise_seed_must_be_non_negative_integer(sigma, seed):
    # a negative seed used to pass at sigma 0 and fail inside numpy otherwise
    with pytest.raises(ValueError, match="seed"):
        NoiseConfig(sigma=sigma, seed=seed)


class TestInnerProduct:
    def test_requires_equal_length(self, spec):
        a = SampledSignal(np.ones(4))
        b = SampledSignal(np.ones(5))
        with pytest.raises(ValueError, match="lengths differ"):
            a + b

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([1.0, np.nan]))

    def test_strided_samples_accepted(self):
        # every other sample of an array: a strided view, stored contiguous
        strided = (np.arange(8) + 1j)[::2]
        signal = SampledSignal(strided)
        assert signal.samples.flags.c_contiguous
        assert signal.samples.tobytes() == strided.copy().tobytes()
        dy = worst_interference(signal, 2.0)
        want = worst_interference(SampledSignal(strided.copy()), 2.0)
        assert dy.samples.tobytes() == want.samples.tobytes()
        assert dy.norm() ** 2 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("samples", [1 + 1j, np.ones((2, 3))])
    def test_samples_not_1d_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be 1-D"):
            SampledSignal(samples)


class TestMlDelayEstimate:
    def test_noise_free_consistency(self, spec, tau_true):
        z = sample_waveform(spec, tau_true, 0)
        est = ml_delay_estimate(z, spec, (0.0, spec.code_period))
        assert abs(est - tau_true) <= 1e-3 * spec.chip_duration

    def test_orthogonal_interference_second_order(self, spec, tau_true):
        rng = np.random.default_rng(7)
        z0 = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        w2 = sample_waveform(spec, tau_true, 2)
        norm = 1e-3 * z0.norm()
        dy = _orthogonalized(rng, spec, w1, norm)
        z = z0 + dy
        est = ml_delay_estimate(z, spec, (0.0, spec.code_period))
        m_tau = magnification_tau(z0, z0, w1, w2)
        assert abs(est - tau_true) <= 1e-2 * m_tau * norm

    def test_one_sample_per_chip(self):
        # the FFT grid would be a whole chip apart here; the coarse search
        # must step a quarter chip and narrow about its best point
        spec = default_spec(1, samples_per_chip=1)
        tau = 0.3 * spec.code_period
        est = ml_delay_estimate(sample_waveform(spec, tau, 0), spec,
                                (0.0, spec.code_period))
        assert abs(est - tau) <= 1e-6 * spec.chip_duration

    def test_seeded_delays_one_sample_per_chip(self):
        # At one sample per chip every sample sits at the same chip phase;
        # the misfit's dip at the true delay can be far narrower than a
        # quarter chip, beside a shoulder. Delays 8, 9 and 14 of this draw
        # used to come back 0.60-0.69 chip off with no error.
        spec = default_spec(3, samples_per_chip=1)
        tc = spec.chip_duration
        for frac in np.random.default_rng(11).uniform(0.0, 1.0, 200)[6:16]:
            tau = frac * spec.code_period
            est = ml_delay_estimate(sample_waveform(spec, tau, 0), spec,
                                    (tau - 6.3 * tc, tau + 5.1 * tc))
            assert abs(est - tau) <= 1e-6 * tc

    def test_unresolvable_delay_raises(self):
        # At 0.05-chip smoothing and one sample per chip, with every sample
        # half a chip from the nearest boundary, the replica does not change
        # with the delay to double precision: no delay can be told apart.
        spec = default_spec(3, pulse_smoothing_chips=0.05, samples_per_chip=1)
        tc = spec.chip_duration
        tau = spec.sampling_period + 299.5 * tc
        z = sample_waveform(spec, tau, 0)
        for shift in (-0.05 * tc, 0.05 * tc):
            assert np.array_equal(sample_waveform(spec, tau + shift, 0).samples,
                                  z.samples)
        with pytest.raises(DelayEstimationError, match="do not resolve the delay"):
            ml_delay_estimate(z, spec, (tau - 6.3 * tc, tau + 5.1 * tc))

    @pytest.mark.parametrize("samples_per_chip", [2, 3])
    def test_seeded_delays_below_four_samples_per_chip(self, samples_per_chip):
        spec = default_spec(3, samples_per_chip=samples_per_chip)
        tc = spec.chip_duration
        for frac in np.random.default_rng(5).uniform(0.0, 1.0, 20):
            tau = frac * spec.code_period
            est = ml_delay_estimate(sample_waveform(spec, tau, 0), spec,
                                    (tau - 6.3 * tc, tau + 5.1 * tc))
            assert abs(est - tau) <= 1e-6 * tc

    @pytest.mark.parametrize("samples_per_chip", [1, 2, 4])
    def test_seeded_delays_two_period_capture(self, samples_per_chip):
        # a delay shift of m samples is circular over any whole number of
        # periods, so the FFT search serves multi-period captures too
        code = generate_ca_code(3)
        n = 2 * len(code) * samples_per_chip
        spec = WaveformSpec(code=code, pulse_smoothing=0.1 * code.chip_duration,
                            periods=2, num_samples=n)
        tc = spec.chip_duration
        for frac in np.random.default_rng(23).uniform(0.0, 1.0, 5):
            tau = frac * spec.code_period
            est = ml_delay_estimate(sample_waveform(spec, tau, 0), spec,
                                    (tau - 6.3 * tc, tau + 5.1 * tc))
            assert abs(est - tau) <= 1e-6 * tc

    def test_reads_real_part_only(self, spec, tau_true):
        # The replica is real, so Re<z - w, w'> = <Re z - w, w'>: the
        # imaginary part of z cannot move the estimate by a bit.
        rng = np.random.default_rng(31)
        w = sample_waveform(spec, tau_true, 0)
        tc = spec.chip_duration
        window = (tau_true - 300.2 * tc, tau_true + 411.7 * tc)
        for sigma in (0.01, 0.3, 2.0):
            z = w + SampledSignal(NoiseConfig(sigma, seed=int(rng.integers(1000)))
                                  .sample(spec.num_samples))
            real = SampledSignal(z.samples.real)
            assert ml_delay_estimate(z, spec, window).hex() \
                == ml_delay_estimate(real, spec, window).hex()

    @pytest.mark.parametrize("periods, per_chip", [(1, 1), (2, 4), (3, 2)],
                             ids=["odd_length", "two_periods", "three_periods"])
    def test_coarse_correlation_matches_rolled_replica(self, monkeypatch,
                                                       periods, per_chip):
        # The real-FFT correlation against each coarse reference w, for
        # every shift m, against the sum Re<roll(w, m), z> taken directly;
        # and roll(w, m) against the replica synthesized m sampling periods
        # on, so the grid steps by the T the kernel samples at
        code = generate_ca_code(11)
        n = periods * len(code) * per_chip
        spec = WaveformSpec(code=code, pulse_smoothing=0.1 * code.chip_duration,
                            periods=periods, num_samples=n)
        tau = 0.37 * spec.code_period
        z = sample_waveform(spec, tau, 0).samples \
            + NoiseConfig(0.3, seed=periods).sample(n)
        references, correlations, in_separation = [], [], []
        reference, separation = _Syntheses.reference, _Syntheses.separation
        irfft = np.fft.irfft

        def recorded_reference(self, tau):
            got = reference(self, tau)
            references.append((tau, got[0]))
            return got

        def recorded_separation(self, *args):
            in_separation.append(True)  # its irfft is no correlation of z
            try:
                return separation(self, *args)
            finally:
                in_separation.pop()

        def recorded_irfft(*args):
            got = irfft(*args)
            if not in_separation:
                correlations.append(got)
            return got

        monkeypatch.setattr(_Syntheses, "reference", recorded_reference)
        monkeypatch.setattr(_Syntheses, "separation", recorded_separation)
        monkeypatch.setattr(np.fft, "irfft", recorded_irfft)
        ml_delay_estimate(SampledSignal(z), spec,
                          (tau - 0.5 * spec.code_period, tau + 0.5 * spec.code_period))
        assert len(references) == len(correlations) >= 1
        for ref, w in references:
            for m in (-1, 1, 7, n // 3, n - 1):
                shifted = _waveforms(spec, ref + m * spec.sampling_period, {})[0]
                assert np.max(np.abs(shifted - np.roll(w, m))) <= 1e-11
        for (_, w), corr in list(zip(references, correlations))[:3]:
            assert len(corr) == n
            direct = [np.real(np.vdot(np.roll(w, m), z)) for m in range(n)]
            scale = np.linalg.norm(w) * np.linalg.norm(z)
            assert np.max(np.abs(corr - direct)) <= 1e-12 * scale

    def test_window_too_narrow(self, spec):
        z = sample_waveform(spec, 0.0, 0)
        with pytest.raises(DelayEstimationError):
            ml_delay_estimate(z, spec, (0.0, spec.chip_duration))

    @pytest.mark.parametrize("window", [(0.0, math.inf), (0.0, math.nan),
                                        (-math.inf, 1e-3), (math.nan, 1e-3)],
                             ids=["hi_inf", "hi_nan", "lo_minus_inf", "lo_nan"])
    def test_nonfinite_window_rejected(self, spec, window):
        # unchecked, these reach the FFT search and fail there with an
        # OverflowError, a NaN-to-integer ValueError or an IndexError
        z = sample_waveform(spec, 0.0, 0)
        with pytest.raises(ValueError, match="must be finite"):
            ml_delay_estimate(z, spec, window)

    def test_signal_length_must_match_spec(self, spec):
        z = SampledSignal(np.ones(spec.num_samples - 1))
        with pytest.raises(ValueError, match="does not match spec.num_samples"):
            ml_delay_estimate(z, spec, (0.0, spec.code_period))

    @pytest.mark.parametrize("passes", [1, 2])
    def test_too_few_newton_passes_raise(self, spec, tau_true, monkeypatch,
                                         passes):
        z = sample_waveform(spec, tau_true, 0).samples
        z = z + NoiseConfig(sigma=0.05, seed=3).sample(len(z))
        window = (0.0, spec.code_period)
        # the Newton iterates, by hand from the coarse delay, on Re z
        taus = [signal_model._coarse_grid(np.ascontiguousarray(z.real),
                                          _Syntheses(spec), *window,
                                          spec.code_period / 2)]
        slopes = []
        for _ in range(passes):
            g, dg, _ = signal_model._misfit_derivatives(
                z.real, *_waveforms(spec, taus[-1], {}))
            slopes.append(abs(g))
            taus.append(taus[-1] - g / dg)
        monkeypatch.setattr(signal_model, "_NEWTON_PASSES", passes)
        with pytest.raises(DelayEstimationError,
                           match=f"^stationarity residual above tolerance "
                                 f"after {passes} Newton passes$") as info:
            ml_delay_estimate(SampledSignal(z), spec, window)
        assert info.value.last_iterate == taus[int(np.argmin(slopes))]

    def test_three_newton_passes_converge(self, spec, tau_true, monkeypatch):
        z = sample_waveform(spec, tau_true, 0)
        z = z + SampledSignal(NoiseConfig(sigma=0.05, seed=3).sample(len(z)))
        monkeypatch.setattr(signal_model, "_NEWTON_PASSES", 3)
        _, passes, residual = _ml_delay(z.samples.real, _Syntheses(spec),
                                        (0.0, spec.code_period),
                                        spec.code_period / 2)
        assert passes == 3
        assert residual <= 1e-9

    def test_stationarity_residual(self, spec, tau_true):
        z = sample_waveform(spec, tau_true, 0)
        zp = SampledSignal(
            z.samples + NoiseConfig(sigma=0.05, seed=3).sample(len(z)))
        est = ml_delay_estimate(zp, spec, (0.0, spec.code_period))
        w = sample_waveform(spec, est, 0)
        w1 = sample_waveform(spec, est, 1)
        g = np.real(np.vdot(zp.samples - w.samples, w1.samples))
        assert abs(g) <= 1e-9 * np.real(np.vdot(w1.samples, w1.samples))


class TestCertifiedPeak:
    """The coarse search's short-cut: when 4 ||z - w(centre)||^2 is below the
    least ||w - roll(w, m)||^2 over the window's other shifts, the search
    returns the centre with no FFT of z, and that is the peak of the
    correlation summed directly over every window shift."""

    @staticmethod
    def window(spec, lo, hi, centre):
        """The window's shifts m, centre + m T in [lo, hi], the first n from lo."""
        period, n = spec.sampling_period, spec.num_samples
        first = math.ceil((lo - centre) / period)
        return range(first, min(math.floor((hi - centre) / period), first + n - 1) + 1)

    @staticmethod
    def oracle(z, w, shifts):
        """(first shift of the largest direct sum <z, roll(w, m)>, least
        ||w - roll(w, m)||^2 over the shifts m != 0 and its shift)."""
        corr = [np.dot(z, np.roll(w, m)) for m in shifts]
        d2 = [(np.dot(w - np.roll(w, m), w - np.roll(w, m)), m) for m in shifts if m]
        return shifts[int(np.argmax(corr))], min(d2)

    @staticmethod
    def search(monkeypatch, z, spec, lo, hi, centre):
        """(_coarse_grid's delay, whether it ran an FFT of z)."""
        rfft, of_z = np.fft.rfft, []

        def recorded(x, *args, **kwargs):
            of_z.append(x is z)
            return rfft(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "rfft", recorded)
            with np.errstate(over="ignore"):
                tau = signal_model._coarse_grid(z, _Syntheses(spec), lo, hi, centre)
        return tau, any(of_z)

    @pytest.mark.parametrize("prn, periods, tau", [
        (1, 1, 0.37), (5, 1, 0.004), (11, 1, 0.81), (32, 1, 0.5),
        (7, 2, 0.23), (19, 3, 0.66)],
        ids=["prn1", "prn5", "prn11", "prn32", "two_periods", "three_periods"])
    def test_agrees_with_direct_sum(self, monkeypatch, prn, periods, tau):
        # 42 signals per capture, 252 in all: 20 random directions at 0.9
        # and 1.1 of the radius d_min / 2, and the midpoint between w_0 and
        # its nearest shift w_1, moved by 1e-3 (w_0 - w_1) either way. A
        # capture of 2 or 3 periods repeats w every n / periods samples,
        # outside the one-period window: d^2_min is the window's.
        spec = _short_spec(prn, 63, periods, periods * 63 * 4, 0.1)
        assert self.check(monkeypatch, spec, tau * spec.code_period, prn) in (-1, 1)

    def test_nearest_shift_far_from_one(self, monkeypatch):
        # Alternating chips repeat every 2 chips but at the seam: w's nearest
        # shift is 8 samples away, far closer than +-1, so d^2(+-1) alone
        # would certify signals whose peak lies at that shift.
        code = ChipSequence(np.array([1, -1] * 31 + [1]))
        spec = WaveformSpec(code=code, pulse_smoothing=0.1 * code.chip_duration,
                            periods=1, num_samples=252)
        assert abs(self.check(monkeypatch, spec, 0.4 * spec.code_period, 8)) == 8

    def check(self, monkeypatch, spec, tau, seed):
        """Run the 42 signals about w(tau) through the search against the
        oracle; return w's nearest shift in the window."""
        lo, hi = tau - spec.code_period / 2, tau + spec.code_period / 2
        shifts = self.window(spec, lo, hi, tau)
        w = _waveforms(spec, tau, {})[0]
        n = spec.num_samples
        assert np.array_equal(np.roll(w, n // spec.periods), w)
        _, (d2, nearest) = self.oracle(w, w, shifts)
        radius = math.sqrt(d2) / 2
        w1 = np.roll(w, nearest)
        rng = np.random.default_rng(seed)
        signals = [(w + scale * radius * u / np.linalg.norm(u), scale < 1)
                   for u in rng.standard_normal((20, n)) for scale in (0.9, 1.1)]
        signals += [((w + w1) / 2 + eps * (w - w1), eps > 0) for eps in (1e-3, -1e-3)]
        for z, inside in signals:
            m, _ = self.oracle(z, w, shifts)
            got, ran_fft = self.search(monkeypatch, z, spec, lo, hi, tau)
            assert ran_fft != inside
            assert got == tau + m * spec.sampling_period
            if inside:
                assert got == tau
        # the midpoint moved towards w_1 peaks there
        assert self.oracle(signals[-1][0], w, shifts)[0] == nearest
        return nearest

    def test_window_without_centre(self, monkeypatch):
        # m = 0 is no shift of a window beside the centre: the search keeps
        # to the window, even at z = w(centre)
        spec = _short_spec(3, 63, 1, 252, 0.1)
        tau = 0.4 * spec.code_period
        for lo, hi in [(tau + 0.1 * spec.code_period, tau + 0.6 * spec.code_period),
                       (tau - 0.6 * spec.code_period, tau - 0.1 * spec.code_period)]:
            z = _waveforms(spec, tau, {})[0]
            m, _ = self.oracle(z, z, self.window(spec, lo, hi, tau))
            got, ran_fft = self.search(monkeypatch, z, spec, lo, hi, tau)
            assert ran_fft and lo <= got == tau + m * spec.sampling_period <= hi

    def test_overflow_takes_fft_path(self, monkeypatch):
        spec = _short_spec(3, 63, 1, 252, 0.1)
        tau = 0.4 * spec.code_period
        lo, hi = tau - spec.code_period / 2, tau + spec.code_period / 2
        w = _waveforms(spec, tau, {})[0]
        z = w + 1e200 * np.random.default_rng(3).standard_normal(len(w))
        m, _ = self.oracle(z, w, self.window(spec, lo, hi, tau))
        got, ran_fft = self.search(monkeypatch, z, spec, lo, hi, tau)
        assert ran_fft and got == tau + m * spec.sampling_period

    @pytest.mark.parametrize("prn", [5, 13])
    def test_window_wider_than_a_period(self, monkeypatch, prn):
        # The window tau +- P holds 2 n + 1 shifts; the search takes the
        # first n from its low end, -n .. -1, so m = 0 is none of them and
        # the short-cut stands aside, even at z = w(tau): the peak is the
        # earliest, shift -n, at tau - P.
        spec = default_spec(prn)
        tau, period = 0.37 * spec.code_period, spec.code_period
        lo, hi = tau - period, tau + period
        shifts = self.window(spec, lo, hi, tau)
        assert (shifts[0], shifts[-1]) == (-spec.num_samples, -1)
        z = _waveforms(spec, tau, {})[0]
        got, ran_fft = self.search(monkeypatch, z, spec, lo, hi, tau)
        assert ran_fft and got == tau - spec.num_samples * spec.sampling_period
        estimate = ml_delay_estimate(SampledSignal(z), spec, (lo, hi))
        assert abs(estimate - (tau - period)) <= 1e-6 * spec.chip_duration


class TestMagnificationTau:
    def test_clean_signal(self, spec, tau_true):
        w = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        w2 = sample_waveform(spec, tau_true, 2)
        assert magnification_tau(w, w, w1, w2) == pytest.approx(1 / w1.norm())

    def test_amplitude_homogeneity(self, spec, tau_true):
        w = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        w2 = sample_waveform(spec, tau_true, 2)
        z = SampledSignal(w.samples * 1.01)
        m = magnification_tau(z, w, w1, w2)
        c = 3.7
        m_scaled = magnification_tau(z.scaled(c), w.scaled(c),
                                     w1.scaled(c), w2.scaled(c))
        assert m_scaled == pytest.approx(m / c, rel=1e-12)

    def test_global_phase_invariance(self, spec, tau_true):
        w = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        w2 = sample_waveform(spec, tau_true, 2)
        z = SampledSignal(
            w.samples + NoiseConfig(sigma=0.02, seed=5).sample(len(w)))
        m = magnification_tau(z, w, w1, w2)
        rot = np.exp(1.234j)
        m_rot = magnification_tau(z.scaled(rot), w.scaled(rot),
                                  w1.scaled(rot), w2.scaled(rot))
        assert m_rot == pytest.approx(m, rel=1e-12)

    def test_degenerate_curvature(self, spec, tau_true):
        w = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        w2 = sample_waveform(spec, tau_true, 2)
        # pick z so that Re<w - z, w''> cancels ||w'||^2 exactly
        n1sq = np.real(np.vdot(w1.samples, w1.samples))
        n2sq = np.real(np.vdot(w2.samples, w2.samples))
        z = SampledSignal(w.samples + (n1sq / n2sq) * w2.samples)
        with pytest.raises(DegenerateCurvatureError):
            magnification_tau(z, w, w1, w2)
        # all-zero signals: 0 / 0 raised ZeroDivisionError
        zero = SampledSignal(np.zeros(spec.num_samples))
        with pytest.raises(DegenerateCurvatureError):
            magnification_tau(zero, zero, zero, zero)

    @pytest.mark.parametrize("c", [1e150, 1e-164, 1e-170])
    def test_homogeneity_past_overflow_and_underflow(self, spec, tau_true, c):
        # ||w'||^2 overflowed to inf at 1e150 and gave NaN, with no warning;
        # at 1e-170 the squares underflowed to 0 and M divided by zero; at
        # 1e-164 they are subnormal and M was off by 2e-10
        w, w1, w2 = (sample_waveform(spec, tau_true, k) for k in (0, 1, 2))
        z = SampledSignal(
            w.samples + NoiseConfig(sigma=0.02, seed=5).sample(len(w)))
        m = magnification_tau(z, w, w1, w2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m_scaled = magnification_tau(*(s.scaled(c) for s in (z, w, w1, w2)))
        assert m_scaled == pytest.approx(m / c, rel=1e-12, abs=0)

    def test_signal_lengths_must_match(self, spec, tau_true):
        # this raised numpy's "operands could not be broadcast" message
        signals = [sample_waveform(spec, tau_true, k) for k in (0, 0, 1, 2)]
        for i in range(4):
            short = list(signals)
            short[i] = SampledSignal(short[i].samples[:-1])
            with pytest.raises(ValueError, match="^signal lengths differ$"):
                magnification_tau(*short)

    def test_perturb_and_reestimate_agreement(self, spec, tau_true):
        z0 = sample_waveform(spec, tau_true, 0)
        zp = SampledSignal(
            z0.samples + NoiseConfig(sigma=0.01, seed=11).sample(len(z0)))
        tau0 = ml_delay_estimate(zp, spec, (0.0, spec.code_period))
        w = sample_waveform(spec, tau0, 0)
        w1 = sample_waveform(spec, tau0, 1)
        w2 = sample_waveform(spec, tau0, 2)
        m_tau = magnification_tau(zp, w, w1, w2)

        eps = 1e-4 * w.norm()
        dy = w1.scaled(eps / w1.norm())
        tau1 = ml_delay_estimate(zp + dy, spec, (0.0, spec.code_period))
        assert abs(tau1 - tau0) / eps == pytest.approx(m_tau, rel=0.01)


class TestWorstInterference:
    def test_power_normalization(self, spec, tau_true):
        w1 = sample_waveform(spec, tau_true, 1)
        for p in (1e-8, 2.5, 100.0):
            dy = worst_interference(w1, p)
            assert dy.norm() ** 2 == pytest.approx(p, rel=1e-12)

    def test_cauchy_schwarz_equality(self, spec, tau_true):
        w1 = sample_waveform(spec, tau_true, 1)
        dy = worst_interference(w1, 2.0)
        assert abs(np.vdot(dy.samples, w1.samples)) == pytest.approx(
            dy.norm() * w1.norm(), rel=1e-12)

    def test_zero_derivative_rejected(self, spec):
        zero = SampledSignal(np.zeros(spec.num_samples))
        with pytest.raises(ValueError):
            worst_interference(zero, 1.0)

    @pytest.mark.parametrize("scale", [1e200, 1.7e308, 1e-200, 2.0 ** -1060])
    def test_norm_over_or_underflow(self, scale):
        # ||w'||^2 overflowed to inf (an all-zero interference, with a
        # warning) or underflowed to 0 ("zero derivative signal"). At
        # 1.7e308 even |1 + 1j| overflows; the subnormal scale is a power of
        # two, so the samples stay exact.
        shape = np.array([1.0 + 1.0j, -0.5, 0.25j, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dy = worst_interference(SampledSignal(scale * shape), 2.0)
        want = math.sqrt(2.0) * shape / np.linalg.norm(shape)
        assert np.allclose(dy.samples, want, rtol=1e-12, atol=0)
        assert dy.norm() ** 2 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("prn", [1, 7, 17, 32])
    def test_power_of_two_scaling_is_bit_exact(self, prn):
        # dy depends on the direction of w' only; a power-of-two scale of w'
        # must not move a single bit of it (the CLI's delay and a CLI power)
        spec = default_spec(prn)
        w1 = sample_waveform(spec, 0.3 * spec.code_period, 1)
        want = worst_interference(w1, 1e-4).samples.tobytes()
        for k in (-900, -500, 500, 900):
            scaled = SampledSignal(np.ldexp(w1.samples.real, k))
            assert worst_interference(scaled, 1e-4).samples.tobytes() == want, k

    def test_bytes_match_plain_normalisation(self):
        # oracle: sqrt(P) w' / ||w'|| by the plain norm, which neither
        # overflows nor underflows for these waveforms and powers
        rng = np.random.default_rng(2028)
        for _ in range(120):
            spec = default_spec(int(rng.integers(1, 33)))
            w1 = sample_waveform(spec, rng.uniform(0.0, spec.code_period), 1)
            power = 10.0 ** rng.uniform(-12.0, 3.0)
            want = w1.scaled(math.sqrt(power) / w1.norm())
            assert (worst_interference(w1, power).samples.tobytes()
                    == want.samples.tobytes())

    @pytest.mark.parametrize("largest, exponent", [
        (0.0, 0), (0.5, 0), (0.75, 0), (1.0, 1), (3.0, 2), (2.0 ** -1074, -1073),
        (1.7e308, 1024)])
    def test_unit_scaled_exponent(self, largest, exponent):
        # the largest real or imaginary part over all arrays lands in
        # [0.5, 1), and scaling back recovers every part exactly
        a = np.array([0.25 * largest, -1j * largest])
        b = np.array([0.125j * largest])
        (sa, sb), e = _unit_scaled([a, b])
        assert e == exponent
        for scaled, x in ((sa, a), (sb, b)):
            assert scaled.dtype == np.complex128
            assert np.ldexp(scaled.view(float), e).tobytes() == x.tobytes()
        parts = np.abs(np.r_[sa, sb].view(float))
        assert parts.max() == (math.frexp(largest)[0] if largest else 0.0)
        # the same parts held as float64 keep their dtype and exponent
        real = [np.array([0.25 * largest, -largest]), np.array([0.125 * largest])]
        scaled_real, e = _unit_scaled(real)
        assert e == exponent
        for scaled, x in zip(scaled_real, real):
            assert scaled.dtype == np.float64
            assert np.ldexp(scaled, e).tobytes() == x.tobytes()

    def test_dot_and_norm_agree_across_dtypes(self):
        # Real values give the same bits held as float64, as complex128 and
        # as a strided complex view: the experiment's float64 path and the
        # public functions' complex one are one arithmetic.
        rng = np.random.default_rng(36)
        for n in (1, 2, 7, 1023, 4092, 5115):
            x, y = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-100, 100, (2, 1))
            buffer = np.zeros((2, 2 * n), dtype=np.complex128)
            buffer[:, ::2] = x, y
            want = [_dot(x, y), _dot(x, x), _norm(x), _norm(y)]
            for a, b in ((x.astype(complex), y.astype(complex)),
                         (buffer[0, ::2], buffer[1, ::2]),
                         (x, buffer[1, ::2])):
                got = [_dot(a, b), _dot(a, a), _norm(a), _norm(b)]
                assert [v.hex() for v in got] == [v.hex() for v in want], n

    def test_bound_tightness(self, spec, tau_true):
        z = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        dy = worst_interference(w1, (1e-4 * z.norm()) ** 2)
        result = perturbation_experiment(spec, tau_true, NoiseConfig(0.0), dy)
        ratio = abs(result.delta_tau_empirical) / result.delta_tau_bound
        assert 0.95 <= ratio <= 1.05


class TestPerturbationExperiment:
    def test_interference_length_must_match_spec(self, spec, tau_true):
        long = SampledSignal(np.zeros(spec.num_samples + 1))
        with pytest.raises(ValueError, match="does not match spec.num_samples"):
            perturbation_experiment(spec, tau_true, NoiseConfig(0.0), long)

    def test_zero_interference(self, spec, tau_true):
        zero = SampledSignal(np.zeros(spec.num_samples))
        result = perturbation_experiment(spec, tau_true,
                                         NoiseConfig(sigma=0.02, seed=1), zero)
        assert abs(result.delta_tau_empirical) <= 1e-12 * spec.chip_duration

    def test_deterministic_given_seed(self, spec, tau_true):
        w1 = sample_waveform(spec, tau_true, 1)
        dy = worst_interference(w1, 1e-6)
        a = perturbation_experiment(spec, tau_true, NoiseConfig(0.03, seed=9), dy)
        b = perturbation_experiment(spec, tau_true, NoiseConfig(0.03, seed=9), dy)
        assert a == b

    def test_random_directions_respect_bound(self, spec, tau_true):
        rng = np.random.default_rng(42)
        z = sample_waveform(spec, tau_true, 0)
        norm = 1e-4 * z.norm()
        for _ in range(25):
            dy = rng.standard_normal(spec.num_samples) \
                + 1j * rng.standard_normal(spec.num_samples)
            dy *= norm / np.linalg.norm(dy)
            result = perturbation_experiment(
                spec, tau_true, NoiseConfig(0.0),
                SampledSignal(dy))
            assert abs(result.delta_tau_empirical) <= 1.05 * result.delta_tau_bound

    def test_parallel_interference_ratio_converges(self, spec, tau_true):
        # |delta tau| / ||dy|| approaches m_tau as the norm shrinks
        z = sample_waveform(spec, tau_true, 0)
        w1 = sample_waveform(spec, tau_true, 1)
        norm = 1e-4 * z.norm()
        dy = w1.scaled(norm / w1.norm())
        result = perturbation_experiment(spec, tau_true, NoiseConfig(0.0), dy)
        assert abs(result.delta_tau_empirical) / norm == pytest.approx(
            result.m_tau, rel=0.05)

    def test_reports_iterations_and_residual(self, spec, tau_true):
        w1 = sample_waveform(spec, tau_true, 1)
        dy = worst_interference(w1, 1e-6)
        result = perturbation_experiment(spec, tau_true,
                                         NoiseConfig(0.02, seed=4), dy)
        assert len(result.iterations) == len(result.residual) == 2
        for iterations, residual in zip(result.iterations, result.residual):
            assert 1 <= iterations <= signal_model._NEWTON_PASSES
            assert 0.0 <= residual <= 1e-9

    def test_m_tau_uses_waveforms_at_tau0(self, spec, tau_true):
        # The table's (w, w', w'') at tau0 must equal a fresh synthesis there.
        noise = NoiseConfig(0.02, seed=6)
        dy = worst_interference(sample_waveform(spec, tau_true, 1), 1e-6)
        result = perturbation_experiment(spec, tau_true, noise, dy)
        z = SampledSignal(sample_waveform(spec, tau_true, 0).samples
                          + noise.sample(spec.num_samples))
        fresh = [sample_waveform(spec, result.tau0, k) for k in (0, 1, 2)]
        assert result.m_tau == magnification_tau(z, *fresh)


def _experiment_inputs(prn, tau_frac, seed):
    """Spec, true delay, noise and worst-mode interference at 1e-4 ||w||."""
    spec = default_spec(prn)
    tau = tau_frac * spec.code_period
    power = (1e-4 * sample_waveform(spec, tau, 0).norm()) ** 2
    dy = worst_interference(sample_waveform(spec, tau, 1), power)
    return spec, tau, NoiseConfig(0.01, seed=seed), dy


class TestSharedSyntheses:
    """One experiment synthesizes each delay once, all three orders."""

    def test_fewer_kernel_calls(self, monkeypatch):
        spec, tau, noise, dy = _experiment_inputs(5, 0.41, 3)
        kernel, coarse = signal_model._waveforms, signal_model._coarse_grid
        calls, starts = [], []

        def counted(spec, tau, layouts):
            calls.append(tau)
            return kernel(spec, tau, layouts)

        def recorded(*args):
            starts.append(coarse(*args))
            return starts[-1]

        monkeypatch.setattr(signal_model, "_waveforms", counted)
        monkeypatch.setattr(signal_model, "_coarse_grid", recorded)
        result = perturbation_experiment(spec, tau, noise, dy)
        # Both coarse searches land on the true delay, whose one synthesis
        # gives the clean signal, both references and both first Newton
        # passes; every other Newton pass synthesizes its own delay.
        assert starts == [tau, tau]
        assert calls[0] == tau
        assert calls.count(tau) == 1
        assert len(calls) == 1 + sum(result.iterations) - 2

    @pytest.mark.parametrize("samples_per_chip", [1, 2, 4, 5])
    @pytest.mark.parametrize("smoothing", [0.1, 0.5, 1.0])
    def test_layouts_match_fresh_synthesis(self, samples_per_chip, smoothing):
        # One table over delays that step across a chip boundary and a
        # sub-chip phase boundary, and revisit a key (a period later too):
        # each synthesis must be the bytes of a fresh kernel call.
        rng = np.random.default_rng(samples_per_chip * 10 + round(smoothing * 10))
        for prn in range(1, 33):
            spec = default_spec(prn, smoothing, samples_per_chip)
            tc, q = spec.chip_duration, samples_per_chip
            k, j = int(rng.integers(1, 1023)), int(rng.integers(1, max(q, 2)))
            taus = [(k + e) * tc for e in (1e-9, -1e-9, 0.0)]
            taus += [(k + j / q + e) * tc for e in (-1e-9, 1e-9)]
            taus += [(k + 2e-9) * tc, spec.code_period + (k + 3e-9) * tc]
            table = _Syntheses(spec)
            for tau in taus:
                for got, want in zip(table.orders(tau),
                                     _waveforms(spec, tau, {})):
                    assert _same_bytes(got, want), (prn, tau)
            assert len(table.layouts) < len(taus)  # a key was read again

    @pytest.mark.parametrize("prn, tau_frac, seed", [(1, 0.3, 42), (19, 0.58, 6)])
    def test_worst_case_experiment(self, prn, tau_frac, seed):
        # dy from the experiment's own w' is the bytes of a fresh synthesis's
        spec, tau, noise, dy = _experiment_inputs(prn, tau_frac, seed)
        power = (1e-4 * sample_waveform(spec, tau, 0).norm()) ** 2
        assert (worst_case_experiment(spec, tau, power, noise.sigma, seed)
                == perturbation_experiment(spec, tau, noise, dy))

    @pytest.mark.parametrize("power, sigma, seed", [(-1.0, -1.0, 0), (math.inf, 0.01, -3)])
    def test_worst_case_checks_power_first(self, spec, tau_true, power, sigma, seed):
        with pytest.raises(ValueError, match="^power must be positive and finite$"):
            worst_case_experiment(spec, tau_true, power, sigma, seed)

    def test_matches_independent_estimates(self):
        spec, tau, noise, dy = _experiment_inputs(12, 0.73, 8)
        result = perturbation_experiment(spec, tau, noise, dy)

        z = SampledSignal(sample_waveform(spec, tau, 0).samples
                          + noise.sample(spec.num_samples))
        window = (tau - spec.code_period / 2, tau + spec.code_period / 2)
        tau0 = ml_delay_estimate(z, spec, window)
        tau1 = ml_delay_estimate(z + dy, spec, window)
        m_tau = magnification_tau(z, *(sample_waveform(spec, tau0, k)
                                       for k in (0, 1, 2)))
        centre = (window[0] + window[1]) / 2
        assert centre == tau  # so every estimate's coarse grid is the experiment's
        # the private estimator takes the float64 Re z
        _, iter0, res0 = _ml_delay(z.samples.real, _Syntheses(spec), window, centre)
        _, iter1, res1 = _ml_delay((z + dy).samples.real, _Syntheses(spec), window,
                                   centre)
        expected = [tau0, m_tau, m_tau * dy.norm(), tau1 - tau0,
                    iter0, iter1, res0, res1]
        got = [result.tau0, result.m_tau, result.delta_tau_bound,
               result.delta_tau_empirical, *result.iterations, *result.residual]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]

    def test_back_to_back_experiments_independent(self):
        # Same delay and window on two PRNs: a synthesis kept across
        # experiments, keyed by delay, would hand one PRN the other's.
        a = _experiment_inputs(3, 0.37, 1)
        b = _experiment_inputs(17, 0.37, 2)
        first_a, then_b = (perturbation_experiment(*a),
                           perturbation_experiment(*b))
        first_b, then_a = (perturbation_experiment(*b),
                           perturbation_experiment(*a))
        assert first_a == then_a
        assert first_b == then_b
        assert first_a.tau0 != first_b.tau0 or first_a.m_tau != first_b.m_tau


class TestInPhaseExperiment:
    """The experiment reads Re z only, so it draws the in-phase noise alone."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-300, 0.01, 1.0, 8.0])
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_in_phase_block_is_real_part_of_sample(self, sigma, seed):
        n = 513
        noise = NoiseConfig(sigma, seed)
        sample = noise.sample(n)
        assert np.array_equal(sigma * noise._blocks(n, 1)[0], sample.real)
        rng = np.random.default_rng(seed)  # the draw order: a, then b
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        want = np.zeros(n, dtype=np.complex128) if sigma == 0 else sigma * (a + 1j * b)
        assert _same_bytes(sample, want)

    def test_experiment_builds_no_complex_noise(self, spec, tau_true, monkeypatch):
        def refused(self, n):
            raise AssertionError("complex noise drawn")

        want = worst_case_experiment(spec, tau_true, 1e-6, 0.05, 3)
        monkeypatch.setattr(NoiseConfig, "sample", refused)
        assert worst_case_experiment(spec, tau_true, 1e-6, 0.05, 3) == want

    @staticmethod
    def _centred(spec, tau):
        """The first delay from tau up whose search window has its centre there
        exactly, so every estimate's coarse grid passes through it."""
        half = spec.code_period / 2
        while ((tau - half) + (tau + half)) / 2 != tau:
            tau = math.nextafter(tau, math.inf)
        return tau, (tau - half, tau + half)

    def test_matches_public_complex_path(self):
        # An independent oracle: each field from the public functions on
        # complex SampledSignals, over PRNs, noise levels and powers. At
        # sigma 8 the estimator can fail (PRN 1 at 0.3 P with seeds 0 and
        # 1 does); both sides must then fail alike.
        rng = np.random.default_rng(3701)
        cases = [(int(rng.integers(1, 33)), rng.uniform(0.0, 1.0), sigma,
                  int(rng.integers(0, 2**31)), 10 ** rng.uniform(-5, -3))
                 for _ in range(16) for sigma in (0.0, 0.01, 2.0, 8.0)]
        cases += [(1, 0.3, 8.0, seed, 1e-4) for seed in (0, 1, 29)]
        outcomes = set()
        for prn, frac, sigma, seed, rel in cases:
            spec = default_spec(prn)
            tau, window = self._centred(spec, frac * spec.code_period)
            w = sample_waveform(spec, tau, 0)
            power = (rel * w.norm()) ** 2

            def oracle():
                z = SampledSignal(w.samples + NoiseConfig(sigma, seed).sample(len(w)))
                dy = worst_interference(sample_waveform(spec, tau, 1), power)
                tau0 = ml_delay_estimate(z, spec, window)
                m_tau = magnification_tau(z, *(sample_waveform(spec, tau0, k)
                                               for k in (0, 1, 2)))
                tau1 = ml_delay_estimate(z + dy, spec, window)
                return [tau0, m_tau, m_tau * dy.norm(), tau1 - tau0]

            def experiment():
                r = worst_case_experiment(spec, tau, power, sigma, seed)
                return [r.tau0, r.m_tau, r.delta_tau_bound, r.delta_tau_empirical]

            got, want = [], []
            for side, out in ((experiment, got), (oracle, want)):
                try:
                    out.extend(float(v).hex() for v in side())
                except (DelayEstimationError, DegenerateCurvatureError) as exc:
                    out.append(type(exc))
            assert got == want, (prn, tau, sigma, seed, rel)
            outcomes.add((sigma, len(got) == 4))
        assert outcomes == {(sigma, True) for sigma in (0.0, 0.01, 2.0, 8.0)} | {(8.0, False)}

    def test_interference_imaginary_part_moves_only_the_bound(self):
        spec, tau, noise, dy = _experiment_inputs(9, 0.62, 4)
        a = dy.samples.real
        b = 0.7 * np.linalg.norm(a) / math.sqrt(len(a)) \
            * np.random.default_rng(11).standard_normal(len(a))
        complex_dy, real_dy = SampledSignal(a + 1j * b), SampledSignal(a)
        with_b = perturbation_experiment(spec, tau, noise, complex_dy)
        without = perturbation_experiment(spec, tau, noise, real_dy)
        for field in ("tau0", "m_tau", "delta_tau_empirical", "iterations", "residual"):
            assert getattr(with_b, field) == getattr(without, field), field
        assert with_b.delta_tau_bound == with_b.m_tau * complex_dy.norm()
        assert without.delta_tau_bound == without.m_tau * real_dy.norm()
        assert with_b.delta_tau_bound / without.delta_tau_bound == pytest.approx(
            np.linalg.norm(a + 1j * b) / np.linalg.norm(a), rel=1e-14)
        assert with_b.delta_tau_bound > 1.2 * without.delta_tau_bound
