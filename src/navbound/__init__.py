"""Worst-case bias-error bounds for satellite navigation.

Two bounding tools: the magnification coefficient converting an
interference power budget into a worst-case maximum-likelihood delay
bias, and clock-bias-anchored bounds on the position error of a
receiver constrained to a known track, evaluated over GPS broadcast
ephemerides.
"""

from .cacode import ChipSequence, generate_ca_code
from .signal_model import (DegenerateCurvatureError, DelayEstimationError,
                           NoiseConfig, SampledSignal, TauPerturbation,
                           WaveformSpec, default_spec, magnification_tau,
                           ml_delay_estimate, perturbation_experiment,
                           sample_waveform, worst_case_experiment,
                           worst_interference)
from .track import (DegenerateGeometryError, FrenetFrame, MagnificationS,
                    MagnificationUV, PseudorangeDelta, SatGeometry,
                    SolveResult, determinant_d,
                    directional_cosines, frenet_frame, magnification_s,
                    magnification_uv, sign_condition, solve_three_sat,
                    solve_two_sat, synthetic_geometry)
from .orbits import (EphemerisRecord, EphemerisError, GpsTime, PositionTable,
                     SiteLocation, ecef_to_enu, geodetic_to_ecef,
                     parse_position_csv, parse_rinex_nav, prepare_grid,
                     sat_position_ecef, solve_kepler)
from .scan import Histogram, ScanConfig, ScanSeries, histogram, scan_ms

__version__ = "0.1.0"
