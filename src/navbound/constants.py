"""Physical and system constants (WGS-84 / GPS ICD values)."""

# WGS-84 ellipsoid
WGS84_A = 6378137.0                  # semi-major axis [m]
WGS84_F = 1.0 / 298.257223563        # flattening
WGS84_B = WGS84_A * (1.0 - WGS84_F)  # semi-minor axis [m]
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)  # first eccentricity squared

# GPS system constants
GM_EARTH = 3.986005e14               # gravitational parameter [m^3/s^2]
OMEGA_EARTH = 7.2921151467e-5        # earth rotation rate [rad/s]

# GPS C/A code
CA_CHIP_RATE = 1.023e6               # [chips/s]
CA_CODE_LENGTH = 1023                # chips per code period
CA_CODE_PERIOD = CA_CODE_LENGTH / CA_CHIP_RATE  # [s]

SECONDS_PER_WEEK = 604800
