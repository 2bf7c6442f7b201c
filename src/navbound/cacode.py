"""GPS C/A (coarse/acquisition) Gold code generation."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import CA_CHIP_RATE, CA_CODE_LENGTH

# G2 phase-select taps per PRN (1-indexed register stages), IS-GPS-200 Table 3-I.
_G2_TAPS = {
    1: (2, 6), 2: (3, 7), 3: (4, 8), 4: (5, 9),
    5: (1, 9), 6: (2, 10), 7: (1, 8), 8: (2, 9),
    9: (3, 10), 10: (2, 3), 11: (3, 4), 12: (5, 6),
    13: (6, 7), 14: (7, 8), 15: (8, 9), 16: (9, 10),
    17: (1, 4), 18: (2, 5), 19: (3, 6), 20: (4, 7),
    21: (5, 8), 22: (6, 9), 23: (1, 3), 24: (4, 6),
    25: (5, 7), 26: (6, 8), 27: (7, 9), 28: (8, 10),
    29: (1, 6), 30: (2, 7), 31: (3, 8), 32: (4, 9),
}


@dataclass(frozen=True)
class ChipSequence:
    """A spreading code as a sequence of +/-1 chips."""

    chips: np.ndarray

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=np.int8)
        if not np.all(np.abs(chips) == 1):
            raise ValueError("chips must be exactly +1 or -1")
        object.__setattr__(self, "chips", chips)

    def __len__(self):
        return len(self.chips)

    @property
    def chip_duration(self) -> float:
        return 1.0 / CA_CHIP_RATE

    @property
    def period(self) -> float:
        return len(self.chips) / CA_CHIP_RATE


def generate_ca_code(prn: int) -> ChipSequence:
    """Generate the 1023-chip C/A Gold code for a GPS PRN (1..32).

    Binary chips {0, 1} are mapped to {+1, -1}. Each PRN's code is built
    once, on first request, and the same object is returned after that;
    its chips are read-only because every caller shares them.
    """
    if prn not in _G2_TAPS:
        raise ValueError(f"unsupported PRN {prn}: must be in 1..32")
    return _ca_code(prn)


@lru_cache(maxsize=None)
def _ca_code(prn: int) -> ChipSequence:
    t1, t2 = _G2_TAPS[prn]

    g1 = np.ones(10, dtype=np.int8)
    g2 = np.ones(10, dtype=np.int8)
    out = np.empty(CA_CODE_LENGTH, dtype=np.int8)
    for i in range(CA_CODE_LENGTH):
        out[i] = g1[9] ^ (g2[t1 - 1] ^ g2[t2 - 1])
        fb1 = g1[2] ^ g1[9]
        fb2 = g2[1] ^ g2[2] ^ g2[5] ^ g2[7] ^ g2[8] ^ g2[9]
        g1[1:] = g1[:-1]
        g1[0] = fb1
        g2[1:] = g2[:-1]
        g2[0] = fb2

    chips = 1 - 2 * out
    chips.flags.writeable = False
    return ChipSequence(chips=chips)
