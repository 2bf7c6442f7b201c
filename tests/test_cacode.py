import numpy as np
import pytest

from navbound.cacode import ChipSequence, generate_ca_code

# First 10 chips of selected PRNs in octal (published receiver checks).
FIRST_10_OCTAL = {1: 0o1440, 2: 0o1620, 3: 0o1710, 4: 0o1744, 5: 0o1133,
                  32: 0o1712}

# G2 delays (chips) per PRN; independent construction of the same codes.
_G2_DELAYS = [5, 6, 7, 8, 17, 18, 139, 140, 141, 251,
              252, 254, 255, 256, 257, 258, 469, 470, 471, 472,
              473, 474, 509, 512, 513, 514, 515, 516, 859, 860,
              861, 862]


def _lfsr(taps, n=1023):
    reg = [1] * 10
    out = []
    for _ in range(n):
        out.append(reg[9])
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    return out


def _delay_oracle(prn):
    """Second, structurally different generator: G1 xor delayed G2."""
    g1 = _lfsr([3, 10])
    g2 = _lfsr([2, 3, 6, 8, 9, 10])
    d = _G2_DELAYS[prn - 1]
    return np.array([g1[i] ^ g2[(i - d) % 1023] for i in range(1023)])


def test_length_and_alphabet():
    code = generate_ca_code(1)
    assert len(code) == 1023
    assert set(np.unique(code.chips)) == {-1, 1}
    assert code.chip_duration == 1 / 1.023e6


@pytest.mark.parametrize("prn,octal", sorted(FIRST_10_OCTAL.items()))
def test_first_ten_chips_octal(prn, octal):
    binary = (1 - generate_ca_code(prn).chips[:10]) // 2
    assert int("".join(map(str, binary)), 2) == octal


@pytest.mark.parametrize("prn", range(1, 33))
def test_matches_delay_oracle(prn):
    binary = (1 - generate_ca_code(prn).chips) // 2
    assert np.array_equal(binary, _delay_oracle(prn))


def test_cross_correlation_bound():
    c1 = generate_ca_code(1).chips.astype(int)
    c2 = generate_ca_code(2).chips.astype(int)
    corr = np.array([np.dot(np.roll(c1, k), c2) for k in range(1023)])
    assert np.abs(corr).max() <= 65
    assert abs(np.dot(c1, c2)) / 1023 <= 65 / 1023


def test_unsupported_prn():
    for prn in (0, 33, -1):
        with pytest.raises(ValueError):
            generate_ca_code(prn)


def test_chip_sequence_rejects_non_pm1():
    with pytest.raises(ValueError):
        ChipSequence(chips=np.array([1, 0, -1]))


def test_code_cached_and_read_only():
    code = generate_ca_code(13)
    assert generate_ca_code(13) is code
    assert generate_ca_code(14) is not code
    with pytest.raises(ValueError):
        code.chips[0] = -code.chips[0]


def test_user_chip_array_stays_writeable():
    chips = np.array([1, -1, 1], dtype=np.int8)
    seq = ChipSequence(chips=chips)
    assert chips.flags.writeable and seq.chips.flags.writeable
