"""Deterministic stream derivation for sweep points.

Every randomized sweep cell derives its own 64-bit seed by chaining a
SplitMix64 finalizer over the base seed and the cell's coordinates (the
IEEE-754 bit patterns of the float parameters plus the repetition index).
Seeds therefore depend only on what the cell computes, never on its grid
position, so adding or reordering grid points cannot perturb existing
results and identical coordinates across different sweeps share a stream.
"""

import struct

import numpy as np

from .device import check_count

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAYLOAD_TAG = 0x5041594C4F4144   # distinguishes the payload stream


def _finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def mix64(*values: int) -> int:
    """Chain the SplitMix64 finalizer over integer values."""
    state = 0
    for value in values:
        state = _finalize((state + _GOLDEN + (int(value) & _MASK)) & _MASK)
    return state


def float_bits(x: float) -> int:
    """IEEE-754 bit pattern of a float, as an unsigned 64-bit integer."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def point_seed(base_seed: int, tx_dc_lux: float, mod_index: float, dcl_lux: float, rep: int) -> int:
    """Seed for one BER point, a pure function of its operating coordinates."""
    return mix64(base_seed, float_bits(tx_dc_lux), float_bits(mod_index), float_bits(dcl_lux), rep)


def payload_bits(n_bits: int, base_seed: int):
    """The sweep-wide payload: fixed across grid points for a given base seed."""
    check_count("n_bits", n_bits, 0)
    rng = np.random.default_rng(mix64(check_count("base_seed", base_seed, 0), _PAYLOAD_TAG))
    return rng.integers(0, 2, n_bits)
