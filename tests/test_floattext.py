"""The array formatter against Python's own ``repr``, byte for byte.

Every case formats a float64 array and compares the bytes with ``repr`` of
each value, one per line.  The edge set holds the values where a shortest
digit algorithm or the ``'r'`` layout goes wrong first: zeros, the smallest
subnormals, every power of two, the powers of ten, the integers next to
2**53, the switches to exponent form, and the non-finite values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convstab.floattext import BLOCK, csv_lines, repr_rows


def kernel_text(values) -> bytes:
    return b"".join(csv_lines(repr_rows(values)))


def repr_text(values) -> bytes:
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=float).tolist()).encode()


def from_bits(patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def edge_values() -> np.ndarray:
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    knots = np.concatenate([powers, tens])
    near = [knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)]
    integers = [float(2**53 + d) for d in range(-40, 41)]
    switches = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]
    subnormals = np.arange(1, 22) * 5e-324
    special = [0.0, np.inf, np.nan, *from_bits([0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF])]
    values = np.concatenate([*near, integers, switches, subnormals, special])
    return np.concatenate([values, -values])


def test_edge_values_match_repr():
    values = edge_values()
    assert kernel_text(values) == repr_text(values)


def test_an_empty_array_is_empty_text():
    assert kernel_text(np.array([])) == repr_text([])


NAN_BITS = st.builds(lambda sign, payload: (sign << 63) | (0x7FF << 52) | payload,
                     st.integers(0, 1), st.integers(1, 2**52 - 1))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | NAN_BITS, min_size=1, max_size=64))
def test_raw_bit_patterns_match_repr(patterns):
    values = from_bits(patterns)
    assert kernel_text(values) == repr_text(values)


def test_blocks_join_to_the_text_of_the_whole_array():
    rng = np.random.default_rng(10)
    values = rng.integers(0, 2**64, size=2 * BLOCK + 123, dtype=np.uint64).view(np.float64)
    values[::7] = rng.standard_normal(values[::7].size)
    pieces = b"".join(kernel_text(values[i:i + BLOCK]) for i in range(0, values.size, BLOCK))
    assert kernel_text(values) == pieces
    assert kernel_text(values) == repr_text(values)


def test_csv_chunks_join_to_one_line_per_row():
    # 3000 lines span several CSV chunks
    rng = np.random.default_rng(11)
    x, u = rng.standard_normal((2, 3000)) * np.logspace(-30, 30, 3000)
    text = b"".join(csv_lines(repr_rows(x), repr_rows(u)))
    assert text == "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), u.tolist())).encode()
