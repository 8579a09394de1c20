import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelpde import floatfmt


def reference(table):
    return "".join("\t".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def write(out, table):
    floatfmt.write_rows(out, floatfmt.records(table.ravel())[0].reshape(*table.shape, 4))


def assert_formats(values, cols=3):
    # pad with ones to whole rows and to at least FEW cells, so every
    # value takes the numpy path (or its fallback), not the small-table one
    values = np.asarray(values, dtype=float).ravel()
    size = max(values.size, floatfmt.FEW)
    table = np.concatenate([values, np.ones(-size % cols + size - values.size)]).reshape(-1, cols)
    out = io.BytesIO()
    write(out, table)
    got, want = out.getvalue().splitlines(), reference(table).splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
    return table


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    assert_formats(from_bits(bits))


def test_bit_patterns_sweep():
    # a deterministic splitmix-style sweep over the 64-bit patterns, with
    # every exponent field and sign reached
    z = np.arange(1, 200001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(29)
    assert_formats(z.view(np.float64), cols=11)


def test_powers_of_ten_and_neighbours():
    p = np.array([float("1e%d" % k) for k in range(-323, 309)])
    values = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p,
                             np.nextafter(-p, 0)])
    assert_formats(values[np.isfinite(values)], cols=5)


def test_decade_carries_and_integers_near_the_layout_switch():
    # 9.9999999999999999e+-k rounds into the next decade at 17 digits;
    # 1e16 prints 17 digits in fixed notation, 1e17 switches to exponent
    carries = [float("9.9999999999999999e%d" % k) for k in range(-300, 300)]
    carries += [float("9.99999999999999995e%d" % k) for k in range(-300, 300)]
    near = [float(10 ** 16 + i) for i in range(-40, 40)]
    near += [float(10 ** 17 + 16 * i) for i in range(-40, 40)]
    near += [float(10 ** 15 + i) + 0.5 for i in range(-40, 40)]
    values = np.array(carries + near)
    assert_formats(np.concatenate([values, -values]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(3, 25), st.integers(0, 2 ** 53), st.booleans()),
                min_size=1, max_size=32))
def test_exact_decimal_ties(draws):
    # T' / 2^j = T' 5^j / 10^j: with T' odd and T' 5^j of 18 digits the
    # value's exact decimal expansion has 18 significant digits, the last
    # a 5, so its 17-digit rounding is an exact tie, broken to even
    ties = []
    for j, t, neg in draws:
        low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if low >= high:
            continue
        odd = (low + t % (high - low)) | 1
        if odd < high:
            value = odd / 2 ** j
            assert len(str(odd * 5 ** j)) == 18
            ties.append(-value if neg else value)
    assert_formats(ties + [1 + 2 ** -17])


def test_subnormals_zeros_and_non_finite():
    sub = from_bits([1, 2, 3, 0xFFFFFFFFFFFFF, 0x8000000000000001, 0x800FFFFFFFFFFFFF,
                     0x10000000000000, 0x8010000000000000])
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280,
              np.nextafter(1e-280, 0), np.nextafter(1e280, 0)]
    assert_formats(np.concatenate([sub, values, sub * 2 ** 20]))


def test_small_blocks_and_ragged_chunks_match():
    # below FEW cells a block takes Python's format; a table longer than
    # one chunk ends in a short block
    rng = np.random.default_rng(3)
    for shape in ((1, 1), (3, 7), (floatfmt.CHUNK // 11 + 5, 11)):
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        out = io.BytesIO()
        write(out, table)
        assert out.getvalue() == reference(table)


def test_fallback_is_rare_on_normal_values():
    # the fast path must carry the work: an exact formatter that falls
    # back on every value would pass the tests above
    v = np.random.default_rng(11).standard_normal(10 ** 5)
    rec, slow = floatfmt.records(v)
    assert slow.size < 0.01 * v.size
    assert_formats(v[:3000])


def test_signed_zeros_take_the_fast_path():
    # +-0 are a large share of real-data tables (imaginary parts, slice
    # cells): they print as "0" and "-0" without Python's format, in
    # blocks of zeros alone and mixed with other values
    zeros = np.zeros(4000)
    zeros[1::3] = -0.0
    mixed = zeros.copy()
    mixed[::7] = np.random.default_rng(5).standard_normal(mixed[::7].size)
    for v in (zeros, mixed):
        assert_formats(v, cols=7)
        _, slow = floatfmt.records(v)
        assert not np.any(v[slow] == 0)
