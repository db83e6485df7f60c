"""The numpy CSV formatter writes the bytes of '%.17g' % v for every float:
random 64-bit patterns (subnormals, signed zeros, infinities, NaNs) and the
families where its digits or its layout could go wrong."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbffock import _csv

SEPARATORS = [(",", "\n"), (",0,", ",0\n")]


def reference(values, sep=",", end="\n"):
    return "".join(sep.join("%.17g" % v for v in row) + end
                   for row in np.asarray(values).tolist())


def nudged(x, steps):
    """x moved ``steps`` doubles up (or down, for negative steps)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


signs = st.sampled_from([1.0, -1.0])
steps = st.integers(-3, 3)
bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
powers_of_ten = st.builds(lambda e, s, n: s * nudged(10.0 ** e, n),
                          st.integers(-300, 300), signs, steps)
# |x| near 1e-5, 1e-4, 1e16 and 1e17: k = -5/-4 and 16/17 switch layouts
layout_edges = st.builds(lambda e, f, s, n: s * nudged(f * 10.0 ** e, n),
                         st.sampled_from([-5, -4, 16, 17]),
                         st.floats(0.9, 10.5), signs, steps)
# both sides of 1e-280 and 1e280, where the % template takes over
range_edges = st.builds(lambda e, f, s, n: s * nudged(f * 10.0 ** e, n),
                        st.sampled_from([-280, 280]),
                        st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]),
                        signs, steps)


@st.composite
def exact_ties(draw):
    """N / 2^s with N odd and N 5^s of 18 digits: its 18th significant digit
    is a 5 with nothing after it, so %.17g rounds it half to even."""
    s = draw(st.integers(2, 60))
    low, high = -(-10 ** 17 // 5 ** s), min(10 ** 18 // 5 ** s, 2 ** 53)
    if low >= high:
        s, low, high = 10, -(-10 ** 17 // 5 ** 10), 10 ** 18 // 5 ** 10
    n = draw(st.integers(low, high - 1)) | 1
    return draw(signs) * n / 2 ** s


FAMILIES = {"bit-patterns": bit_patterns, "powers-of-ten": powers_of_ten,
            "layout-edges": layout_edges, "range-edges": range_edges,
            "exact-ties": exact_ties(),
            "gram-like": st.floats(-50.0, 50.0).map(math.exp)}


@pytest.mark.parametrize("sep, end", SEPARATORS, ids=["complex", "real"])
@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_matches_percent_17g(family, sep, end, data):
    values = data.draw(st.lists(FAMILIES[family], min_size=1, max_size=24))
    cols = data.draw(st.sampled_from([c for c in (1, 2, 3, 4)
                                      if len(values) % c == 0]))
    block = np.array(values).reshape(-1, cols)
    assert _csv.csv_rows(block, sep, end) == reference(block, sep, end)


def test_ties_and_edges_take_the_numpy_route():
    """Decided families go through the digits, not the % template.  The
    doubles nearest 1e-243, 1e-14, 1e98 and 1e153 lie just below them and
    round up at 17 digits, carrying into the exponent."""
    x = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, -0.0, 0.0, 0.1,
                  2.0 ** 60, 123.456, 1e-243, -1e-14, 1e98, 1e153])
    assert _csv._decimal(x) is not None
    assert _csv.csv_rows(x.reshape(1, -1)) == reference(x.reshape(1, -1))


@pytest.mark.parametrize("undecided", [2.0 ** -25, math.inf, -math.inf,
                                       math.nan, 5e-324, 1e-300, -1e300],
                         ids=repr)
def test_one_undecided_entry_takes_the_percent_template(undecided):
    """2^-25 = 2.98023223876953125e-08 is an exact tie at 17 digits."""
    decided = np.random.default_rng(0).uniform(-2.0, 2.0, 23)
    block = np.append(decided, undecided).reshape(4, 6)
    assert _csv._decimal(decided) is not None
    assert _csv._decimal(block.ravel()) is None
    for sep, end in SEPARATORS:
        assert _csv.csv_rows(block, sep, end) == reference(block, sep, end)


def test_empty_block():
    assert _csv.csv_rows(np.zeros((0, 8))) == ""
