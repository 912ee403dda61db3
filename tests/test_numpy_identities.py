"""The numpy identities the water-fill core, iwfa_solve and evaluate_concurrent rely on.

They pick the cheaper of two calls that give the same bits: np.reciprocal
for 1.0 / x, x[x.argmax()] for np.maximum.reduce(x), and a.item(a.argmax())
for float(a.max()); evaluate_concurrent reads a.item(a.argmin()) for
float(a.min()).  These tests pin the equivalences on the numpy that runs
them, so a numpy version or SIMD path where they differ fails here first.
"""

import struct

import numpy as np
import pytest


def _inputs():
    rng = np.random.default_rng(3)
    yield rng.lognormal(0.0, 3.0, 1)
    for size in (2, 7, 10, 16, 33, 64, 257):
        yield rng.lognormal(0.0, 3.0, size)
        yield 10.0 ** rng.uniform(-320.0, 308.0, size)          # subnormal to huge
        yield rng.integers(1, 4, size).astype(float)            # ties
    yield np.array([1.0, 1e-320, 3.0, 5e-324, 2.0 ** -1022, 2.0 ** -1024])
    yield np.array([np.inf, 2.0, np.inf, 0.5])
    yield np.array([5.0, 5.0, 5.0])


@pytest.mark.parametrize("x", list(_inputs()))
def test_reciprocal_has_the_bytes_of_one_over_x(x):
    with np.errstate(over="ignore"):
        assert np.reciprocal(x).tobytes() == (1.0 / x).tobytes()


@pytest.mark.parametrize("x", [np.array([1e-320]), np.array([1.0, 1e-320, 2.0]),
                               np.array([5e-324] * 10)])
def test_reciprocal_overflows_to_inf_and_warns_as_division_does(x):
    for compute in (np.reciprocal, lambda v: 1.0 / v):
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = compute(x)
        assert np.all(np.isinf(out[x < 1e-300]))


@pytest.mark.parametrize("x", list(_inputs()))
def test_entry_at_argmax_is_the_max_reduction(x):
    got = x[x.argmax()]
    assert type(got) is np.float64
    assert got.tobytes() == np.maximum.reduce(x).tobytes()


def _bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("a", [np.array([[0.0, 3.0], [3.0, 1.0]]),
                               np.array([[0.0, np.inf], [np.inf, 2.0]]),
                               np.array([[1.0, np.nan], [np.nan, 2.0]]),
                               np.array([[np.nan, 1.0], [0.0, 0.0]]),
                               np.zeros((3, 3)),
                               np.random.default_rng(4).random((10, 10))])
def test_item_at_argmax_is_the_float_max(a):
    # evaluate_concurrent reads the smallest entry the same way
    for pick, reduce in ((a.argmax, a.max), (a.argmin, a.min)):
        got = a.item(pick())
        assert type(got) is float
        assert _bits(got) == _bits(float(reduce()))
