"""The numpy identities the water fills, the dual, the codebook, the
channel's seeding and evaluate_concurrent rely on.

They pick the cheaper of two calls that give the same bits: np.reciprocal
for 1.0 / x, x[x.argmax()] for np.maximum.reduce(x), and a.item(a.argmax())
for float(a.max()); evaluate_concurrent reads a.item(a.argmin()) for
float(a.min()).  The stacked water fill (_water_fill_rows) gives each row
the core's bits only if a reduction, prefix sum or stable sort along axis 1
treats row r as the 1-D call on that row does, and subgradient_solve reads
its steps from a table built once.  The signaling codebook reads numpy's
linear quantiles from one sort (_linear_quantiles for np.quantile), and the
channel's keyed substreams seed PCG64 from _pair_seed_words, numpy's
SeedSequence hash run on uint32 arrays for every link pair at once.  The
dual's starting point, the path gains and the direct gains call np.median,
np.linalg.norm and np.einsum("iik->ik"), whose bits earlier versions read
from one sort, sqrt(add.reduce(d * d)) and the strided diagonal rows; those
tests check the library still gives those bits.  These tests pin the
equivalences on the numpy that runs them, so a numpy version or SIMD path
where they differ fails here first.
"""

from itertools import accumulate
import struct

import numpy as np
import pytest

from smallcell.baselines import evaluate_concurrent
from smallcell.channel import (MIN_DISTANCE_M, ChannelRealization, ScenarioConfig, _pair_seed_words,
                               _path_gains, pathloss_db)
from smallcell.signaling import _linear_quantiles
from smallcell.tssolver import LAM_FLOOR, STEP_SCHEDULE, TSProblem, default_multipliers


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


def _stack(width, rows=6):
    """Rows of one width: lognormal, subnormal to huge, and tied values."""
    rng = np.random.default_rng(width)
    return np.vstack([rng.lognormal(0.0, 3.0, (rows, width)),
                      10.0 ** rng.uniform(-320.0, 300.0, (rows, width)),
                      rng.integers(0, 3, (rows, width)).astype(float)])


# widths 1-70 cross the pairwise-sum block edges at 8, 9, 16 and 17
@pytest.mark.parametrize("width", range(1, 71))
def test_row_reduce_has_the_bytes_of_each_row_alone(width):
    a = _stack(width)
    for sums in (np.add.reduce(a, axis=1), a.sum(axis=1)):
        for r, row in enumerate(a):
            assert sums[r].tobytes() == np.add.reduce(row).tobytes() == row.sum().tobytes()


@pytest.mark.parametrize("width", range(1, 71))
def test_row_prefix_sums_add_in_order(width):
    a = _stack(width)
    for cum in (a.cumsum(axis=1), np.add.accumulate(a, axis=1)):
        for r, row in enumerate(a):
            assert cum[r].tolist() == list(accumulate(row.tolist()))


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9, 16, 17, 33, 70])
def test_row_stable_argsort_is_each_row_alone(width):
    a = _stack(width)
    order = a.argsort(axis=1, kind="stable")
    for r, row in enumerate(a):
        assert np.array_equal(order[r], row.argsort(kind="stable"))


@pytest.mark.parametrize("width", range(1, 12))
def test_median_from_one_sort(width):
    rng = np.random.default_rng(width)
    a = np.vstack([rng.lognormal(0.0, 3.0, (4, width)),
                   rng.integers(0, 3, (4, width)).astype(float),     # ties and zeros
                   np.zeros((1, width))])
    ordered = np.sort(a, axis=1)
    half = width // 2
    med = ordered[:, half] if width % 2 else (ordered[:, half - 1] + ordered[:, half]) / 2.0
    assert med.tobytes() == np.median(a, axis=1).tobytes()
    problem = TSProblem(gains=a, weights=rng.uniform(0.5, 2.0, len(a)),
                        budgets=rng.uniform(1.0, 100.0, len(a)))
    lam0 = problem.weights * med / (1.0 + problem.budgets * med / width)
    assert default_multipliers(problem).tobytes() == np.maximum(lam0, LAM_FLOOR).tobytes()


@pytest.mark.parametrize("num_links", [1, 3, 16])
def test_step_table_rows_are_the_scalar_steps(num_links):
    a, b = STEP_SCHEDULE
    scale = 10.0 ** np.random.default_rng(num_links).uniform(-14.0, 4.0, num_links)
    steps = (a / (b + np.arange(1, 2001)))[:, None] * scale
    for t in range(1, 2001):
        assert steps[t - 1].tobytes() == ((a / (b + t)) * scale).tobytes()


def _sample_sets(size):
    """Positive samples of one size: lognormal, subnormal to huge, and tied."""
    rng = np.random.default_rng(size)
    yield rng.lognormal(0.0, 3.0, size)
    yield 10.0 ** rng.uniform(-320.0, 300.0, size)
    yield rng.integers(1, 4, size).astype(float)


# every size to 70 covers every (n - 1) q rounding pattern of small sets
@pytest.mark.parametrize("size", list(range(1, 71)) + [97, 256, 999, 2047, 2048, 4999, 5000])
def test_sorted_linear_quantiles_have_the_bytes_of_np_quantile(size):
    for samples in _sample_sets(size):
        ordered = np.sort(samples)
        for levels in range(2, 65):
            probs = np.arange(1, levels + 1) / levels
            got = _linear_quantiles(ordered, probs)
            assert got.tobytes() == np.quantile(samples, probs).tobytes()


@pytest.mark.parametrize("shape", [(1, 2), (7, 2), (2048, 2), (1, 1, 2), (4, 4, 2), (16, 16, 2)])
def test_distances_have_the_bytes_of_linalg_norm(shape):
    rng = np.random.default_rng(shape[0])
    cfg = ScenarioConfig()
    for delta in (rng.uniform(-50.0, 50.0, shape), rng.normal(0.0, 1e-3, shape),
                  rng.integers(-3, 4, shape).astype(float)):
        lengths = np.sqrt(np.add.reduce(delta * delta, axis=-1))
        assert lengths.tobytes() == np.linalg.norm(delta, axis=-1).tobytes()
        shadow = rng.normal(0.0, 8.0, shape[:-1] + (3,))
        pl = pathloss_db(cfg, np.maximum(lengths, MIN_DISTANCE_M))
        want = 10.0 ** (-(pl[..., None] + shadow) / 10.0)
        got = _path_gains(cfg, delta, np.zeros(shape), shadow)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("links, tones", [(1, 1), (1, 10), (3, 4), (4, 10), (16, 64)])
def test_diagonal_rows_are_the_einsum_view(links, tones):
    cross = np.random.default_rng(links).lognormal(-10.0, 3.0, (links, links, tones))
    rows = cross.reshape(links * links, tones)[::links + 1]
    want = np.einsum("iik->ik", cross)
    assert rows.shape == want.shape and rows.strides == want.strides
    assert np.shares_memory(want, cross)
    assert rows.tobytes() == want.tobytes()
    power = np.random.default_rng(0).random((links, tones))
    assert (rows * power).tobytes() == (want * power).tobytes()
    realization = ChannelRealization(cross, 0.25)
    assert realization.direct_gain.tobytes() == (rows / 0.25).tobytes()
    own = rows * power
    sinr = own / (0.25 + (np.einsum("ijk,ik->jk", cross, power) - own))
    assert evaluate_concurrent(realization, power).tobytes() == np.log1p(sinr).sum(axis=1).tobytes()


_KEYS = [(), (0,), (7,),
         (1234, 0, 2), (777, 99, 1), (5000, 3, 5),                  # (seed, trial, stage)
         (2 ** 32 - 1, 0, 2), (2 ** 32, 7, 2), (2 ** 64 - 1, 1, 3), (2 ** 100, 0, 2),
         (2 ** 32 - 1,), (2 ** 32,), (2 ** 64 - 1,), (2 ** 100,),
         tuple(range(10)),                                          # 8 further entropy words
         (2 ** 100, 2 ** 64 - 1, 2 ** 32, 2 ** 32 - 1, 0, 1, 2, 3, 4, 5)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("num_links", [1, 2, 3, 5, 16, 17])
@pytest.mark.parametrize("key", _KEYS)
def test_pair_seed_words_are_the_seed_sequence_state(key, num_links):
    got = _pair_seed_words(key, num_links)
    want = np.array([np.random.SeedSequence(key + (i, j)).generate_state(4, np.uint64)
                     for i in range(num_links) for j in range(num_links)])
    assert got.dtype == want.dtype == np.uint64
    assert got.tobytes() == want.tobytes()
