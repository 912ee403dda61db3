from dataclasses import replace
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smallcell.channel import ScenarioConfig, drop_topology, realize_channels
from smallcell.signaling import (QuantizationTable, build_cdf_table, decode_levels,
                                 encode_powers, run_signaling_slot)
from reference import per_pair_views


def three_level_table():
    # levels LOW < MIDDLE < HIGH with f = 1/3, 2/3, 1
    return build_cdf_table(np.linspace(1.0, 3.0, 3000), 3)


def _one_bad(value):
    samples = np.linspace(1.0, 3.0, 100)
    samples[37] = value
    return samples


class TestTableConstruction:
    def test_three_levels_give_third_steps(self):
        table = three_level_table()
        assert np.allclose(table.f_values, [1 / 3, 2 / 3, 1.0])
        assert table.size == 3

    def test_two_levels_sit_at_median_and_max(self):
        table = build_cdf_table([1.0, 2.0, 3.0, 4.0], 2)
        assert np.allclose(table.gain_levels, [2.5, 4.0])
        assert np.allclose(table.f_values, [0.5, 1.0])

    @pytest.mark.parametrize("levels", [2.5, 3.0, True, False])
    def test_level_count_not_an_integer_rejected(self, levels):
        # unchecked, 2.5 raised numpy's "Quantiles must be in the range [0, 1]"
        # and 3.0 was accepted; True was read as one level
        with pytest.raises(ValueError, match="num_levels must be an integer >= 2"):
            build_cdf_table(np.linspace(1.0, 3.0, 3000), levels)

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_cdf_table([2.0] * 100, 4)

    # unchecked, NaN samples gave an all-NaN codebook that passed the
    # duplicate check, one inf a NaN top level, negatives negative levels
    @pytest.mark.parametrize("samples", [_one_bad(np.nan), _one_bad(np.inf), _one_bad(-np.inf), _one_bad(-1.0),
                                         _one_bad(0.0), _one_bad(-0.0), [np.nan] * 50,
                                         -np.linspace(1.0, 3.0, 50), np.linspace(-1.0, 1.0, 50),
                                         [[2.0, np.inf], [np.nan, 1.0]]])
    def test_samples_not_finite_and_positive_rejected(self, samples):
        # the message names an offending sample; a 2-D set is read whole
        with pytest.raises(ValueError, match="gain samples must be finite and positive, got "):
            build_cdf_table(samples, 4)

    def test_levels_are_numpys_linear_quantiles(self):
        rng = np.random.default_rng(6)
        for samples in (rng.lognormal(0.0, 2.0, 2048), rng.integers(1, 40, 999).astype(float),
                        rng.lognormal(0.0, 1.0, (4, 250)), np.array([2.0, 1.0])):
            for levels in (2, 3, 16, 64):
                probs = np.arange(1, levels + 1) / levels
                want = np.quantile(samples, probs)
                if (want[1:] <= want[:-1]).any():
                    with pytest.raises(ValueError, match="duplicate"):
                        build_cdf_table(samples, levels)
                    continue
                table = build_cdf_table(samples, levels)
                assert table.gain_levels.tobytes() == want.tobytes()
                assert table.f_values.tobytes() == probs.tobytes()

    def test_quantile_bins_capture_equal_shares(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(0.0, 1.0, 10000)
        table = build_cdf_table(samples, 16)
        edges = np.concatenate([[-np.inf], table.gain_levels])
        counts, _ = np.histogram(samples, edges)  # last bin closed at the top level
        assert counts.sum() == 10000
        assert np.all(np.abs(counts - 625) <= 0.03 * 10000 / 16 + 1)
        assert samples.max() <= table.gain_levels[-1]  # top level covers everything


class TestQuantizationTableValidation:
    def test_valid_lists_become_float_arrays(self):
        table = QuantizationTable(gain_levels=[1, 3], f_values=[0.5, 1])
        assert table.gain_levels.dtype == float and table.f_values.dtype == float
        assert table.size == 2
        assert table.level_index(2.0) == 1

    @pytest.mark.parametrize("levels, f", [
        ([1.0, 2.0, 3.0], [0.5, 1.0]),               # lengths differ
        ([2.0], [1.0]),                              # one level
        ([], []),
        ([[1.0, 2.0], [3.0, 4.0]], [[0.25, 0.5], [0.75, 1.0]]),  # 2-D
        (2.0, 1.0),                                  # 0-D
    ])
    def test_shapes_rejected(self, levels, f):
        with pytest.raises(ValueError, match="1-D of one length >= 2"):
            QuantizationTable(gain_levels=levels, f_values=f)

    @pytest.mark.parametrize("levels", [[3.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0],
                                        [1.0, np.inf], [1.0, np.nan], [np.nan, 1.0],
                                        [1.0, np.nan, 2.0], [1.0, 3.0, 2.0]])
    def test_levels_not_finite_positive_increasing_rejected(self, levels):
        f = np.arange(1, len(levels) + 1) / len(levels)
        with pytest.raises(ValueError, match="gain_levels must be finite, positive"):
            QuantizationTable(gain_levels=levels, f_values=f)

    @pytest.mark.parametrize("f", [[0.5, 2.0], [0.0, 1.0], [-0.5, 1.0], [1.0, 0.5],
                                   [0.5, 0.5], [0.5, np.nan], [np.nan, 1.0],
                                   [0.2, np.nan, 1.0]])
    def test_f_values_not_increasing_within_unit_interval_rejected(self, f):
        levels = np.arange(1.0, len(f) + 1.0)
        with pytest.raises(ValueError, match=r"f_values must be strictly increasing within \(0, 1\]"):
            QuantizationTable(gain_levels=levels, f_values=f)

    def test_descending_levels_with_f_above_one_rejected(self):
        # once accepted, and level_index's searchsorted misread it
        with pytest.raises(ValueError):
            QuantizationTable(gain_levels=[3, 1], f_values=[0.5, 2])


class TestEncodeDecode:
    def test_encode_top_level_full_power(self):
        table = three_level_table()
        p1, p2 = encode_powers(table.gain_levels[2], table, 100.0)
        assert (p1, p2) == (100.0, pytest.approx(100.0))

    def test_encode_middle_level_two_thirds(self):
        table = three_level_table()
        p1, p2 = encode_powers(table.gain_levels[1], table, 100.0)
        assert p2 == pytest.approx(100.0 * 2 / 3)

    def test_below_bottom_clamps_to_bottom(self):
        table = three_level_table()
        tiny = float(table.gain_levels[0]) / 100.0
        _, p2 = encode_powers(tiny, table, 100.0)
        assert p2 == pytest.approx(100.0 / 3)

    def test_ratio_two_thirds_decodes_middle(self):
        table = three_level_table()
        assert decode_levels(3.0e-7, 2.0e-7, table) == float(table.gain_levels[1])

    def test_round_trip_through_random_cross_gains(self):
        rng = np.random.default_rng(2)
        table = build_cdf_table(rng.lognormal(0.0, 2.0, 5000), 8)
        for level in table.gain_levels:
            for h in rng.lognormal(-8.0, 3.0, 20):
                p1, p2 = encode_powers(level, table, 100.0)
                assert decode_levels(h * p1, h * p2, table) == float(level)

    @given(scale=st.floats(min_value=1e-12, max_value=1e12),
           idx=st.integers(min_value=0, max_value=7))
    def test_decode_invariant_to_common_scaling(self, scale, idx):
        rng = np.random.default_rng(3)
        table = build_cdf_table(rng.lognormal(0.0, 2.0, 5000), 8)
        p1, p2 = encode_powers(table.gain_levels[idx], table, 50.0)
        plain = decode_levels(p1, p2, table)
        scaled = decode_levels(scale * p1, scale * p2, table)
        assert plain == scaled

    def test_one_percent_noise_never_misreads_16_levels(self):
        # adjacent f spacing 1/16 beats the worst ratio error of ~2%
        rng = np.random.default_rng(4)
        table = build_cdf_table(rng.lognormal(0.0, 1.5, 5000), 16)
        errors = 0
        for _ in range(500):
            level = float(rng.choice(table.gain_levels))
            p1, p2 = encode_powers(level, table, 100.0)
            jitter = rng.uniform(0.99, 1.01, size=2)
            got = decode_levels(p1 * jitter[0], p2 * jitter[1], table)
            errors += got != level
        assert errors == 0

    def test_malformed_ratio_raises(self):
        table = three_level_table()
        with pytest.raises(ValueError, match="malformed"):
            decode_levels(1.0, 2.0, table)
        with pytest.raises(ValueError):
            decode_levels(0.0, 1.0, table)

    def test_non_finite_received_power_raises(self):
        table = three_level_table()
        for s1, s2 in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (1.0, -np.inf)):
            bad = s2 if s1 == 1.0 else s1
            with pytest.raises(ValueError, match=re.escape(f"received powers must be finite and positive, got {bad!r}")):
                decode_levels(s1, s2, table)


def small_realization(num_links=4, num_tones=10, seed=0):
    cfg = ScenarioConfig(num_links=num_links, num_tones=num_tones)
    pos = drop_topology(cfg, np.random.default_rng(seed))
    return cfg, realize_channels(cfg, pos, seed + 1)


class TestSignalingSlot:
    def test_lossless_slot_reproduces_quantized_gains(self):
        cfg, real = small_realization()
        table = build_cdf_table(real.direct_gain.ravel(), 8)
        views = run_signaling_slot(real, table, cfg.max_power_mw)
        want = table.gain_levels[table.level_index(real.direct_gain)]
        for view in views:
            assert not view.missing.any()
            assert np.array_equal(view.gains, want)

    def test_total_loss_erases_everything(self):
        cfg, real = small_realization()
        table = build_cdf_table(real.direct_gain.ravel(), 4)
        views = run_signaling_slot(real, table, cfg.max_power_mw,
                                   loss_mask=np.ones((4, 4, 10), dtype=bool))
        for view in views:
            assert view.missing.all()
            assert np.all(view.effective_gains() == 0.0)

    def test_nonpositive_reference_power_rejected(self):
        cfg, real = small_realization()
        table = build_cdf_table(real.direct_gain.ravel(), 4)
        every_pair_lost = np.ones((4, 4, 10), dtype=bool)
        for p0 in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=re.escape(f"reference power must be finite and positive, got {p0!r}")):
                run_signaling_slot(real, table, p0)
            with pytest.raises(ValueError, match="reference power"):
                run_signaling_slot(real, table, p0, loss_mask=every_pair_lost)

    def test_reference_power_that_is_not_one_number_rejected(self):
        cfg, real = small_realization()
        table = build_cdf_table(real.direct_gain.ravel(), 4)
        with pytest.raises(ValueError, match=re.escape("reference power must have shape (), got (10,)")):
            run_signaling_slot(real, table, np.full(10, cfg.max_power_mw))

    @pytest.mark.parametrize("shape", [(4, 4, 11), (1, 4, 10), (4, 10)])
    def test_loss_mask_of_another_shape_rejected(self, shape):
        # unchecked, these raised a bare "boolean index did not match" IndexError
        cfg, real = small_realization()
        table = build_cdf_table(real.direct_gain.ravel(), 4)
        with pytest.raises(ValueError, match=re.escape(f"loss_mask must have shape (4, 4, 10), got {shape}")):
            run_signaling_slot(real, table, cfg.max_power_mw, loss_mask=np.zeros(shape, dtype=bool))

    def test_zero_cross_gain_on_heard_pair_raises(self):
        cfg, real = small_realization()
        table = build_cdf_table(real.direct_gain.ravel(), 4)
        cross = real.cross_gain.copy()
        cross[1, 2, 3] = 0.0
        dead = replace(real, cross_gain=cross)
        with pytest.raises(ValueError, match="received powers"):
            run_signaling_slot(dead, table, cfg.max_power_mw)
        lost = np.zeros((4, 4, 10), dtype=bool)
        lost[1, 2, 3] = True                  # the dead path is never heard: no check, no raise
        views = run_signaling_slot(dead, table, cfg.max_power_mw, loss_mask=lost)
        assert views[2].missing[1, 3] and views[2].gains[1, 3] == 0.0


class TestSignalingMatchesPerPairDecode:
    @pytest.mark.parametrize("shape, seed", [((4, 10), 0), ((5, 8), 3), ((3, 16), 8)])
    @pytest.mark.parametrize("levels", [2, 4, 16])
    @pytest.mark.parametrize("losses", ["none", "random", "all"])
    def test_views_bit_identical(self, shape, seed, levels, losses):
        cfg, real = small_realization(*shape, seed=seed)
        I, K = shape
        # codebook from the middle 60% of the gains, so the extremes clamp at both ends
        ordered = np.sort(real.direct_gain.ravel())
        cut = len(ordered) // 5
        table = build_cdf_table(ordered[cut:-cut], levels)
        assert real.direct_gain.max() > table.gain_levels[-1]
        rng = np.random.default_rng(seed + 100)
        loss_mask = {"none": np.zeros((I, I, K), dtype=bool),
                     "random": rng.random((I, I, K)) < 0.3,
                     "all": np.ones((I, I, K), dtype=bool)}[losses]
        views = run_signaling_slot(real, table, cfg.max_power_mw, loss_mask=loss_mask)
        want = per_pair_views(real, table, cfg.max_power_mw, loss_mask)
        assert len(views) == I
        for view, (gains, missing) in zip(views, want):
            assert np.array_equal(view.gains, gains)
            assert np.array_equal(view.missing, missing)
