from dataclasses import FrozenInstanceError, fields, replace
import re
import sys
import warnings

import numpy as np
import pytest

from smallcell.channel import (GAIN_SAMPLES, MAX_RADIUS_M, ChannelRealization, ScenarioConfig, SCENARIOS,
                               drop_topology, pathloss_db, realize_channels, config_from_file,
                               scenario_gain_samples)
from reference import frozen_gain_samples, keyed_reference


def cfg_for(scenario="urban-indoor", **kw):
    return ScenarioConfig(scenario=scenario, **kw)


class TestPathloss:
    def test_urban_indoor_reference_point(self):
        # 38.46 + 20log10(25) + 0.7*25 + 0 + 1*5
        assert pathloss_db(cfg_for(), 25.0) == pytest.approx(88.9188, abs=1e-3)

    def test_suburban_indoor_drops_wall_loss(self):
        assert pathloss_db(cfg_for("suburban-indoor"), 25.0) == pytest.approx(83.9188, abs=1e-3)

    def test_no_floors_means_no_floor_term(self):
        with_floor = pathloss_db(cfg_for(num_floors=1), 25.0)
        without = pathloss_db(cfg_for(num_floors=0), 25.0)
        assert with_floor - without == pytest.approx(18.3, abs=1e-9)

    def test_scenario_ordering(self):
        # outdoor adds the outer wall, urban indoor adds inner walls over suburban
        for d in (2.0, 10.0, 25.0, 60.0):
            urban_in = pathloss_db(cfg_for("urban-indoor"), d)
            urban_out = pathloss_db(cfg_for("urban-outdoor"), d)
            suburb_in = pathloss_db(cfg_for("suburban-indoor"), d)
            assert urban_out >= urban_in
            assert urban_in >= suburb_in

    def test_strictly_increasing_in_distance(self):
        d = np.linspace(1.0, 300.0, 400)
        for scenario in SCENARIOS:
            pl = pathloss_db(cfg_for(scenario), d)
            assert np.all(np.diff(pl) > 0)

    def test_clamped_below_one_meter(self):
        assert pathloss_db(cfg_for(), 0.3) == pathloss_db(cfg_for(), 1.0)

    def test_nonpositive_distance_raises(self):
        with pytest.raises(ValueError):
            pathloss_db(cfg_for(), 0.0)
        with pytest.raises(ValueError):
            pathloss_db(cfg_for(), -2.0)
        # unchecked, a NaN distance gave a NaN path loss
        with pytest.raises(ValueError):
            pathloss_db(cfg_for(), np.nan)
        with pytest.raises(ValueError):
            pathloss_db(cfg_for(), np.array([5.0, np.nan]))


class TestDropTopology:
    def test_all_points_inside_cell(self):
        cfg = cfg_for(num_links=50)
        pos = drop_topology(cfg, np.random.default_rng(0))
        assert pos.shape == (100, 2)
        assert np.all(np.linalg.norm(pos, axis=1) <= cfg.cell_radius_m + 1e-9)

    def test_same_seed_same_positions(self):
        cfg = cfg_for(num_links=7)
        a = drop_topology(cfg, np.random.default_rng(42))
        b = drop_topology(cfg, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_mean_center_distance_matches_uniform_disk(self):
        # uniform disk: E[r] = 2R/3
        cfg = cfg_for(num_links=10000)
        pos = drop_topology(cfg, np.random.default_rng(3))
        mean_r = np.linalg.norm(pos, axis=1).mean()
        assert mean_r == pytest.approx(2.0 / 3.0 * cfg.cell_radius_m, rel=0.02)

    def test_shorter_drop_is_prefix_of_longer(self):
        a = drop_topology(cfg_for(num_links=3), np.random.default_rng(5))
        b = drop_topology(cfg_for(num_links=8), np.random.default_rng(5))
        assert np.array_equal(a, b[:6])


class TestRealizeChannels:
    def test_noise_power_reference(self):
        cfg = cfg_for()
        assert 10 * np.log10(cfg.noise_power_mw) == pytest.approx(-121.447, abs=1e-3)
        assert np.log10(cfg.noise_power_mw) == pytest.approx(-12.1447, abs=1e-3)

    def test_fading_off_equal_distances_equal_gains(self):
        cfg = cfg_for(num_links=2, num_tones=3, shadow_sigma_db=0.0)
        positions = np.array([[0.0, 0.0], [10.0, 0.0],
                              [0.0, 4.0], [10.0, 4.0]])
        real = realize_channels(cfg, positions, 0)
        assert real.direct_gain[0, 0] == pytest.approx(real.direct_gain[1, 0], rel=1e-12)
        assert np.ptp(real.direct_gain) == pytest.approx(0.0, abs=1e-25)

    def test_direct_gain_invariant(self):
        cfg = cfg_for(num_links=3, num_tones=4)
        pos = drop_topology(cfg, np.random.default_rng(1))
        real = realize_channels(cfg, pos, 2)
        diag = np.einsum("iik->ik", real.cross_gain)
        assert np.allclose(real.direct_gain, diag / cfg.noise_power_mw, rtol=1e-14)
        assert np.all(real.cross_gain > 0)
        assert np.all(np.isfinite(real.cross_gain))

    def test_hand_built_direct_gain_is_derived(self):
        cross = np.random.default_rng(3).lognormal(0.0, 1.0, (3, 3, 4))
        real = ChannelRealization(cross_gain=cross, noise_power_mw=0.25)
        assert real.direct_gain.tobytes() == (np.einsum("iik->ik", cross) / 0.25).tobytes()

    def test_arrays_are_read_only_copies(self):
        # a write into cross_gain once left direct_gain stale
        cross = np.random.default_rng(3).lognormal(0.0, 1.0, (3, 3, 4))
        real = ChannelRealization(cross_gain=cross, noise_power_mw=0.25)
        cross[0, 0, 0] = 0.0
        assert real.cross_gain[0, 0, 0] > 0.0
        for array in (real.cross_gain, real.direct_gain):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (0, 0, 4), (3, 3, 0), (3, 3, 4, 1)])
    def test_cross_gain_of_another_shape_rejected(self, shape):
        # unchecked, a 2-D array failed with "not enough values to unpack"
        with pytest.raises(ValueError, match=r"cross_gain must have shape \(I, I, K\)"):
            ChannelRealization(cross_gain=np.ones(shape), noise_power_mw=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, -np.inf])
    def test_bad_cross_gain_rejected(self, value):
        # unchecked, a NaN gain gave NaN rates
        cross = np.ones((3, 3, 4))
        cross[1, 0, 2] = value
        with pytest.raises(ValueError, match=re.escape(f"cross gains must be finite and non-negative, got {value!r}")):
            ChannelRealization(cross_gain=cross, noise_power_mw=1.0)

    @pytest.mark.parametrize("noise", [0.0, -1.0, np.inf, np.nan, np.float64(-np.inf)])
    def test_bad_noise_rejected(self, noise):
        # unchecked, a negative noise power gave inf rates; a numpy float is
        # reported as the plain float it holds
        with pytest.raises(ValueError, match=re.escape(f"noise_power_mw must be finite and positive, got {float(noise)!r}")):
            ChannelRealization(cross_gain=np.ones((2, 2, 3)), noise_power_mw=noise)

    @pytest.mark.parametrize("noise", [np.array([1.0]), np.array([1.0, 2.0])])
    def test_noise_that_is_not_one_number_rejected(self, noise):
        # unchecked, a noise power per tone divided each tone's gains by its own
        with pytest.raises(ValueError, match=re.escape(f"noise_power_mw must have shape (), got {noise.shape}")):
            ChannelRealization(cross_gain=np.ones((2, 2, 2)), noise_power_mw=noise)

    def test_direct_gain_overflow_rejected(self):
        # the division once warned "overflow encountered in divide" first,
        # two more stderr lines through the CLI
        for cross, noise in ((np.full((2, 2, 3), 1e300), 1e-300), (np.ones((1, 1, 2)), 1e-318)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="direct gains"):
                    ChannelRealization(cross, noise)

    def test_zero_gains_accepted(self):
        real = ChannelRealization(cross_gain=np.zeros((2, 2, 3)), noise_power_mw=1.0)
        assert not real.direct_gain.any()

    def test_shadowing_overflow_rejected_when_built(self):
        # a gain that overflows once raised FloatingPointError, and through
        # the CLI ended in a traceback
        cfg = cfg_for(num_links=4, num_tones=10, shadow_sigma_db=10000.0)
        pos = drop_topology(cfg, np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cross gains must be finite"):
                realize_channels(cfg, pos, 1)

    def test_shadowing_variance(self):
        cfg = cfg_for(num_links=1, num_tones=10000, shadow_sigma_db=8.0)
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        real = realize_channels(cfg, positions, 11)
        x_db = -10.0 * np.log10(real.cross_gain[0, 0]) - pathloss_db(cfg, 10.0)
        assert x_db.var() == pytest.approx(64.0, rel=0.05)

    def test_bit_identical_given_seed(self):
        cfg = cfg_for(num_links=3, num_tones=5)
        pos = drop_topology(cfg, np.random.default_rng(9))
        a = realize_channels(cfg, pos, (7, 0, 2))
        b = realize_channels(cfg, pos, (7, 0, 2))
        assert np.array_equal(a.cross_gain, b.cross_gain)

    def test_keyed_fading_shared_across_link_counts(self):
        # pair (i, j) draws from its own substream, so adding links leaves it alone
        cfg2 = cfg_for(num_links=2, num_tones=6)
        cfg3 = cfg_for(num_links=3, num_tones=6)
        pos3 = drop_topology(cfg3, np.random.default_rng(4))
        a = realize_channels(cfg2, pos3[:4], (1, 2, 3))
        b = realize_channels(cfg3, pos3, (1, 2, 3))
        assert np.array_equal(a.cross_gain, b.cross_gain[:2, :2, :])

    @pytest.mark.parametrize("rows", [2, 3, 5, 8])
    def test_positions_of_another_link_count_rejected(self, rows):
        # unchecked, extra rows failed with a broadcast error between the
        # pathloss and the shadowing, and too few rows failed the same way
        cfg = cfg_for(num_links=2, num_tones=3)
        pos = drop_topology(cfg_for(num_links=4), np.random.default_rng(0))[:rows]
        with pytest.raises(ValueError, match=r"positions must have shape \(4, 2\)"):
            realize_channels(cfg, pos, (1, 0, 2))

    # a Generator is no key: keyed substreams are the one draw path
    @pytest.mark.parametrize("key", [-1, (-1,), (1, -2, 3), (1, 0.5, 2), 1.5, [1, 2],
                                     np.random.default_rng(1), (True, 1)])
    def test_bad_seed_key_rejected(self, key):
        cfg = cfg_for(num_links=2, num_tones=3)
        pos = drop_topology(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="seed key element must be a non-negative integer"):
            realize_channels(cfg, pos, key)


class TestScenarioGainSamples:
    def test_shape_and_positivity(self):
        cfg = cfg_for(num_links=3, num_tones=4, rng_seed=7)
        samples = scenario_gain_samples(cfg, np.random.default_rng(0))
        assert samples.shape == (GAIN_SAMPLES,)
        assert np.all(samples > 0.0)

    def test_reproducible(self):
        cfg = cfg_for(num_links=3, num_tones=4, rng_seed=7)
        a = scenario_gain_samples(cfg, np.random.default_rng(1))
        b = scenario_gain_samples(cfg, np.random.default_rng(1))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 1, 1234])
    def test_bytes_match_the_frozen_copy(self, scenario, seed):
        # the codebook's samples share realize_channels' path-gain lines and
        # keep the bytes harness drew with its own copy of them
        for sigma in (0.0, 3.0):
            cfg = cfg_for(scenario, shadow_sigma_db=sigma)
            got = scenario_gain_samples(cfg, np.random.default_rng(seed))
            assert got.tobytes() == frozen_gain_samples(cfg, np.random.default_rng(seed)).tobytes()

    @pytest.mark.parametrize("setting", [{"shadow_sigma_db": 10000.0},
                                         {"noise_density_dbm_hz": -3230.0}])
    @pytest.mark.filterwarnings("error")
    def test_samples_past_the_float_range_are_inf_without_a_warning(self, setting):
        samples = scenario_gain_samples(cfg_for(**setting), np.random.default_rng(0))
        assert np.isinf(samples).any()


@pytest.mark.filterwarnings("error")
class TestKeyedSubstreams:
    """The vectorized seeding draws exactly what one default_rng per pair draws."""

    @pytest.mark.parametrize("key", [(0, 0, 2), (2 ** 32 - 1, 7, 2), (2 ** 32, 0, 2), (2 ** 70, 3, 2),
                                     (1234, 0, 2), (2 ** 32 - 1, 2 ** 33, 2), (0,), 7, ()])
    @pytest.mark.parametrize("num_links", [1, 2, 3, 16])
    def test_cross_gain_bytes_match_per_pair_generators(self, key, num_links):
        for num_tones in (1, 64):
            for sigma in (0.0, 3.0, 8.0):
                cfg = cfg_for(num_links=num_links, num_tones=num_tones, shadow_sigma_db=sigma)
                pos = drop_topology(cfg, np.random.default_rng(num_links))
                got = realize_channels(cfg, pos, key).cross_gain
                assert got.tobytes() == keyed_reference(cfg, pos, key).tobytes()

    def test_numpy_integer_key_elements(self):
        cfg = cfg_for(num_links=3, num_tones=5)
        pos = drop_topology(cfg, np.random.default_rng(2))
        key = (np.uint64(2 ** 63 + 5), np.int32(4), 2)
        got = realize_channels(cfg, pos, key).cross_gain
        assert got.tobytes() == keyed_reference(cfg, pos, tuple(int(k) for k in key)).tobytes()


class TestConfigFile:
    def test_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# test config\nscenario = suburban-indoor\nnum_links = 6\ncell_radius_m = 40\n")
        cfg = config_from_file(path)
        assert cfg.scenario == "suburban-indoor"
        assert cfg.num_links == 6
        assert cfg.cell_radius_m == 40.0
        cfg = config_from_file(path, num_links=2)  # explicit override wins
        assert cfg.num_links == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequency = 5\n")
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_file(path)

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioConfig(scenario="rural")

    def test_replace_rechecks(self):
        # unchecked, pathloss_db read a "rural" config as suburban-indoor
        with pytest.raises(ValueError, match="unknown scenario 'rural'"):
            replace(cfg_for(), scenario="rural")

    def test_fields_are_frozen(self):
        cfg = cfg_for()
        with pytest.raises(FrozenInstanceError):
            cfg.num_floors = -1

    @pytest.mark.parametrize("field, value, derived", [
        ("max_power_dbm", 4000.0, "max_power_mw"), ("max_power_dbm", -4000.0, "max_power_mw"),
        ("noise_density_dbm_hz", 4000.0, "noise_power_mw"),
        ("noise_density_dbm_hz", -4000.0, "noise_power_mw")])
    def test_derived_power_out_of_range_rejected(self, field, value, derived):
        # unchecked, max_power_dbm = 4000 raised OverflowError and
        # noise_density_dbm_hz = 4000 reported 0 bit/s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{derived} from .*{field}"):
                cfg_for(**{field: value})

    def test_file_value_an_override_replaces_is_not_checked(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("num_links = 0\n")
        assert config_from_file(path, num_links=4).num_links == 4
        with pytest.raises(ValueError, match="num_links must be an integer >= 1"):
            config_from_file(path)

    @pytest.mark.parametrize("line, message", [
        ("num_links = 2.5", "num_links expects int, got '2.5'"),
        ("max_power_dbm = high", "max_power_dbm expects float, got 'high'")])
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, line, message):
        # unchecked, the CLI printed only "invalid literal for int() with base 10: '2.5'"
        path = tmp_path / "bad.cfg"
        path.write_text("# header\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            config_from_file(path)
        assert str(info.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("field, value", [("num_floors", -1), ("shadow_sigma_db", -3.0),
                                              ("num_walls", -2), ("indoor_dist_m", -100.0),
                                              ("shadow_sigma_db", float("nan"))])
    def test_negative_propagation_terms_rejected(self, field, value):
        # unchecked, the first two crash mid-draw and the others silently
        # lower the path loss
        rule = "a non-negative integer" if isinstance(value, int) else "non-negative"
        with pytest.raises(ValueError, match=f"{field} must be {rule}"):
            cfg_for(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(ScenarioConfig) if f.type is float])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_fields_rejected(self, field, value):
        # unchecked, a NaN max_power_dbm reports 0 bit/s and the others fail
        # later, in realize_channels or TSProblem
        with pytest.raises(ValueError, match=field):
            cfg_for(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True, False])
    def test_bad_rng_seed_rejected(self, seed):
        # unchecked, a negative seed was accepted and failed inside numpy
        # at the first draw, and a bool seeded as 1 or 0
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            cfg_for(rng_seed=seed)

    @pytest.mark.parametrize("field, value", [("num_links", 2.5), ("num_tones", 3.0),
                                              ("num_links", True), ("num_tones", True)])
    def test_counts_not_integers_rejected(self, field, value):
        # unchecked, a float count was accepted and failed mid-run with
        # "'float' object cannot be interpreted as an integer", and a True
        # count with numpy's "an integer is required"
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            cfg_for(**{field: value})

    @pytest.mark.parametrize("field, value", [("num_walls", float("inf")), ("num_floors", 0.5),
                                              ("num_walls", 1.5), ("num_floors", True),
                                              ("num_walls", False)])
    def test_propagation_counts_not_integers_rejected(self, field, value):
        # unchecked, num_walls = inf reported 0.0 bit/s, and the fractions and
        # bools ran
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer, got {value!r}"):
            cfg_for(**{field: value})

    @pytest.mark.parametrize("field", ["num_floors", "num_walls"])
    def test_propagation_counts_past_the_float_range_rejected(self, field):
        # unchecked, pathloss_db's float term raised OverflowError mid-draw;
        # a count up to the largest float still builds
        with pytest.raises(ValueError, match=f"{field} must be at most"):
            cfg_for(**{field: 10 ** 400})
        cfg_for(**{field: int(sys.float_info.max)})

    @pytest.mark.parametrize("field", ["cell_radius_m", "tone_bandwidth_hz"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_radius_or_bandwidth_rejected(self, field, value):
        with pytest.raises(ValueError, match="cell_radius_m and tone_bandwidth_hz must be positive"):
            cfg_for(**{field: value})

    def test_radius_whose_distances_squared_overflow_rejected(self):
        # unchecked, np.linalg.norm in _path_gains warned "overflow encountered
        # in multiply" and sim reported 0.000 Mbit/s; at the bound a drop draws
        # without a warning
        with pytest.raises(ValueError, match="cell_radius_m must be at most sqrt"):
            cfg_for(cell_radius_m=1e160)
        cfg = cfg_for(cell_radius_m=MAX_RADIUS_M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            realize_channels(cfg, drop_topology(cfg, np.random.default_rng(0)), 1)

    def test_repeated_key_rejected(self, tmp_path):
        # unchecked, the last value won silently
        path = tmp_path / "bad.cfg"
        path.write_text("num_links = 2\n# comment\nnum_links = 5\n")
        with pytest.raises(ValueError) as info:
            config_from_file(path)
        assert str(info.value) == f"{path}:3: num_links given twice (first on line 1)"

    def test_zero_propagation_terms_accepted(self):
        cfg_for(num_floors=0, shadow_sigma_db=0.0, num_walls=0, indoor_dist_m=0.0)
        cfg_for(num_floors=np.int64(1), num_walls=np.int64(1))
