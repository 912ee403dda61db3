import csv

import pytest

from smallcell.channel import ScenarioConfig
from smallcell.cli import main


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestSim:
    def test_writes_records_and_summary(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        rc = main(["sim", "--links", "3", "--tones", "4", "--trials", "3",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0][:5] == ["trial_id", "scenario", "num_links", "num_tones", "algorithm"]
        assert len(rows) == 1 + 3 * 2  # SOA and IWFA per trial
        text = capsys.readouterr().out
        assert "SOA" in text and "IWFA" in text and "wrote 6 records" in text

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(
            "scenario = suburban-indoor  # pathloss law\n"
            "num_links = 2\n"
            "num_tones = 4\n"
        )
        out = tmp_path / "records.csv"
        rc = main(["sim", "--config", str(cfg_file), "--links", "3",
                   "--trials", "2", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert all(r[1] == "suburban-indoor" for r in rows[1:])
        assert all(r[2] == "3" for r in rows[1:])  # flag beats file

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSlots:
    def test_per_slot_csv(self, tmp_path, capsys):
        out = tmp_path / "slots.csv"
        rc = main(["slots", "--links", "3", "--tones", "6", "--slots", "5",
                   "--loss-prob", "0.2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["slot", "collisions", "intended_bps", "realized_bps"]
        assert len(rows) == 1 + 5
        for row in rows[1:]:
            assert float(row[3]) <= float(row[2]) + 1e-6
        assert "slots: 5" in capsys.readouterr().out

    def test_lossless_reports_no_collisions(self, capsys):
        rc = main(["slots", "--links", "2", "--tones", "4", "--slots", "3"])
        assert rc == 0
        assert "collisions first/last: 0/0" in capsys.readouterr().out


class TestSweep:
    def test_link_sweep_collects_all_counts(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--links", "2,3", "--tones", "4", "--trials", "2",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert {r[2] for r in rows[1:]} == {"2", "3"}
        assert len(rows) == 1 + 2 * 2 * 2  # two counts, two trials, two algorithms
        text = capsys.readouterr().out
        assert "SOA" in text

    def test_radius_sweep(self, capsys):
        rc = main(["sweep", "--links", "2", "--tones", "4", "--trials", "1",
                   "--radius", "25,50"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# radius = 25.0 m" in text and "# radius = 50.0 m" in text

    def test_radius_sweep_keeps_the_scenario_link_count(self, tmp_path, capsys):
        # without --links, a radius sweep once took the link sweep's 2..10
        # default and was rejected for varying both
        out = tmp_path / "radius.csv"
        rc = main(["sweep", "--radius", "10,20", "--tones", "3", "--trials", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert {r[2] for r in rows[1:]} == {str(ScenarioConfig().num_links)}
        assert len(rows) == 1 + 2 * 1 * 2  # two radii, one trial, two algorithms
        text = capsys.readouterr().out
        assert "# radius = 10.0 m" in text and "# radius = 20.0 m" in text


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["slots", "--signaling-levels", "1"], "smallcell slots: error: signaling_levels must be an integer >= 2"),
        (["slots", "--slots", "0"], "smallcell slots: error: num_slots must be an integer >= 1"),
        (["sim", "--tones", "0"], "smallcell sim: error: num_tones must be an integer >= 1"),
        (["sweep", "--links", "2,x"], "smallcell sweep: error: invalid literal for int()"),
        # these three once exited with status 1 and no error: prefix
        (["sim", "--links", "2", "--tones", "4", "--algos", "SOA,fastest"],
         "smallcell sim: error: unknown algorithm 'fastest'"),
        (["sim", "--algos", "FOO"], "smallcell sim: error: unknown algorithm 'FOO'"),
        (["sweep", "--links", "2,3", "--radius", "10,20", "--tones", "4"],
         "smallcell sweep: error: sweep varies links or radius, not both"),
        # this one once reported "no records to summarize"
        (["sim", "--algos", ","], "smallcell sim: error: no algorithm given"),
        (["sim", "--config", "no/such/dir/scenario.cfg"],
         "smallcell sim: error: [Errno 2] No such file or directory"),
    ])
    def test_rejected_input_is_a_one_line_usage_error(self, argv, message, capsys):
        # a ValueError from the library once ended in a traceback and exit status 1
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    SIM = "sim --tones 10 --algos SOA --trials 2"
    CONFIG_CASES = [
        # the first ended in an OverflowError traceback, the second reported
        # 0.000 Mbit/s, the third ended in a FloatingPointError traceback
        ("max_power_dbm = 4000", "max_power_mw from max_power_dbm is inf", SIM),
        ("noise_density_dbm_hz = 4000", "noise_power_mw from noise_density_dbm_hz and tone_bandwidth_hz is inf",
         SIM),
        ("shadow_sigma_db = 10000", "cross gains must be finite and non-negative", SIM),
        ("num_links = 2.5", "bad.cfg:1: num_links expects int, got '2.5'", SIM),
        # a full-budget SNR past the float range once scored inf or ended in
        # a FloatingPointError traceback
        ("noise_density_dbm_hz = -3200", "each link's full-budget SNR", SIM),
        # a codebook level times the budget past the float range once printed
        # numpy's overflow warnings and exited 0
        ("noise_density_dbm_hz = -3180", "max_power_mw times the top codebook level",
         "slots --links 16 --tones 64 --slots 1"),
    ]

    # each case is named by its line and message
    @pytest.mark.parametrize("line, message, command", CONFIG_CASES,
                             ids=[f"{line}-{message}" for line, message, _ in CONFIG_CASES])
    def test_rejected_config_file_is_a_one_line_usage_error(self, tmp_path, line, message, command, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        subcommand, *rest = command.split()
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--config", str(path), *rest])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"smallcell {subcommand}: error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
