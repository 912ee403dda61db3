import csv

import pytest

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


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["slots", "--signaling-levels", "1"], "smallcell slots: error: need at least two quantization levels"),
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
