import csv
import shlex

import pytest

from smallcell.channel import ScenarioConfig
from smallcell.cli import main
from smallcell.harness import CSV_COLUMNS, run_distributed_slots

SLOT_COLUMNS = ("slot", "collisions", "intended_bps", "realized_bps")


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _link_counts(*counts):
    def check(rows):
        assert {r["num_links"] for r in rows} == {str(n) for n in counts}
    return check


def _realized_at_most_intended(rows):
    for r in rows:
        assert float(r["realized_bps"]) <= float(r["intended_bps"]) + 1e-6


def _slots_0_to_5(rows):
    assert [r["slot"] for r in rows] == [str(n) for n in range(6)]


def _oracle_row_empty_beside_soa(rows):
    by_algorithm = {r["algorithm"]: r for r in rows}
    solve = ("objective_bps", "runtime_us", "iterations")
    assert not any(by_algorithm["Oracle"][f] for f in solve)
    assert all(by_algorithm["SOA"][f] for f in solve)


def _objectives(rows):
    """Each trial's objective per algorithm."""
    trials = {}
    for r in rows:
        trials.setdefault(r["trial_id"], {})[r["algorithm"]] = float(r["objective_bps"])
    return trials


def _oracle_at_least_soa(rows):
    (objective,) = _objectives(rows).values()
    assert objective["Oracle"] >= objective["SOA"] * (1 - 1e-9)


def _dual_at_most_oracle(rows):
    trials = _objectives(rows)
    assert len(trials) == 3
    for objective in trials.values():
        assert objective["TS-Subgradient"] <= objective["Oracle"] * (1 + 1e-9)


class TestCommands:
    # each command runs with --out; its CSV must have the subcommand's header
    # and the given number of rows, and stdout must name that count and say
    # each phrase; check, if any, reads the rows as dicts
    CASES = [
        pytest.param("sim --links 3 --tones 4 --trials 3 --seed 9", 3 * 2, ("SOA", "IWFA"), None,
                     id="sim"),
        # both water fills: the core, which power_phase (SOA, dual recovery, the
        # Oracle's final allocation) and IWFA call, and _water_fill_rows, which
        # builds the Oracle's table
        pytest.param("sim --links 3 --tones 4 --trials 2 --power-mode waterfill "
                     "--algos SOA,IWFA,TS-Subgradient,Oracle", 2 * 4, (), None, id="sim-waterfill"),
        pytest.param("sim --links 4 --tones 10 --trials 1 --algos SOA,Oracle", 2, (),
                     _oracle_row_empty_beside_soa, id="oracle-past-its-guard"),
        # the Oracle's chunked subset table, 4,095 subset fills
        pytest.param("sim --links 1 --tones 12 --trials 1 --algos SOA,Oracle --power-mode waterfill", 2, (),
                     _oracle_at_least_soa, id="oracle-1x12"),
        pytest.param("sim --algos SOA,TS-Subgradient,Oracle --links 2 --tones 3 --trials 3", 3 * 3, (),
                     _dual_at_most_oracle, id="sandwich"),
        pytest.param("sweep --links 2,3 --tones 4 --trials 2 --seed 5", 2 * 2 * 2, ("SOA",),
                     _link_counts(2, 3), id="sweep"),
        pytest.param("sweep --links 2 --tones 4 --trials 1 --radius 25,50", 2 * 2,
                     ("# radius = 25.0 m", "# radius = 50.0 m"), None, id="sweep-radius"),
        # without --links, a radius sweep once took the link sweep's 2..10
        # default and was rejected for varying both; an empty --links once
        # reached the config as the string ''
        *(pytest.param(f"sweep --radius 10,20 {links} --tones 3 --trials 1", 2 * 2,
                       ("# radius = 10.0 m", "# radius = 20.0 m"), _link_counts(ScenarioConfig().num_links),
                       id=f"sweep-radius-{name}")
          for name, links in (("links-absent", ""), ("links-empty", "--links ''"))),
        pytest.param("slots --links 3 --tones 6 --slots 5 --loss-prob 0.2 --seed 3", 5, ("slots: 5",),
                     _realized_at_most_intended, id="slots"),
        pytest.param("slots --links 2 --tones 4 --slots 3", 3, ("collisions first/last: 0/0",), None,
                     id="slots-lossless"),
        pytest.param("slots --links 6 --tones 12 --slots 5 --loss-prob 0.3 --power-mode waterfill", 5, (), None,
                     id="slots-waterfill"),
        # the water-filled power phase over a stack of up to 16 rows, which no
        # benchmark workload runs (dense-slots splits power equally)
        pytest.param("slots --links 16 --tones 64 --slots 6 --loss-prob 0.1 --power-mode waterfill", 6, (),
                     _slots_0_to_5, id="slots-dense-waterfill"),
    ]

    @pytest.mark.parametrize("command, rows, says, check", CASES)
    def test_command_writes_its_csv_and_summary(self, tmp_path, capsys, command, rows, says, check):
        out = tmp_path / "out.csv"
        subcommand, *rest = shlex.split(command)
        assert main([subcommand, *rest, "--out", str(out)]) == 0
        header, *body = read_csv(out)
        assert tuple(header) == (SLOT_COLUMNS if subcommand == "slots" else CSV_COLUMNS)
        assert len(body) == rows
        text = capsys.readouterr().out
        assert f"wrote {rows} {'slots' if subcommand == 'slots' else 'records'} to {out}" in text
        assert all(phrase in text for phrase in says), text
        if check:
            check([dict(zip(header, row)) for row in body])


class TestSim:
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
    def test_links_flag_beats_the_config_file(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("num_links = 9\n")
        seen = []

        def run(cfg, **kwargs):
            seen.append(cfg)
            return run_distributed_slots(cfg, **kwargs)
        monkeypatch.setattr("smallcell.cli.run_distributed_slots", run)
        rc = main(["slots", "--config", str(cfg_file), "--links", "3", "--tones", "4", "--slots", "1"])
        assert rc == 0
        assert [cfg.num_links for cfg in seen] == [3]


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
        # a noise power whose direct gains overflow once printed numpy's
        # overflow warning before the error line
        ("noise_density_dbm_hz = -3230", "direct gains cross_gain[i, i, k] / 1.8e-318 overflow",
         "sim --links 2 --tones 3 --trials 1"),
        # the codebook's gain samples underflow and overflow the same two
        # ways; they once printed numpy's overflow warnings before the error line
        ("shadow_sigma_db = 10000", "gain samples must be finite and positive, got 0.0",
         "slots --links 4 --tones 10"),
        ("noise_density_dbm_hz = -3230", "gain samples must be finite and positive, got inf",
         "slots --links 2 --tones 3"),
        # a box edge K * weight / budget or a step scale lam0 / budget past the
        # float range once ended in a FloatingPointError traceback
        ("max_power_dbm = -3080", "link 0's multiplier box edge",
         "sim --links 4 --tones 10 --trials 1 --algos SOA,TS-Subgradient"),
        ("noise_density_dbm_hz = -3170\nmax_power_dbm = -3000", "step scale lam0 / budget (inf)",
         "sim --links 3 --tones 4 --trials 1 --algos SOA,TS-Subgradient"),
        # endpoint distances squared past the float range once printed numpy's
        # overflow warning
        ("cell_radius_m = 1e160", "cell_radius_m must be at most", SIM),
        # a repeated key once took its last value
        ("num_links = 2\nnum_links = 5", "bad.cfg:2: num_links given twice (first on line 1)", SIM),
        # counts past the float range once ended in an OverflowError traceback
        ("num_floors = 1" + "0" * 400, "num_floors must be at most", "sim"),
        ("num_walls = 1" + "0" * 400, "num_walls must be at most", "sim"),
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
