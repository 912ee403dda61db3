"""Command line front end: sim, slots and sweep subcommands."""

import argparse
import sys

from .channel import ScenarioConfig, SCENARIOS, config_from_file
from .harness import (ALGORITHMS, run_experiment, run_distributed_slots,
                      summarize, render_summary, write_records_csv)
from .tssolver import POWER_MODES


def _add_scenario_flags(p, sweep=False):
    """Scenario flags; with sweep, --radius and --links take comma lists."""
    p.add_argument("--config", help="flat key=value scenario file; flags override it")
    p.add_argument("--scenario", choices=SCENARIOS)
    if sweep:
        p.add_argument("--radius", help="comma list of cell radii in meters to sweep")
        p.add_argument("--links", help="comma list of link counts to sweep (default 2..10; "
                       "a radius sweep keeps the scenario's count)")
    else:
        p.add_argument("--radius", type=float, help="cell radius in meters")
        p.add_argument("--links", type=int, help="number of links")
    p.add_argument("--tones", type=int, help="number of tones")
    p.add_argument("--seed", type=int, help="master seed")


def _add_experiment_flags(p):
    """The run_experiment flags that sim and sweep share."""
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--algos", default="SOA,IWFA", help="comma list from " + ",".join(ALGORITHMS))
    p.add_argument("--power-mode", choices=POWER_MODES, default="equal")
    p.add_argument("--signaling-overhead", type=float, default=0.0,
                   help="fraction of each slot spent signaling, discounts throughput")
    p.add_argument("--out", help="records CSV path")


def _build_cfg(args, links=None, radius=None):
    overrides = {
        "scenario": args.scenario,
        "cell_radius_m": radius if radius is not None else getattr(args, "radius", None),
        "num_links": links if links is not None else getattr(args, "links", None),
        "num_tones": args.tones,
        "rng_seed": args.seed,
    }
    if args.config:
        return config_from_file(args.config, **overrides)
    return ScenarioConfig(**{k: v for k, v in overrides.items() if v is not None})


def _parse_algos(text):
    """The names in a comma list; run_experiment rejects unknown ones and an empty list."""
    return [a.strip() for a in text.split(",") if a.strip()]


def _cmd_sim(args):
    return _run_points(args, [args.links], [args.radius])


def _cmd_slots(args):
    cfg = _build_cfg(args)
    states = run_distributed_slots(cfg, num_slots=args.slots, p_loss=args.loss_prob,
                                   giveup_probability=args.giveup_prob,
                                   signaling_levels=args.signaling_levels,
                                   power_mode=args.power_mode)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("slot,collisions,intended_bps,realized_bps\n")
            for st in states:
                fh.write(f"{st.slot_index},{len(st.collisions)},"
                         f"{st.intended_rate_bps.sum():.6f},{st.realized_rate_bps.sum():.6f}\n")
        print(f"wrote {len(states)} slots to {args.out}")
    first, last = states[0], states[-1]
    print(f"slots: {len(states)}  collisions first/last: {len(first.collisions)}/{len(last.collisions)}")
    print(f"realized throughput last slot: {last.realized_rate_bps.sum() / 1e6:.3f} Mbit/s")
    return 0


def _cmd_sweep(args):
    radius_list = [float(x) for x in args.radius.split(",")] if args.radius else [None]
    # 2..10 links by default, unless the radius is what varies
    default = [None] if len(radius_list) > 1 else range(2, 11)
    links_list = [int(x) for x in args.links.split(",")] if args.links else list(default)
    if len(links_list) > 1 and len(radius_list) > 1:
        raise ValueError("sweep varies links or radius, not both")
    return _run_points(args, links_list, radius_list)


def _run_points(args, links_list, radius_list):
    """Run every (radius, links) point; sim is the one-point case (None keeps the scenario's value)."""
    all_records = []
    for radius in radius_list:
        for links in links_list:
            cfg = _build_cfg(args, links=links, radius=radius)
            recs = run_experiment(cfg, _parse_algos(args.algos), trials=args.trials,
                                  power_mode=args.power_mode,
                                  signaling_overhead=args.signaling_overhead)
            all_records.extend(recs)
            if radius is not None and len(radius_list) > 1:
                print(f"# radius = {radius} m")
                print(render_summary(summarize(recs)))
    if args.out:
        write_records_csv(all_records, args.out)
        print(f"wrote {len(all_records)} records to {args.out}")
    if len(radius_list) == 1:
        print(render_summary(summarize(all_records)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="smallcell",
                                     description="Tone assignment and power allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="solve independent instances and record objectives")
    _add_scenario_flags(p_sim)
    _add_experiment_flags(p_sim)
    p_sim.set_defaults(func=_cmd_sim)

    p_slots = sub.add_parser("slots", help="run the slotted protocol with signaling losses")
    _add_scenario_flags(p_slots)
    p_slots.add_argument("--slots", type=int, default=20)
    p_slots.add_argument("--loss-prob", type=float, default=0.0)
    p_slots.add_argument("--giveup-prob", type=float, default=0.5)
    p_slots.add_argument("--signaling-levels", type=int, default=16)
    p_slots.add_argument("--power-mode", choices=POWER_MODES, default="equal")
    p_slots.add_argument("--out", help="per-slot CSV path")
    p_slots.set_defaults(func=_cmd_slots)

    p_sweep = sub.add_parser("sweep", help="repeat sim over link counts or radii")
    _add_scenario_flags(p_sweep, sweep=True)
    _add_experiment_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # input the library rejects, or a path it cannot open, is a usage
        # error, reported the way argparse reports its own: one line and exit status 2
        command = sub.choices[args.command]
        command.exit(2, f"{command.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
