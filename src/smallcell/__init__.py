"""Tone assignment and power allocation simulator for dense small cell links."""

__version__ = "0.1.0"

from .channel import ScenarioConfig, ChannelRealization, drop_topology, pathloss_db, realize_channels
from .signaling import (QuantizationTable, GainView, build_cdf_table, encode_powers, decode_levels,
                        run_signaling_slot)
from .tssolver import TSProblem, Allocation, SubgradientResult
from .tssolver import subgradient_solve, recover_primal
from .soa import assign_channels, soa_allocate
from .baselines import InterferenceAllocation, iwfa_solve, oracle_orthogonal, evaluate_concurrent
from .harness import TrialRecord, SlotState, run_experiment, run_distributed_slots, summarize
