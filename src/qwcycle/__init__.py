"""Exact asymptotics of coined quantum walks on N-cycles.

The package computes, in closed form, the quantities a discrete-time coined
walk on a cycle settles into under time averaging — the limiting position
distribution, the asymptotic reduced coin density matrix, and the
entanglement temperature read off from its spectrum — and ships a
brute-force evolution oracle to check every closed form against.
"""

from .angles import canonicalize, parse_angle
from .asymptotics import asymptotic_reduced_density, limiting_distribution
from .coin import CoinParams, build_coin, diaz_params, hadamard_params, parse_coin
from .evolution import evolve, time_avg_distribution, time_avg_reduced_density
from .reference import degeneracy_table, solve_all_blocks  # read by bench/run.py; not in __all__
from .state import (
    Bloch,
    EntangledPair,
    Local,
    Raw,
    SeparablePair,
    WalkState,
    make_state,
    momentum_spinors,
    parse_state,
)
from .thermo import (
    ScanGrid,
    TemperatureResult,
    bloch_temperature_scan,
    coin_phase_temperature_scan,
    entanglement_temperature,
    temperature_ratio,
)
from .verify import VerifyConfig, VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "Bloch",
    "CoinParams",
    "EntangledPair",
    "Local",
    "Raw",
    "ScanGrid",
    "SeparablePair",
    "TemperatureResult",
    "VerifyConfig",
    "VerifyReport",
    "WalkState",
    "asymptotic_reduced_density",
    "bloch_temperature_scan",
    "build_coin",
    "canonicalize",
    "coin_phase_temperature_scan",
    "diaz_params",
    "entanglement_temperature",
    "evolve",
    "hadamard_params",
    "limiting_distribution",
    "make_state",
    "momentum_spinors",
    "parse_angle",
    "parse_coin",
    "parse_state",
    "run_verification",
    "temperature_ratio",
    "time_avg_distribution",
    "time_avg_reduced_density",
]
