"""Simulated distributed runtime: machine model, accounting, Global Arrays."""

from repro.runtime.collectives import allreduce, barrier, broadcast, reduce_scatter
from repro.runtime.event import EventQueue
from repro.runtime.faults import FaultError, FaultPlan, FaultState, random_plan
from repro.runtime.ga import GlobalArray, block_bounds, grid_shape
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats

__all__ = [
    "allreduce",
    "barrier",
    "broadcast",
    "reduce_scatter",
    "EventQueue",
    "FaultError",
    "FaultPlan",
    "FaultState",
    "random_plan",
    "GlobalArray",
    "block_bounds",
    "grid_shape",
    "LONESTAR",
    "MachineConfig",
    "CommStats",
]
