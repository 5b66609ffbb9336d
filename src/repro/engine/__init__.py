"""Discrete-event simulation core shared by every architectural model,
plus the supervised-execution layer (error taxonomy, checkpointing,
fault injection, subprocess workers)."""

from .checkpoint import CHECKPOINT_VERSION, CheckpointStore
from .errors import (
    CellTimeoutError,
    CheckpointError,
    ConfigError,
    LivelockError,
    SimulationError,
    WorkerCrash,
    WorkloadError,
)
from .event_queue import EventQueue
from .faults import FaultKind, FaultPlan, FaultSpec, corrupt_file
from .resources import ResourcePool, SerialResource
from .simulator import Simulator
from .stats import Counter, Histogram, StatGroup, StatRegistry

__all__ = [
    "CHECKPOINT_VERSION",
    "CellTimeoutError",
    "CheckpointError",
    "CheckpointStore",
    "ConfigError",
    "Counter",
    "EventQueue",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "Histogram",
    "LivelockError",
    "ResourcePool",
    "SerialResource",
    "SimulationError",
    "Simulator",
    "StatGroup",
    "StatRegistry",
    "WorkerCrash",
    "WorkloadError",
    "corrupt_file",
]
