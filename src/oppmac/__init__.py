"""Joint uplink/downlink opportunistic scheduling for infrastructure WLANs:
channel-keyed backoff MAC simulator and its renewal-reward analysis."""

from .core import (
    AP,
    STA,
    ChannelSpace,
    MacTiming,
    ParameterError,
    SystemConfig,
    TimerPolicy,
    state_probabilities,
)
from .kernels import ConsistencyError, KernelTable, build_kernels
from .analysis import AnalysisSolution, CycleModel, cycle_models, fixed_points

__all__ = [
    "AP", "STA", "ChannelSpace", "MacTiming", "ParameterError", "SystemConfig",
    "TimerPolicy", "state_probabilities",
    "ConsistencyError", "KernelTable", "build_kernels", "AnalysisSolution",
    "CycleModel", "cycle_models", "fixed_points",
]

__version__ = "0.1.0"
