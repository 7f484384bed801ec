"""Per-core front-end engine, backends, L2 install policies and metrics."""

from repro.core.backends import (
    AUTO_BACKEND,
    BACKEND_NAMES,
    create_engine,
    resolve_backend,
)
from repro.core.engine import CoreEngine, EngineConfig
from repro.core.l2policy import (
    BYPASS_INSTALL,
    NORMAL_INSTALL,
    L2InstallPolicy,
    get_policy,
)
from repro.core.metrics import CoreStats, PrefetchStats

__all__ = [
    "AUTO_BACKEND",
    "BACKEND_NAMES",
    "create_engine",
    "resolve_backend",
    "CoreEngine",
    "EngineConfig",
    "L2InstallPolicy",
    "NORMAL_INSTALL",
    "BYPASS_INSTALL",
    "get_policy",
    "CoreStats",
    "PrefetchStats",
]
