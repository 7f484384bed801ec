"""Engine backend selection.

Two interchangeable engine implementations exist:

``reference``
    :class:`~repro.core.engine.CoreEngine` — the plain per-visit
    interpreter.  Always available; its source is the readable
    specification of the simulation semantics.
``jit``
    :class:`~repro.core.jitted.JittedCoreEngine` — the per-visit scalar
    semantics compiled to native code (requires a C compiler on PATH;
    the kernel is built once and cached).  Bit-identical results; its
    multi-core interleave loop also runs compiled.

Selection: an explicit backend name (``EngineConfig``/``RunSpec``/CLI
``--backend``) wins; ``"auto"`` defers to the ``REPRO_ENGINE_BACKEND``
environment variable; unset means ``reference`` on single-core systems
and ``jit`` (when its kernel is buildable, else ``reference``) on
multi-core ones.  Requesting ``jit`` without a C compiler falls back to
``reference`` with a logged warning — results are identical either way,
only slower.

The backend never affects simulated results, so it is deliberately *not*
part of a run's cache key (``RunSpec.canonical_dict``) — cached results
are shared across backends.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from repro.core.engine import CoreEngine
from repro.envvars import REPRO_ENGINE_BACKEND

logger = logging.getLogger(__name__)

#: environment variable consulted when the backend is ``"auto"``.
ENGINE_BACKEND_ENV = REPRO_ENGINE_BACKEND

#: the selectable backends.
BACKEND_NAMES = ("reference", "jit")

#: sentinel meaning "defer to the environment, else pick by core count".
AUTO_BACKEND = "auto"


def validate_backend(name: str) -> None:
    """Reject anything but a concrete backend name or ``"auto"``."""
    if name not in BACKEND_NAMES and name != AUTO_BACKEND:
        raise ValueError(
            f"unknown engine backend {name!r}; available: "
            f"{', '.join(BACKEND_NAMES)} (or {AUTO_BACKEND!r})"
        )


def resolve_backend(name: Optional[str] = None, n_cores: int = 1) -> str:
    """Resolve an explicit/auto backend request to a concrete name.

    The request is the explicit *name*, or else (``auto``/None/empty) the
    ``REPRO_ENGINE_BACKEND`` value; either is validated the same way for
    every core count.  A request that is still ``auto`` (or unset)
    resolves to ``reference`` on one core and to ``jit`` if its kernel
    is buildable, else ``reference``, on more — only jit runs the
    multi-core interleave loop compiled.
    """
    if not name or name == AUTO_BACKEND:
        name = os.environ.get(ENGINE_BACKEND_ENV, "") or AUTO_BACKEND
    validate_backend(name)
    if name == AUTO_BACKEND:
        if n_cores > 1 and _jit_available():
            return "jit"
        return "reference"
    return name


def _jit_available() -> bool:
    """True when the jit backend's compiled kernel is usable here."""
    try:
        from repro.core import jitted
    except ImportError:
        return False
    return jitted.jit_available()


_jit_fallback_warned = False


def _jitted_engine_cls():
    """Import the jit backend, or None when its kernel can't be built."""
    global _jit_fallback_warned
    try:
        from repro.core.jitted import JittedCoreEngine, jit_available
    except ImportError:
        jit_ok = False
    else:
        jit_ok = jit_available()
        if jit_ok:
            return JittedCoreEngine
    if not _jit_fallback_warned:
        logger.warning(
            "jit engine backend unavailable (no C compiler or kernel build "
            "failed); falling back to the reference backend"
        )
        _jit_fallback_warned = True
    return None


def create_engine(
    backend, config, trace, line_size, l1i, l1d, l2, link, prefetcher, queue, timing,
    n_cores: int = 1,
):
    """Construct the requested engine backend over the given components.

    *backend* may be a concrete name, ``"auto"``, or None (same as auto);
    *n_cores* is the size of the system this engine joins — multi-core
    ``auto`` prefers ``jit``, falling back to ``reference``.
    """
    engine_cls = None
    if resolve_backend(backend, n_cores=n_cores) == "jit":
        engine_cls = _jitted_engine_cls()
    if engine_cls is not None:
        return engine_cls(
            config, trace, line_size, l1i, l1d, l2, link, prefetcher, queue, timing
        )
    return CoreEngine(config, trace, line_size, l1i, l1d, l2, link, prefetcher, queue, timing)
