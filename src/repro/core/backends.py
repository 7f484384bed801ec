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
environment variable; unset means ``jit`` when its kernel is buildable
and ``reference`` otherwise, on every core count.  Requesting ``jit``
without a C compiler falls back to ``reference`` with one logged warning
(from the kernel probe, naming the cause) — results are identical either
way, only slower.

The backend never affects simulated results, so it is deliberately *not*
part of a run's cache key (``RunSpec.canonical_dict``) — cached results
are shared across backends.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.engine import CoreEngine
from repro.envvars import REPRO_ENGINE_BACKEND

#: the selectable backends.
BACKEND_NAMES = ("reference", "jit")

#: sentinel meaning "defer to the environment, else jit if buildable".
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
    ``REPRO_ENGINE_BACKEND`` value; either is validated the same way.  A
    request that is still ``auto`` (or unset) resolves to ``jit`` if its
    kernel is buildable, else ``reference``.  *n_cores* no longer changes
    the answer — one rule covers every core count — and is kept only so
    existing positional callers still work.
    """
    if not name or name == AUTO_BACKEND:
        name = os.environ.get(REPRO_ENGINE_BACKEND, "") or AUTO_BACKEND
    validate_backend(name)
    if name == AUTO_BACKEND:
        return "jit" if _jit_available() else "reference"
    return name


def _jit_available() -> bool:
    """True when the jit backend's compiled kernel is usable here.

    The kernel probe itself logs the one warning (naming the cause) when
    the kernel cannot be built.
    """
    try:
        from repro.core import jitted
    except ImportError:
        return False
    return jitted.jit_available()


def create_engine(
    backend, config, trace, line_size, l1i, l1d, l2, link, prefetcher, queue, timing
):
    """Construct the requested engine backend over the given components.

    *backend* may be a concrete name, ``"auto"``, or None (same as auto);
    a ``jit`` request whose kernel cannot be built gets the reference
    engine.
    """
    if resolve_backend(backend) == "jit" and _jit_available():
        from repro.core.jitted import JittedCoreEngine

        return JittedCoreEngine(
            config, trace, line_size, l1i, l1d, l2, link, prefetcher, queue, timing
        )
    return CoreEngine(config, trace, line_size, l1i, l1d, l2, link, prefetcher, queue, timing)
