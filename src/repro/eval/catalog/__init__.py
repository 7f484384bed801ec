"""The declarative experiment catalog.

Every experiment in this repo is declared once, as a module-level
:class:`repro.eval.experiment.Experiment` in one of the modules listed
in :data:`CATALOG_MODULES`; declaring it is registering it.  This
package assembles the declarations, module by module and in
declaration order, into :data:`CATALOG`, the single name → experiment
mapping the registry, CLI, benchmarks and docs all introspect.
Underscore-prefixed modules (``_util``) are plumbing and carry no
declarations.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, List, Sequence, Tuple

from repro.eval.catalog import ablations, comparisons, figures, replication, scenarios
from repro.eval.experiment import Experiment

#: the catalog modules, in registry order.
CATALOG_MODULES: Tuple[ModuleType, ...] = (
    figures,
    ablations,
    comparisons,
    replication,
    scenarios,
)


def _declarations(module: ModuleType) -> List[Experiment]:
    """The module's top-level ``Experiment`` instances, in declaration order."""
    return [value for value in vars(module).values() if isinstance(value, Experiment)]


def _build_catalog(
    modules: Sequence[ModuleType] = CATALOG_MODULES,
) -> Dict[str, Experiment]:
    catalog: Dict[str, Experiment] = {}
    for module in modules:
        for experiment in _declarations(module):
            if experiment.name in catalog:
                raise ValueError(
                    f"duplicate experiment name {experiment.name!r} "
                    f"(redeclared in catalog module {module.__name__!r})"
                )
            for field in ("panels", "expectations"):
                if not getattr(experiment, field):
                    raise ValueError(
                        f"experiment {experiment.name!r} in {module.__name__!r} "
                        f"declares no {field}; a catalog entry must assert something"
                    )
            catalog[experiment.name] = experiment
    return catalog


#: every declared experiment, name → definition, in registry order.
CATALOG: Dict[str, Experiment] = _build_catalog()

__all__ = ["CATALOG", "CATALOG_MODULES"]
