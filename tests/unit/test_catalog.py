"""The experiment catalog is assembled from module-level declarations.

Declaring an ``Experiment`` at the top level of a catalog module is what
registers it; these tests pin the checks the assembly keeps at runtime.
"""

import dataclasses
import pkgutil
import types

import pytest

import repro.eval.catalog as catalog
from repro.eval.catalog import CATALOG_MODULES, _build_catalog
from repro.eval.experiment import Band, Experiment, Grid, PanelDef


def experiment(name, **overrides):
    fields = dict(
        name=name,
        title=f"experiment {name}",
        paper="Figure 0",
        tags=("test",),
        grid=Grid(axes=(), build=None),
        panels=(
            PanelDef(
                id="p1",
                title="panel",
                rows=(("a", "a"),),
                cols=(("x", "x"),),
                cell=lambda runs, row, col: 0.0,
            ),
        ),
        expectations=(Band(panel="p1", lo=0.0),),
    )
    fields.update(overrides)
    return Experiment(**fields)


def module_with(name, **declarations):
    module = types.ModuleType(name)
    vars(module).update(declarations)
    return module


def test_catalog_modules_are_every_public_module():
    found = {
        f"{catalog.__name__}.{info.name}"
        for info in pkgutil.iter_modules(catalog.__path__)
        if not info.name.startswith("_")
    }
    names = [module.__name__ for module in CATALOG_MODULES]
    assert len(names) == len(set(names))
    assert set(names) == found


def test_underscore_modules_are_not_catalog_modules():
    plumbing = {
        f"{catalog.__name__}.{info.name}"
        for info in pkgutil.iter_modules(catalog.__path__)
        if info.name.startswith("_")
    }
    assert f"{catalog.__name__}._util" in plumbing
    assert plumbing.isdisjoint(module.__name__ for module in CATALOG_MODULES)


def test_declarations_are_collected_in_order():
    module = module_with("m", SECOND=experiment("b"), helper=1, FIRST=experiment("a"))
    assert list(_build_catalog([module])) == ["b", "a"]


def test_duplicate_name_raises():
    modules = [module_with("m1", A=experiment("a")), module_with("m2", B=experiment("a"))]
    with pytest.raises(ValueError, match="duplicate experiment name 'a'.*'m2'"):
        _build_catalog(modules)


@pytest.mark.parametrize("field", ["panels", "expectations"])
def test_entry_without_panels_or_expectations_raises(field):
    module = module_with("m", A=experiment("a", **{field: ()}))
    with pytest.raises(ValueError, match=f"declares no {field}"):
        _build_catalog([module])


def test_every_descriptive_field_is_required():
    required = [
        field.name
        for field in dataclasses.fields(Experiment)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    ]
    assert required == [
        "name", "title", "paper", "tags", "grid", "panels", "expectations",
    ]

