"""Unit tests for the prefetcher registry."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro.prefetch
from repro.eval.catalog import CATALOG
from repro.eval.profiles import SCALES, get_scale
from repro.prefetch.base import NullPrefetcher, Prefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.registry import (
    PREFETCHER_NAMES,
    create_prefetcher,
    override_keys,
    prefetcher_display_name,
)
from repro.prefetch.sequential import NextNLineTagged


class TestRegistry:
    def test_all_names_constructible(self):
        for name in PREFETCHER_NAMES:
            assert isinstance(create_prefetcher(name), Prefetcher)

    def test_none_is_null(self):
        assert isinstance(create_prefetcher("none"), NullPrefetcher)

    def test_paper_scheme_set_present(self):
        for name in (
            "next-line-on-miss",
            "next-line-tagged",
            "next-4-line",
            "discontinuity",
            "discontinuity-2nl",
        ):
            assert name in PREFETCHER_NAMES

    def test_discontinuity_overrides(self):
        pf = create_prefetcher("discontinuity", table_entries=256, prefetch_ahead=3)
        assert isinstance(pf, DiscontinuityPrefetcher)
        assert pf.table.entries == 256
        assert pf.prefetch_ahead == 3

    def test_2nl_variant_pins_prefetch_ahead(self):
        pf = create_prefetcher("discontinuity-2nl", table_entries=512)
        assert pf.prefetch_ahead == 2
        assert pf.table.entries == 512

    def test_next_4_line(self):
        pf = create_prefetcher("next-4-line")
        assert isinstance(pf, NextNLineTagged)
        assert pf.degree == 4

    def test_irrelevant_overrides_ignored(self):
        pf = create_prefetcher("next-line-tagged", table_entries=64)
        assert pf.name == "next-line-tagged"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown prefetcher"):
            create_prefetcher("stride-gcc")

    def test_instances_are_fresh(self):
        a = create_prefetcher("discontinuity")
        b = create_prefetcher("discontinuity")
        assert a is not b
        assert a.table is not b.table

    def test_display_names(self):
        assert prefetcher_display_name("next-line-on-miss") == "Next-line (on miss)"
        assert prefetcher_display_name("discontinuity-2nl") == "Discont (2NL)"
        assert prefetcher_display_name("unregistered") == "unregistered"

    def test_every_prefetcher_class_is_registered(self):
        """Every concrete Prefetcher subclass in the package is what some
        registered name builds, so no family is unreachable from a RunSpec."""
        built = {type(create_prefetcher(name)) for name in PREFETCHER_NAMES}
        assert package_prefetcher_classes() - built == set()

    def test_every_prefetcher_module_is_walked(self):
        """A class in a module nothing else imports is still a candidate:
        every module of the package is imported before the walk."""
        walked = package_prefetcher_classes()
        for info in pkgutil.iter_modules(
            repro.prefetch.__path__, repro.prefetch.__name__ + "."
        ):
            module = sys.modules[info.name]
            for value in vars(module).values():
                if (
                    isinstance(value, type)
                    and issubclass(value, Prefetcher)
                    and value is not Prefetcher
                    and value.__module__ == module.__name__
                ):
                    assert value in walked, value

    def test_subclass_walk_is_transitive(self):
        class Base:
            pass

        class Child(Base):
            pass

        class GrandChild(Child):
            pass

        assert set(subclasses(Base)) == {Child, GrandChild}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def package_prefetcher_classes():
    """Every Prefetcher subclass defined in ``repro.prefetch``, however
    deeply derived, after importing every module of the package."""
    for info in pkgutil.iter_modules(
        repro.prefetch.__path__, repro.prefetch.__name__ + "."
    ):
        importlib.import_module(info.name)
    return {
        cls
        for cls in subclasses(Prefetcher)
        if cls.__module__.startswith(repro.prefetch.__name__ + ".")
    }


# --------------------------------------------------------------------- #
# Declared override keys
# --------------------------------------------------------------------- #


def test_branch_factories_forward_ras_and_history() -> None:
    for name in ("fdp", "shadow"):
        prefetcher = create_prefetcher(name, ras_entries=1, history_bits=0)
        assert prefetcher.ras.capacity == 1
        assert prefetcher.gshare._history_mask == 0


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_every_catalog_override_is_read_by_its_scheme(scale) -> None:
    """``RunSpec.create`` rejects unread keys, so building every spec at
    every scale proves the catalog passes none."""
    specs = [
        spec
        for experiment in CATALOG.values()
        for spec in experiment.specs(scale=get_scale(scale))
    ]
    with_overrides = [spec for spec in specs if spec.overrides]
    assert with_overrides
    for spec in with_overrides:
        assert set(spec.overrides) <= override_keys(spec.prefetcher), spec.describe()


def _literal_override_sites(tree: ast.AST):
    """(scheme, override keys) of every call in *tree* naming a literal
    ``prefetcher`` and a literal ``prefetcher_overrides``/``overrides`` dict."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kwargs = {keyword.arg: keyword.value for keyword in node.keywords}
        scheme = kwargs.get("prefetcher")
        overrides = kwargs.get("prefetcher_overrides", kwargs.get("overrides"))
        if isinstance(scheme, ast.Constant) and isinstance(overrides, ast.Dict):
            yield scheme.value, {key.value for key in overrides.keys}


def test_every_example_override_is_read_by_its_scheme() -> None:
    examples = Path(__file__).resolve().parents[2] / "examples"
    sites = [
        (path.name, scheme, keys)
        for path in sorted(examples.glob("*.py"))
        for scheme, keys in _literal_override_sites(ast.parse(path.read_text()))
    ]
    assert len(sites) >= 3
    for name, scheme, keys in sites:
        assert keys <= override_keys(scheme), (name, scheme, keys)
