"""Unit tests for the prefetcher registry."""

import importlib
import pkgutil
import sys

import pytest

import repro.prefetch
from repro.prefetch.base import NullPrefetcher, Prefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.registry import (
    PREFETCHER_NAMES,
    create_prefetcher,
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
