"""R4 (executor boundary): worker-payload builders may only construct
JSON-safe plain data."""

from __future__ import annotations

from repro.lint.rules import ExecutorBoundaryRule
from tests.unit.conftest import write_tree_file

DISKCACHE_WITH_SET = """
    from repro.version import code_hash


    def _config_to_dict(config):
        return {"n_cores": config.n_cores}


    def _core_to_dict(core):
        return {"instructions": core.instructions,
                "classes": set(core.classes)}


    def _link_to_dict(link):
        return {"requests": link.requests}


    def result_to_payload(result, spec=None):
        return {
            "schema": code_hash(),
            "config": _config_to_dict(result.config),
            "cores": [_core_to_dict(core) for core in result.cores],
            "link": _link_to_dict(result.link),
        }
    """

#: the fix R4's hint asks for: sets become sorted lists.
DISKCACHE_FIXED = DISKCACHE_WITH_SET.replace(
    "set(core.classes)", "sorted(core.classes)"
)


def test_base_tree_is_clean(lint_tree):
    assert ExecutorBoundaryRule().check(lint_tree()) == []


def test_set_in_payload_builder_fails(lint_tree):
    project = lint_tree({"src/repro/eval/diskcache.py": DISKCACHE_WITH_SET})
    violations = ExecutorBoundaryRule().check(project)
    assert len(violations) == 1
    assert "set()" in violations[0].message
    assert "'_core_to_dict'" in violations[0].message
    assert "sorted lists" in violations[0].hint


def test_fix_it_hint_resolves_the_violation(lint_tree):
    project = lint_tree({"src/repro/eval/diskcache.py": DISKCACHE_WITH_SET})
    assert ExecutorBoundaryRule().check(project) != []
    project = write_tree_file(
        project.root, "src/repro/eval/diskcache.py", DISKCACHE_FIXED
    )
    assert ExecutorBoundaryRule().check(project) == []


def test_lambda_and_set_literal_in_worker_fail(lint_tree):
    project = lint_tree(
        {
            "src/repro/eval/executor.py": """
            from repro.eval import diskcache


            def _worker(spec):
                tags = {spec.workload}
                thunk = lambda: diskcache.result_to_payload(spec.simulate(), spec)
                return {"payload": thunk(), "tags": tags}
            """
        }
    )
    messages = [v.message for v in ExecutorBoundaryRule().check(project)]
    assert any("lambda" in message for message in messages)
    assert any("set constructed" in message for message in messages)


def test_class_instance_in_payload_fails(lint_tree):
    overrides = {
        "src/repro/eval/executor.py": """
        from repro.eval import diskcache
        from repro.eval.wrapper import Payload


        def _worker(spec):
            return Payload(diskcache.result_to_payload(spec.simulate(), spec))


        def report_to_summary(report):
            return {"event": "sweep", "total": report.total}
        """
    }
    project = lint_tree(overrides)
    violations = ExecutorBoundaryRule().check(project)
    assert len(violations) == 1
    assert "Payload()" in violations[0].message


def test_sweep_summary_builder_is_guarded(lint_tree):
    """report_to_summary is an R4 target: non-plain data in it fails lint."""
    project = lint_tree(
        {
            "src/repro/eval/executor.py": """
            from repro.eval import diskcache


            def _worker(spec):
                return diskcache.result_to_payload(spec.simulate(), spec)


            def report_to_summary(report):
                return {"event": "sweep", "labels": set(report.labels)}
            """
        }
    )
    violations = ExecutorBoundaryRule().check(project)
    assert len(violations) == 1
    assert "'report_to_summary'" in violations[0].message
    assert "set()" in violations[0].message


def test_renamed_builder_is_reported(lint_tree):
    project = lint_tree(
        {
            "src/repro/eval/executor.py": """
            from repro.eval import diskcache


            def _worker_v2(spec):
                return diskcache.result_to_payload(spec.simulate(), spec)


            def report_to_summary(report):
                return {"event": "sweep", "total": report.total}
            """
        }
    )
    violations = ExecutorBoundaryRule().check(project)
    assert len(violations) == 1
    assert "'_worker' not found" in violations[0].message
    assert "ExecutorBoundaryRule.TARGETS" in violations[0].hint
