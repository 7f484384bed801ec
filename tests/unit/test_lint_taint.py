"""R8 (determinism taint): values originating at forbidden sources must
never flow into RunSpec-keyed state.

These tests exercise the def-use dataflow in :mod:`repro.lint.dataflow`
through the rule: direct tainted arguments, taint carried through
assignments, sanitizers, unordered-set iteration, and loop back-edges.
"""

from __future__ import annotations

from repro.lint.rules import DeterminismTaintRule

TAINTED_MODULE = "src/repro/eval/driver.py"


def check(project):
    return DeterminismTaintRule().check(project)


def one(violations):
    assert len(violations) == 1, [v.format() for v in violations]
    return violations[0]


def test_base_tree_is_taint_free(lint_tree):
    assert check(lint_tree()) == []


def test_clock_value_through_a_variable_reaches_runspec(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec


                def make_spec(workload):
                    seed = int(time.time())
                    return RunSpec(workload=workload, n_cores=1, seed=seed)
                """
        }
    )
    finding = one(check(project))
    assert finding.path == TAINTED_MODULE
    assert "value from time.time()" in finding.message
    assert "flows into RunSpec(...)" in finding.message
    assert "via 'seed'" in finding.message
    assert "nondeterministic" in finding.message


def test_direct_tainted_argument_is_flagged(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec


                def make_spec(workload):
                    return RunSpec(workload=workload, n_cores=1,
                                   seed=time.time_ns())
                """
        }
    )
    finding = one(check(project))
    assert "time.time_ns()" in finding.message
    assert "via" not in finding.message  # no variable carried it


def test_random_module_call_reaches_derive_seed(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import random

                from repro.util.rng import derive_seed


                def pick(base):
                    draw = random.randint(0, 10)
                    return derive_seed(base, draw)
                """
        }
    )
    finding = one(check(project))
    assert "random.randint()" in finding.message
    assert "derive_seed(...)" in finding.message


def test_set_iteration_reaches_run_system(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                from repro.eval.runner import run_system


                def sweep():
                    workloads = {"db", "web"}
                    results = []
                    for workload in workloads:
                        results.append(run_system(workload, 1))
                    return results
                """
        }
    )
    finding = one(check(project))
    assert "iteration over an unordered set" in finding.message
    assert "run_system(...)" in finding.message
    assert "via 'workload'" in finding.message


def test_sorted_sanitizes_set_iteration(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                from repro.eval.runner import run_system


                def sweep():
                    workloads = {"db", "web"}
                    results = []
                    for workload in sorted(workloads):
                        results.append(run_system(workload, 1))
                    return results
                """
        }
    )
    assert check(project) == []


def test_sanitizer_launders_clock_taint(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec


                def make_spec(samples):
                    noisy = [time.time() for _ in samples]
                    count = len(noisy)
                    return RunSpec(workload="db", n_cores=1, seed=count)
                """
        }
    )
    assert check(project) == []


def test_reassignment_clears_taint(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec


                def make_spec():
                    seed = int(time.time())
                    seed = 7
                    return RunSpec(workload="db", n_cores=1, seed=seed)
                """
        }
    )
    assert check(project) == []


def test_loop_carried_taint_is_found_on_the_second_pass(lint_tree):
    # ``seed`` is tainted *after* the sink in source order; only the
    # second walk (with the first walk's taint state) sees the back-edge.
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec


                def loop(n, seed):
                    spec = None
                    for _ in range(n):
                        spec = RunSpec(workload="db", n_cores=1, seed=seed)
                        seed = int(time.time())
                    return spec
                """
        }
    )
    finding = one(check(project))
    assert "time.time()" in finding.message
    assert "via 'seed'" in finding.message


def test_reinitialized_loop_variable_is_clean(lint_tree):
    # Re-initializing before the loop cuts the back-edge: the second
    # pass re-clears ``seed`` at the top, so no flow survives.
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec


                def loop(n):
                    seed = 0
                    spec = None
                    for _ in range(n):
                        spec = RunSpec(workload="db", n_cores=1, seed=seed)
                        seed = int(time.time())
                        seed = 0
                    return spec
                """
        }
    )
    assert check(project) == []


def test_module_level_flows_are_scanned(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runspec import RunSpec

                BOOT_SEED = int(time.time())
                SPEC = RunSpec(workload="db", n_cores=1, seed=BOOT_SEED)
                """
        }
    )
    finding = one(check(project))
    assert "via 'BOOT_SEED'" in finding.message


def test_r1_allowlisted_scripts_are_scanned_too(lint_tree):
    # R8 has no allowlist: the benchmark harness may read the clock (R1
    # exempts it), but a clock value must not reach a spec even there.
    project = lint_tree(
        {
            "scripts/profile_engine.py": """
                import time

                from repro.eval.runspec import RunSpec


                def make_spec():
                    return RunSpec(workload="db", n_cores=1,
                                   seed=time.time_ns())
                """
        }
    )
    assert one(check(project)).path == "scripts/profile_engine.py"


def test_nested_sinks_report_one_flow_at_the_innermost(lint_tree):
    """``run_system(RunSpec.create(..., seed=clock))`` is one flow: it is
    reported once, at ``RunSpec.create``, not again at ``run_system``."""
    project = lint_tree(
        {
            TAINTED_MODULE: """
                import time

                from repro.eval.runner import run_system
                from repro.eval.runspec import RunSpec


                def run(workload):
                    return run_system(
                        RunSpec.create(workload, 1, "none",
                                       seed=int(time.time())))
                """
        }
    )
    finding = one(check(project))
    assert "flows into RunSpec.create(...)" in finding.message
    assert "time.time()" in finding.message


def test_untainted_spec_construction_is_clean(lint_tree):
    project = lint_tree(
        {
            TAINTED_MODULE: """
                from repro.eval.runspec import RunSpec
                from repro.util.rng import derive_seed


                def make_spec(workload, base_seed, core):
                    return RunSpec(workload=workload, n_cores=1,
                                   seed=derive_seed(base_seed, core))
                """
        }
    )
    assert check(project) == []
