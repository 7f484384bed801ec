"""R7 (env registry): every ``REPRO_*`` environment read routes through a
declared ``repro.envvars`` constant.  The registry's own shape and the docs
table it renders are checked by importing it (``test_envvars.py``); the last
cases here break the imported registry to show those checks catch it."""

from __future__ import annotations

from repro import envvars
from repro.lint.engine import Project
from repro.lint.rules import EnvRegistryRule
from scripts import gen_env_docs
from tests.unit.test_envvars import REPO_ROOT, committed_block, registry_problems

REGISTRY_MODULE = "src/repro/envvars.py"
READER_MODULE = "src/repro/eval/report.py"

REGISTRY_OK = """
    from typing import NamedTuple, Tuple

    REPRO_PROFILE = "REPRO_PROFILE"
    REPRO_JOBS = "REPRO_JOBS"


    class EnvVar(NamedTuple):
        name: str
        default: str
        description: str


    REGISTRY: Tuple[EnvVar, ...] = (
        EnvVar(REPRO_PROFILE, "`default`", "Experiment scale."),
        EnvVar(REPRO_JOBS, "CPU count", "Worker processes."),
    )
    """

CLEAN_READER = """
    import os

    from repro.envvars import REPRO_PROFILE


    def scale():
        return os.environ.get(REPRO_PROFILE, "default")
    """


def check(project: Project):
    return EnvRegistryRule().check(project)


def test_clean_registry_and_constant_routed_access(lint_tree):
    project = lint_tree(
        {REGISTRY_MODULE: REGISTRY_OK, READER_MODULE: CLEAN_READER}
    )
    assert check(project) == []


def test_undeclared_literal_key_is_flagged_without_a_fix(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                def flag():
                    return os.environ.get("REPRO_NOPE", "")
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    assert violations[0].path == READER_MODULE
    assert "'REPRO_NOPE'" in violations[0].message
    assert "not declared" in violations[0].message


def test_declared_literal_key_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                def jobs():
                    return os.environ.get("REPRO_JOBS", "1")
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    finding = violations[0]
    assert finding.line == 5
    assert "string literal instead of its registry constant" in finding.message
    assert "from repro.envvars import" in finding.hint


def test_any_literal_spelling_of_a_name_is_flagged(lint_tree):
    # Not only env-access keys: a literal anywhere in a scanned module
    # (here a dict value handed to a subprocess) spells the name twice.
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            "scripts/launch.py": """
                import subprocess

                def launch(jobs):
                    env = {"REPRO_JOBS": str(jobs)}
                    return subprocess.run(["repro-experiment"], env=env)
                """,
        }
    )
    violations = check(project)
    assert [(v.path, v.line) for v in violations] == [("scripts/launch.py", 5)]


def test_environ_subscript_and_membership_are_covered(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                def jobs():
                    if "REPRO_JOBS" in os.environ:
                        return os.environ["REPRO_PROFILE"]
                    return ""
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 2
    assert all("string literal" in v.message for v in violations)


def test_foreign_alias_key_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                from repro.other import KNOB


                def read():
                    return os.environ.get(KNOB)
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    assert "resolves to 'repro.other.KNOB'" in violations[0].message


def test_dynamic_key_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                def read(suffix):
                    return os.environ.get("REPRO_" + suffix)
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    assert "dynamic expression" in violations[0].message


def test_unresolvable_name_key_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                def read(key):
                    return os.environ.get(key)
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    assert "cannot be statically resolved" in violations[0].message


def test_module_constant_spelling_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                PROFILE_ENV = "REPRO_PROFILE"


                def read():
                    return os.environ.get(PROFILE_ENV)
                """,
        }
    )
    messages = [v.message for v in check(project)]
    # the literal, and the local alias no import binds: one name per knob.
    assert len(messages) == 2
    assert "environment variable 'REPRO_PROFILE'" in messages[0]
    assert "'PROFILE_ENV' cannot be statically resolved" in messages[1]
    # the repair (import the registry constant and use it) stays clean:
    project = lint_tree({REGISTRY_MODULE: REGISTRY_OK, READER_MODULE: CLEAN_READER})
    assert check(project) == []


def test_registry_alias_key_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                from repro.envvars import REPRO_PROFILE

                PROFILE_ENV = REPRO_PROFILE


                def read():
                    return os.environ.get(PROFILE_ENV)
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    assert "'PROFILE_ENV' cannot be statically resolved" in violations[0].message


def test_imported_name_the_registry_does_not_declare_is_flagged(lint_tree):
    project = lint_tree(
        {
            REGISTRY_MODULE: REGISTRY_OK,
            READER_MODULE: """
                import os

                from repro.envvars import REPRO_NOPE


                def read():
                    return os.environ.get(REPRO_NOPE)
                """,
        }
    )
    violations = check(project)
    assert len(violations) == 1
    assert "which the registry does not declare" in violations[0].message


def test_repro_reads_without_a_registry_module_fail_project_wide(lint_tree):
    project = lint_tree(
        {
            READER_MODULE: """
                import os

                def read():
                    return os.environ.get("REPRO_JOBS")
                """,
        }
    )
    violations = check(project)
    assert any(
        v.path == "" and "does not exist" in v.message for v in violations
    )


def test_non_repro_variables_are_out_of_scope(lint_tree):
    project = lint_tree(
        {
            READER_MODULE: """
                import os

                def read():
                    return os.environ.get("HOME", "/")
                """,
        }
    )
    # no registry module, no REPRO_* reads: nothing for R7 anywhere.
    assert check(project) == []


# --------------------------------------------------------------------- #
# the registry R7 resolves against, checked by importing it
# --------------------------------------------------------------------- #


def test_constant_without_entry_is_flagged(monkeypatch):
    monkeypatch.setattr(envvars, "REPRO_FOO", "REPRO_FOO", raising=False)
    assert registry_problems() == ["constant 'REPRO_FOO' has no REGISTRY entry"]


def test_entry_without_constant_is_flagged(monkeypatch):
    orphan = envvars.EnvVar("REPRO_GONE", "unset", "orphaned entry")
    monkeypatch.setattr(envvars, "REGISTRY", (*envvars.REGISTRY, orphan))
    assert registry_problems() == ["REGISTRY entry 'REPRO_GONE' has no constant"]


def test_duplicate_entry_is_flagged(monkeypatch):
    first = envvars.REGISTRY[0]
    monkeypatch.setattr(envvars, "REGISTRY", (*envvars.REGISTRY, first))
    assert registry_problems() == [f"REGISTRY declares {first.name!r} twice"]


def test_docs_table_in_sync_passes(tmp_path):
    docs = tmp_path / gen_env_docs.DOCS_PATH
    docs.parent.mkdir(parents=True)
    block = gen_env_docs.render_block()
    docs.write_text(f"# Performance\n\n{block}\n", encoding="utf-8")
    assert committed_block(tmp_path) == block
    assert gen_env_docs.regenerate(tmp_path) is False


def test_live_registry_matches_live_docs():
    """Acceptance: the real registry, docs table and R7 agree."""
    assert registry_problems() == []
    assert committed_block() == gen_env_docs.render_block()
    assert check(Project(REPO_ROOT)) == []
