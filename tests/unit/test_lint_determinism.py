"""R1 (determinism): ambient randomness and wall-clock reads are rejected,
and the seeded violation passes once the fix-it hint is applied."""

from __future__ import annotations

from repro.lint.rules import DeterminismRule
from tests.unit.conftest import write_tree_file

BAD_WALKER = """
    import random
    import time
    from os import urandom
    from datetime import datetime


    def jitter():
        datetime.now()
        return random.random() + time.time() + urandom(1)[0]
    """

#: the same module after applying R1's hint: explicit seeded streams from
#: repro.util.rng, no clock, no OS entropy.
FIXED_WALKER = """
    from repro.util.rng import SplitMix64


    def jitter(seed):
        return SplitMix64(seed).random()
    """


def test_base_tree_is_clean(lint_tree):
    assert DeterminismRule().check(lint_tree()) == []


def test_all_forbidden_forms_are_reported(lint_tree):
    project = lint_tree({"src/repro/core/walker.py": BAD_WALKER})
    violations = DeterminismRule().check(project)
    messages = [violation.message for violation in violations]
    assert any("'random'" in message for message in messages)
    assert any("'os.urandom'" in message for message in messages)
    assert any("'datetime.datetime.now'" in message for message in messages)
    assert any("'time.time'" in message for message in messages)
    assert any("'random.random'" in message for message in messages)
    assert all(
        violation.path == "src/repro/core/walker.py" for violation in violations
    )
    assert all("repro.util.rng" in violation.hint for violation in violations)


def test_fix_it_hint_resolves_the_violation(lint_tree):
    project = lint_tree({"src/repro/core/walker.py": BAD_WALKER})
    assert DeterminismRule().check(project) != []
    project = write_tree_file(project.root, "src/repro/core/walker.py", FIXED_WALKER)
    assert DeterminismRule().check(project) == []


def test_aliased_imports_are_still_caught(lint_tree):
    project = lint_tree(
        {
            "src/repro/core/walker.py": """
            import time as clock


            def stamp():
                return clock.time()
            """
        }
    )
    violations = DeterminismRule().check(project)
    assert len(violations) == 1
    assert "time.time" in violations[0].message


def test_allowlist_exempts_a_module_explicitly(lint_tree):
    project = lint_tree({"src/repro/core/walker.py": BAD_WALKER})
    rule = DeterminismRule(
        allowlist={"src/repro/core/walker.py": "test exemption with a reason"}
    )
    assert rule.check(project) == []
    # The exemption is narrow: a second bad module still fails.
    project = write_tree_file(
        project.root, "src/repro/core/other.py", "import random\n"
    )
    assert rule.check(project) != []


def test_benign_time_and_os_uses_pass(lint_tree):
    project = lint_tree(
        {
            "src/repro/core/walker.py": """
            import os
            import time


            def configure():
                time.sleep(0)
                return os.environ.get("REPRO_PROFILE")
            """
        }
    )
    assert DeterminismRule().check(project) == []


def test_numpy_random_forbidden_but_numpy_allowed(lint_tree):
    """Engine code may use numpy freely — except numpy.random."""
    project = lint_tree(
        {
            "src/repro/core/kernels.py": """
            import numpy as np


            def decode(buffer):
                return np.frombuffer(buffer, dtype=np.int64).tolist()
            """
        }
    )
    assert DeterminismRule().check(project) == []


def test_numpy_random_import_forms_are_reported(lint_tree):
    project = lint_tree(
        {
            "src/repro/core/kernels.py": """
            import numpy as np
            import numpy.random
            from numpy.random import default_rng


            def sample():
                return np.random.default_rng().random() + default_rng().random()
            """
        }
    )
    violations = DeterminismRule().check(project)
    messages = [violation.message for violation in violations]
    assert any("numpy.random" in message and "import" in message for message in messages)
    assert any("'numpy.random.default_rng'" in message for message in messages)
    # three import-time findings + the attribute use
    assert len(violations) >= 3
