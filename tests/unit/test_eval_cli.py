"""Unit tests for the ``repro-experiment`` front end's sweep observability.

The experiment plumbing is faked out (real drivers have their own
integration suite); these tests pin the ``--progress`` narration, the
one-line JSON sweep summary, and the salvage-aware ``SweepError`` exit
path.
"""

import json

import pytest

from repro.envvars import REPRO_STRICT_EXPECTATIONS
from repro.eval import cli
from repro.eval.executor import SweepError, SweepReport
from repro.eval.profiles import ExperimentScale
from repro.eval.runspec import RunSpec

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=2_000,
    measure_instructions=8_000,
    cmp_measure_instructions=4_000,
)


def spec_for(workload, prefetcher="none"):
    return RunSpec.create(workload, 1, prefetcher, scale=TINY)


class TestParser:
    def test_progress_flag(self):
        args = cli.build_parser().parse_args(["fig05", "--progress"])
        assert args.progress
        assert not cli.build_parser().parse_args(["fig05"]).progress


class TestProgressPrinter:
    def test_simulated_line_shows_duration(self, capsys):
        cli._print_progress(3, 45, spec_for("db"), "simulated", 1.234)
        out = capsys.readouterr().out
        assert "[ 3/45]" in out
        assert "db/1c/none" in out
        assert "simulated in 1.23s" in out

    def test_cache_hit_line(self, capsys):
        cli._print_progress(45, 45, spec_for("web"), "disk", 0.0)
        out = capsys.readouterr().out
        assert "[45/45]" in out
        assert "disk hit" in out


class TestAffectedExperiments:
    def test_maps_failed_specs_back_to_experiments(self):
        a, b, c = spec_for("db"), spec_for("web"), spec_for("japp")
        by_experiment = {"fig05": [a, b], "fig06": [a], "fig08": [c]}
        assert cli._affected_experiments(by_experiment, [a]) == ["fig05", "fig06"]
        assert cli._affected_experiments(by_experiment, [c]) == ["fig08"]
        assert cli._affected_experiments(by_experiment, []) == []


class FakeOutcome:
    """The slice of ExperimentOutcome the CLI's run flow reads."""

    def __init__(self, name, verdicts=()):
        self.name = name
        self.panels = []
        self.verdicts = list(verdicts)

    @property
    def failed_verdicts(self):
        return [v for v in self.verdicts if v.status == "fail"]

    def verdict_summary(self):
        return "expectations: faked"


@pytest.fixture
def fake_experiment(monkeypatch):
    """Wire one fake experiment through the CLI's registry seams."""
    spec = spec_for("db", "discontinuity")

    def fake_collect(names, scale=None, seed=None):
        return {name: [spec] for name in names}

    monkeypatch.setattr(cli, "collect_specs_by_experiment", fake_collect)
    monkeypatch.setattr(
        cli, "run_experiment_outcome", lambda name, **kwargs: FakeOutcome(name)
    )
    monkeypatch.setattr(
        cli, "experiment_names", lambda: ["fake-experiment"], raising=False
    )
    return spec


class TestMainSweepSummary:
    def test_summary_line_and_progress(self, fake_experiment, monkeypatch, capsys):
        spec = fake_experiment
        report = SweepReport(
            total=1, simulated=1, wall_seconds=0.5, label="fake-experiment"
        )
        report.durations[spec] = 0.5

        def fake_run(specs, jobs=None, progress=None, label=None):
            if progress is not None:
                progress(1, 1, spec, "simulated", 0.5)
            return {spec: object()}, report

        monkeypatch.setattr(cli, "run_specs_report", fake_run)
        assert cli.main(["fake-experiment", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/1] db/1c/discontinuity: simulated in 0.50s" in out
        summary_lines = [
            line for line in out.splitlines() if line.startswith("{")
        ]
        assert len(summary_lines) == 1
        summary = json.loads(summary_lines[0])
        assert summary["event"] == "sweep"
        assert summary["simulated"] == 1
        assert summary["label"] == "fake-experiment"

    def test_sweep_error_reports_salvage_and_exits_nonzero(
        self, fake_experiment, monkeypatch, capsys
    ):
        spec = fake_experiment
        report = SweepReport(total=1, failed=1, label="fake-experiment")
        error = SweepError({spec: "Traceback: boom"}, {}, report)

        def fake_run(specs, jobs=None, progress=None, label=None):
            raise error

        monkeypatch.setattr(cli, "run_specs_report", fake_run)
        assert cli.main(["fake-experiment"]) == 1
        captured = capsys.readouterr()
        assert "salvaged" in captured.err
        assert "affected experiments: fake-experiment" in captured.err
        summary = json.loads(
            [line for line in captured.out.splitlines() if line.startswith("{")][0]
        )
        assert summary["failed"] == 1


class TestStrictMode:
    """``--strict`` / $REPRO_STRICT_EXPECTATIONS turn failed verdicts into
    a non-zero exit; by default they are advisory."""

    @pytest.fixture
    def failing_run(self, fake_experiment, monkeypatch):
        from repro.eval.experiment import Verdict

        spec = fake_experiment
        report = SweepReport(total=1, simulated=1, label="fake-experiment")

        def fake_run(specs, jobs=None, progress=None, label=None):
            return {spec: object()}, report

        verdict = Verdict(
            experiment="fake-experiment",
            panel="p",
            kind="band",
            description="d",
            status="fail",
            detail="out of band",
        )
        monkeypatch.setattr(cli, "run_specs_report", fake_run)
        monkeypatch.setattr(
            cli,
            "run_experiment_outcome",
            lambda name, **kwargs: FakeOutcome(name, verdicts=[verdict]),
        )

    def test_failed_verdicts_are_advisory_by_default(
        self, failing_run, monkeypatch, capsys
    ):
        monkeypatch.delenv(REPRO_STRICT_EXPECTATIONS, raising=False)
        assert cli.main(["fake-experiment"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_strict_flag_exits_nonzero(self, failing_run, capsys):
        assert cli.main(["fake-experiment", "--strict"]) == 1
        assert "strict mode" in capsys.readouterr().err

    def test_strict_env_exits_nonzero(self, failing_run, monkeypatch, capsys):
        monkeypatch.setenv(REPRO_STRICT_EXPECTATIONS, "1")
        assert cli.main(["fake-experiment"]) == 1
        assert "strict mode" in capsys.readouterr().err

    def test_passing_verdicts_are_fine_in_strict_mode(
        self, fake_experiment, monkeypatch, capsys
    ):
        spec = fake_experiment
        report = SweepReport(total=1, simulated=1, label="fake-experiment")

        def fake_run(specs, jobs=None, progress=None, label=None):
            return {spec: object()}, report

        monkeypatch.setattr(cli, "run_specs_report", fake_run)
        assert cli.main(["fake-experiment", "--strict"]) == 0
