"""End-to-end observability: hooks, profile harness, CLI subcommand."""

import json

import pytest

from repro.__main__ import main
from repro.arith.primes import default_modulus
from repro.kernels import get_backend
from repro.machine.cpu import get_cpu
from repro.obs import session as obs_session
from repro.obs.export import validate_chrome_trace
from repro.obs.reader import cache_hit_rates
from repro.obs.profile import (
    available_experiments,
    format_summary,
    profile_experiment,
    snapshot_values,
)
from repro.perf.estimator import estimate_ntt


@pytest.fixture(autouse=True)
def _clean_session():
    obs_session.disable()
    yield
    obs_session.disable()


class TestPipelineHooks:
    """The permanent instrumentation points in isa/machine/perf layers."""

    def test_estimate_populates_all_layers(self):
        q = default_modulus()
        with obs_session.observing() as session:
            estimate_ntt(1 << 12, q, get_backend("mqx"), get_cpu("amd_epyc_9654"))
        metrics = session.metrics
        # ISA layer: per-mnemonic counts + memory traffic.
        assert metrics.counter("isa.instructions").value > 0
        assert metrics.names("isa.ops.")  # at least one mnemonic recorded
        assert metrics.counter("isa.load_bytes").value > 0
        # Scheduler layer: port pressure + critical path.
        assert metrics.counter("sched.blocks").value >= 1
        assert metrics.names("sched.port.")
        assert metrics.histogram("sched.critical_path_cycles").count >= 1
        # Cache layer: level accesses + modeled traffic.
        rates = cache_hit_rates(metrics)
        assert rates and sum(rates.values()) == pytest.approx(1.0)
        assert metrics.counter("cache.bytes_modeled").value > 0
        # Spans: the three estimator phases.
        agg = session.spans.aggregate()
        for phase in ("trace-capture", "schedule", "cache-model"):
            assert agg[phase]["count"] >= 1

    def test_disabled_obs_changes_no_output(self):
        q = default_modulus()
        backend, cpu = get_backend("avx512"), get_cpu("intel_xeon_8352y")
        plain = estimate_ntt(1 << 12, q, backend, cpu)
        with obs_session.observing():
            observed = estimate_ntt(1 << 12, q, backend, cpu)
        again = estimate_ntt(1 << 12, q, backend, cpu)
        assert observed.ns == plain.ns == again.ns
        assert observed.cycles == plain.cycles
        assert observed.memory_level == plain.memory_level

    def test_cache_hit_rates_empty_without_accesses(self):
        with obs_session.observing() as session:
            assert cache_hit_rates(session.metrics) == {}


class TestProfileHarness:
    @pytest.fixture(scope="class")
    def report(self):
        obs_session.disable()
        return profile_experiment("table1")

    def test_known_keys(self):
        keys = available_experiments()
        assert "headline" in keys and "figure5a" in keys and "table1" in keys

    def test_unknown_key_raises(self):
        from repro.errors import ObservabilityError

        with pytest.raises(ObservabilityError):
            profile_experiment("figure99")

    def test_report_shape(self, report):
        assert report.key == "table1"
        assert report.wall_s > 0
        assert report.result.exp_id == "table1"
        assert "experiment:table1" in report.span_aggregate
        assert report.metrics["isa.instructions"]["value"] > 0

    def test_summary_sections(self, report):
        text = format_summary(report)
        assert "== profile: table1" in text
        assert "pipeline phases" in text
        assert "dynamic instruction profile" in text
        assert "port utilization" in text
        assert "critical path" in text

    def test_snapshot_values_lower_is_better(self, report):
        values = snapshot_values(report)
        assert values["profile.table1.wall_s"] == report.wall_s
        assert values["profile.table1.sim_instructions"] > 0
        assert all(v >= 0 for v in values.values())

    def test_session_not_left_enabled(self, report):
        assert obs_session.current() is None


class TestProfileCli:
    def test_profile_runs_and_exports(self, tmp_path, capsys):
        snapshot = tmp_path / "BENCH_pipeline.json"
        code = main(
            [
                "profile",
                "--experiment",
                "table1",
                "--export",
                "chrome+jsonl",
                "--output-dir",
                str(tmp_path),
                "--snapshot",
                str(snapshot),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== profile: table1" in out
        assert "recorded snapshot" in out
        trace = json.loads((tmp_path / "trace_table1.json").read_text())
        validate_chrome_trace(trace)
        assert (tmp_path / "obs_table1.jsonl").exists()
        assert snapshot.exists()

    def test_second_run_prints_diff(self, tmp_path, capsys):
        snapshot = tmp_path / "BENCH_pipeline.json"
        args = [
            "profile", "--experiment", "table1",
            "--snapshot", str(snapshot),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "snapshot diff" in out
        assert "regressions" in out

    def test_no_snapshot_flag(self, tmp_path, capsys):
        snapshot = tmp_path / "BENCH_pipeline.json"
        code = main(
            [
                "profile", "--experiment", "table1",
                "--snapshot", str(snapshot), "--no-snapshot",
            ]
        )
        assert code == 0
        assert not snapshot.exists()

    def test_unknown_experiment_lists_keys(self, tmp_path, capsys):
        code = main(
            [
                "profile", "--experiment", "nope",
                "--snapshot", str(tmp_path / "B.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "headline" in err
