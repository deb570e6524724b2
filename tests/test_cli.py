"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "optimized" in out and "strong" in out
        assert "yes" in out

    def test_attacks(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "equivocation" in out
        assert "blocked" in out
        assert "bounded at 1" in out

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "Phalanx" in out and "BQS" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--clients", "2", "--ops", "4", "--loss", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linearizable: True" in out

    @pytest.mark.parametrize("variant", ["optimized", "fastpath"])
    def test_simulate_optimized_reports_fast_path(self, capsys, variant):
        assert main(["simulate", "--variant", variant, "--ops", "3"]) == 0
        assert "fast-path rate" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_f2(self, capsys):
        assert main(["--f", "2", "demo"]) == 0


class TestChaosCli:
    def test_chaos_run_deterministic_stdout(self, capsys):
        assert main(["chaos", "run", "--seed", "5", "--episodes", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "run", "--seed", "5", "--episodes", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "chaos campaign (seed 5, 4 episodes)" in first
        assert "violations: none" in first

    def test_chaos_run_json(self, capsys):
        import json

        assert main(
            ["chaos", "run", "--seed", "5", "--episodes", "3", "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format"] == "repro-chaos-campaign/1"
        assert summary["episodes"] == 3
        assert summary["violations"] == 0

    def test_chaos_run_writes_artifacts_on_violation(self, capsys, tmp_path,
                                                     monkeypatch):
        """With an oracle forced red the campaign exits 1 and pins
        minimized artifacts."""
        import repro.chaos.engine as engine_mod

        real_battery = engine_mod.run_oracle_battery

        def rigged_battery(*args, **kwargs):
            from repro.chaos.oracles import OracleVerdict

            verdicts = dict(real_battery(*args, **kwargs))
            verdicts["lemma1"] = OracleVerdict(
                "lemma1", False, "rigged for the CLI test"
            )
            return verdicts

        monkeypatch.setattr(engine_mod, "run_oracle_battery", rigged_battery)
        code = main(
            [
                "chaos", "run", "--seed", "5", "--episodes", "2",
                "--variants", "base", "--artifact-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "VIOLATIONS" in capsys.readouterr().out
        assert list(tmp_path.glob("chaos-seed5-ep*.json"))

    def test_chaos_replay_corpus(self, capsys):
        import pathlib

        corpus = sorted(
            (pathlib.Path(__file__).resolve().parent.parent / "traces" /
             "chaos").glob("*.json")
        )
        assert corpus
        assert main(["chaos", "replay", str(corpus[0])]) == 0
        assert "replay matches" in capsys.readouterr().out

    def test_chaos_tcp(self, capsys):
        assert main(["chaos", "tcp", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "TCP chaos campaign" in out
        for variant in ("base", "optimized", "strong"):
            assert variant in out


class TestLoadCli:
    def test_load_human_output(self, capsys):
        code = main(
            [
                "--seed", "3", "load", "--rate", "150", "--duration", "1",
                "--identities", "60", "--objects", "8",
                "--service-delay", "0.001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "arrivals" in out
        assert "slo" in out
        assert "completion >=" in out  # floor metric printed as a floor

    def test_load_json_output(self, capsys):
        import json

        code = main(
            [
                "--seed", "3", "load", "--rate", "150", "--duration", "1",
                "--identities", "60", "--objects", "8",
                "--budget", "4", "--secret-cache", "32", "--json",
            ]
        )
        assert code == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["failed"] == 0
        assert wire["distinct_identities"] == 60
        assert wire["identity"]["client_state_spills"] > 0
        assert all(v["ok"] for v in wire["slos"])

    def test_load_burst_profile(self, capsys):
        code = main(
            [
                "--seed", "4", "load", "--rate", "120", "--duration", "1.5",
                "--identities", "50", "--burst", "3.0",
            ]
        )
        assert code == 0
        assert "arrivals" in capsys.readouterr().out


class TestStorageCli:
    def _record(self, root) -> None:
        from repro.sim.runner import build_cluster
        from repro.storage.filelog import FileLogStore

        cluster = build_cluster(
            f=1,
            seed=5,
            store_factory=lambda nid: FileLogStore(
                root / nid.replace(":", "_"), snapshot_interval=4
            ),
        )
        cluster.run_scripts(
            {"alice": [("write", ("v", i)) for i in range(6)]}, max_time=60
        )

    def test_scrub_clean_cluster_root(self, tmp_path, capsys):
        self._record(tmp_path)
        assert main(["storage", "scrub", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scrub clean" in out
        assert out.count("clean") >= 4

    def test_scrub_detects_flipped_byte(self, tmp_path, capsys):
        import json

        self._record(tmp_path)
        wal = tmp_path / "replica_1" / "wal.bin"
        raw = bytearray(wal.read_bytes())
        raw[len(raw) // 2] ^= 0x80
        wal.write_bytes(bytes(raw))
        assert main(["storage", "scrub", str(tmp_path)]) == 1
        assert "CORRUPT" in capsys.readouterr().out
        # Single-store form, machine-readable.
        assert main(["storage", "scrub", str(tmp_path / "replica_1"), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        (entry,) = report.values()
        assert not entry["clean"]
        # The scrub never mutates: the damage is still there on re-read.
        assert wal.read_bytes() == bytes(raw)

    def test_scrub_missing_directory(self, tmp_path, capsys):
        assert main(["storage", "scrub", str(tmp_path / "nope")]) == 2
