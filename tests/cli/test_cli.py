"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main


@pytest.fixture(scope="module")
def clicks_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "clicks.tsv"
    code = main(
        [
            "generate",
            "--sessions",
            "1500",
            "--items",
            "300",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def index_artifact(clicks_tsv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-idx") / "idx.vmis"
    code = main(["build-index", str(clicks_tsv), "--m", "200", "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_int_list_parsing(self):
        args = build_parser().parse_args(
            ["grid-search", "x.tsv", "--ks", "10,20", "--ms", "5"]
        )
        assert args.ks == [10, 20]
        assert args.ms == [5]

    def test_bad_int_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid-search", "x.tsv", "--ks", "a,b"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--profile", "imagenet", "--out", "x"]
            )


class TestCommands:
    def test_generate_profile(self, tmp_path, capsys):
        out = tmp_path / "rr.tsv"
        code = main(
            [
                "generate",
                "--profile",
                "retailrocket-sim",
                "--scale",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_stats(self, clicks_tsv, capsys):
        assert main(["stats", str(clicks_tsv)]) == 0
        output = capsys.readouterr().out
        assert "p99" in output and "1,500" in output

    def test_build_index_reports_size(self, clicks_tsv, tmp_path, capsys):
        out = tmp_path / "i.vmis"
        assert main(["build-index", str(clicks_tsv), "--out", str(out)]) == 0
        assert "KiB" in capsys.readouterr().out

    def test_build_index_writes_the_array_build(self, clicks_tsv, tmp_path):
        """The artifact is the array build's byte for byte, and so the
        per-click reference builder's too (``--m`` truncates postings)."""
        from repro.core.index import SessionIndex
        from repro.data.clicklog import ClickLog
        from repro.index.builder import IndexBuilder
        from repro.index.serialization import save_index

        out = tmp_path / "cli.vmis"
        code = main(["build-index", str(clicks_tsv), "--m", "20", "--out", str(out)])
        assert code == 0
        clicks = list(ClickLog.from_tsv(clicks_tsv))
        array, loop = tmp_path / "array.vmis", tmp_path / "loop.vmis"
        save_index(SessionIndex.from_clicks(clicks, max_sessions_per_item=20), array)
        save_index(IndexBuilder(max_sessions_per_item=20).build(clicks), loop)
        assert out.read_bytes() == array.read_bytes() == loop.read_bytes()

    @pytest.mark.parametrize(
        "row, offending",
        [("1\t5\t-5", "-5"), ("1\t-3\t100", "-3")],
        ids=["negative-timestamp", "negative-item"],
    )
    def test_build_index_refuses_what_the_artifact_cannot_hold(
        self, tmp_path, capsys, row, offending
    ):
        clicks = tmp_path / "bad.tsv"
        clicks.write_text(f"session_id\titem_id\ttimestamp\n{row}\n")
        out = tmp_path / "bad.vmis"
        assert main(["build-index", str(clicks), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and offending in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["build-index", "evaluate"])
    def test_workers_option_is_gone(self, clicks_tsv, tmp_path, capsys, verb):
        args = [verb, str(clicks_tsv), "--workers", "2"]
        if verb == "build-index":
            args += ["--out", str(tmp_path / "w.vmis")]
        with pytest.raises(SystemExit) as exited:
            main(args)
        assert exited.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_recommend(self, index_artifact, capsys):
        code = main(
            ["recommend", str(index_artifact), "--session", "10,11", "--count", "3"]
        )
        assert code == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert 1 <= len(lines) <= 3
        assert "score" in lines[0]

    def test_evaluate(self, clicks_tsv, capsys):
        code = main(
            [
                "evaluate",
                str(clicks_tsv),
                "--m",
                "200",
                "--max-predictions",
                "100",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "MRR@20" in output and "p90 latency" in output

    def test_evaluate_batched_matches_serial(self, clicks_tsv, capsys):
        serial_args = [
            "evaluate",
            str(clicks_tsv),
            "--m",
            "200",
            "--max-predictions",
            "100",
        ]
        assert main(serial_args) == 0
        serial_out = capsys.readouterr().out
        assert main(serial_args + ["--batch-size", "32"]) == 0
        batched_out = capsys.readouterr().out
        assert "cache:" in batched_out

        def metrics(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("MRR", "HR", "Prec", "R@", "MAP"))
            ]

        assert metrics(batched_out) == metrics(serial_out)

    def test_evaluate_other_model(self, clicks_tsv, capsys):
        code = main(
            [
                "evaluate",
                str(clicks_tsv),
                "--model",
                "popularity",
                "--max-predictions",
                "50",
            ]
        )
        assert code == 0
        assert "MRR@20" in capsys.readouterr().out

    def test_evaluate_unknown_model(self, clicks_tsv):
        with pytest.raises(ValueError, match="unknown model"):
            main(["evaluate", str(clicks_tsv), "--model", "alexnet"])

    def test_grid_search(self, clicks_tsv, capsys):
        code = main(
            [
                "grid-search",
                str(clicks_tsv),
                "--ks",
                "10,50",
                "--ms",
                "20,100",
                "--max-predictions",
                "50",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "best mrr" in output


class TestIndexLifecycleCommands:
    @pytest.fixture()
    def registry_dir(self, tmp_path):
        return tmp_path / "registry"

    def _build(self, clicks_tsv, registry_dir, m="150"):
        return main(
            [
                "index",
                "build",
                str(clicks_tsv),
                "--registry",
                str(registry_dir),
                "--m",
                m,
            ]
        )

    def test_build_registers_first_version(
        self, clicks_tsv, registry_dir, capsys
    ):
        assert self._build(clicks_tsv, registry_dir) == 0
        out = capsys.readouterr().out
        assert "registered v000001" in out and "sha256" in out
        assert (registry_dir / "v000001" / "index.vmis").exists()
        assert (registry_dir / "v000001" / "manifest.json").exists()

    def test_build_refuses_garbage_log(self, tmp_path, capsys):
        clicks = tmp_path / "bots.tsv"
        rows = ["session_id\titem_id\ttimestamp"]
        # one giant machine-speed session: everything gets quarantined
        rows += [f"1\t{i}\t{i // 10}" for i in range(500)]
        clicks.write_text("\n".join(rows) + "\n")
        code = main(
            ["index", "build", str(clicks), "--registry", str(tmp_path / "r")]
        )
        assert code == 1
        assert "build refused" in capsys.readouterr().out

    def test_promote_first_build_then_list(
        self, clicks_tsv, registry_dir, capsys
    ):
        assert self._build(clicks_tsv, registry_dir) == 0
        code = main(
            [
                "index",
                "promote",
                "--registry",
                str(registry_dir),
                "--clicks",
                str(clicks_tsv),
                "--max-predictions",
                "100",
            ]
        )
        assert code == 0
        assert "promoted v000001" in capsys.readouterr().out
        assert main(["index", "list", "--registry", str(registry_dir)]) == 0
        assert "*CURRENT*" in capsys.readouterr().out

    def test_promote_refuses_degenerate_candidate(
        self, clicks_tsv, registry_dir, tmp_path, capsys
    ):
        # v1: healthy; v2: built from a tiny unrelated log -> gate refusal.
        assert self._build(clicks_tsv, registry_dir) == 0
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text(
            "session_id\titem_id\ttimestamp\n"
            + "".join(f"{s}\t{9000 + s}\t{s * 100}\n" for s in range(20))
        )
        promote = [
            "index",
            "promote",
            "--registry",
            str(registry_dir),
            "--clicks",
            str(clicks_tsv),
            "--max-predictions",
            "100",
        ]
        assert main(promote) == 0
        assert main(["index", "build", str(tiny), "--registry", str(registry_dir)]) == 0
        capsys.readouterr()
        assert main(promote) == 1
        out = capsys.readouterr().out
        assert "promotion refused at gate" in out

    def test_rollback_moves_current_back(
        self, clicks_tsv, registry_dir, capsys
    ):
        promote = [
            "index",
            "promote",
            "--registry",
            str(registry_dir),
            "--clicks",
            str(clicks_tsv),
            "--max-predictions",
            "100",
        ]
        assert self._build(clicks_tsv, registry_dir) == 0
        assert main(promote) == 0
        assert self._build(clicks_tsv, registry_dir) == 0
        assert main(promote) == 0
        capsys.readouterr()
        assert main(["index", "rollback", "--registry", str(registry_dir)]) == 0
        assert "rolled back v000002 -> v000001" in capsys.readouterr().out
        # nothing older than v000001 -> refused
        assert main(["index", "rollback", "--registry", str(registry_dir)]) == 1
        assert "rollback refused" in capsys.readouterr().out

    def test_list_empty_registry(self, tmp_path, capsys):
        code = main(["index", "list", "--registry", str(tmp_path / "empty")])
        assert code == 0
        assert "no versions registered" in capsys.readouterr().out


class TestBenchCommands:
    @pytest.fixture(scope="class")
    def bench_dir(self, tmp_path_factory):
        """One smoke run of the fig3a arm, shared across the class."""
        out = tmp_path_factory.mktemp("bench-cli")
        code = main(
            [
                "bench",
                "run",
                "--arms",
                "fig3a",
                "--profile",
                "smoke",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out

    def test_run_writes_record_and_summary(self, bench_dir, capsys):
        capsys.readouterr()
        assert (bench_dir / "BENCH_fig3a.json").exists()
        payload = json.loads((bench_dir / "BENCH_fig3a.json").read_text())
        assert payload["profile"] == "smoke"
        assert payload["seed"] == 5
        assert "latency_p90_ms" in payload["metrics"]

    def test_run_unknown_arm_refused(self, tmp_path, capsys):
        code = main(
            ["bench", "run", "--arms", "fig9z", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "bench run refused" in capsys.readouterr().out

    def test_run_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "run", "--profile", "leisurely"]
            )

    def test_compare_self_passes(self, bench_dir, capsys):
        code = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(bench_dir),
                "--candidate",
                str(bench_dir),
            ]
        )
        assert code == 0
        assert "gate verdict: PASS" in capsys.readouterr().out

    def test_compare_missing_baseline_prompts_commit(
        self, bench_dir, tmp_path, capsys
    ):
        empty = tmp_path / "no-baselines"
        empty.mkdir()
        code = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(empty),
                "--candidate",
                str(bench_dir),
            ]
        )
        assert code == 0
        assert "no committed baseline" in capsys.readouterr().out

    def test_compare_injected_slowdown_fails(self, bench_dir, tmp_path, capsys):
        """The CI demo: a synthetic 2x slowdown must trip the gate."""
        slowed = tmp_path / "slowed"
        slowed.mkdir()
        payload = json.loads((bench_dir / "BENCH_fig3a.json").read_text())
        for name, metric in payload["metrics"].items():
            if name.startswith("latency_"):
                metric["value"] *= 2.0
        (slowed / "BENCH_fig3a.json").write_text(json.dumps(payload))
        code = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(bench_dir),
                "--candidate",
                str(slowed),
            ]
        )
        assert code == 1
        assert "gate verdict: REGRESSION" in capsys.readouterr().out

    def test_compare_update_baseline_commits_new_arm(
        self, bench_dir, tmp_path, capsys
    ):
        baseline = tmp_path / "fresh-baseline"
        baseline.mkdir()
        code = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(baseline),
                "--candidate",
                str(bench_dir),
                "--update-baseline",
            ]
        )
        assert code == 0
        assert "new baseline committed" in capsys.readouterr().out
        assert (baseline / "BENCH_fig3a.json").exists()

    def test_compare_envelope_file_overrides(self, bench_dir, tmp_path, capsys):
        # Zero-width envelopes make even an identical re-read pass, but a
        # tiny wiggle fail — prove the file is honoured.
        wiggled = tmp_path / "wiggled"
        wiggled.mkdir()
        payload = json.loads((bench_dir / "BENCH_fig3a.json").read_text())
        payload["metrics"]["latency_p90_ms"]["value"] *= 1.01
        (wiggled / "BENCH_fig3a.json").write_text(json.dumps(payload))
        envelope_file = tmp_path / "strict.json"
        envelope_file.write_text(
            json.dumps({"latency_p90_ms": {"rel": 0.0, "abs": 0.0}})
        )
        code = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(bench_dir),
                "--candidate",
                str(wiggled),
                "--envelope-file",
                str(envelope_file),
            ]
        )
        assert code == 1

    def test_list_reports_baseline_state(self, bench_dir, tmp_path, capsys):
        assert main(["bench", "list", "--baseline", str(bench_dir)]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "baseline @" in out
        assert main(["bench", "list", "--baseline", str(tmp_path)]) == 0
        assert "no baseline committed" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_starts_and_answers(self, index_artifact, monkeypatch, capsys):
        """Start `repro serve` with a patched sleep that exits immediately
        after we've verified the HTTP surface."""
        import sys

        # `repro.cli.main` the submodule is shadowed by the `main` function
        # re-exported from the package, so fetch it via sys.modules.
        cli_main = sys.modules["repro.cli.main"]

        probe_result = {}

        def fake_sleep(_seconds):
            # Runs on the main thread after the server has started.
            port = probe_result["port"]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as response:
                probe_result["health"] = json.load(response)
            raise KeyboardInterrupt

        # Intercept the server construction to learn the ephemeral port.
        original = cli_main.__dict__.get("cmd_serve")
        from repro.serving.http import SerenadeHTTPServer

        class ProbingServer(SerenadeHTTPServer):
            def start(self):
                result = super().start()
                probe_result["port"] = self.port
                return result

        monkeypatch.setattr(
            "repro.serving.http.SerenadeHTTPServer", ProbingServer
        )
        monkeypatch.setattr(cli_main.time, "sleep", fake_sleep)
        code = main(
            ["serve", str(index_artifact), "--port", "0", "--pods", "1"]
        )
        assert code == 0
        assert probe_result["health"]["status"] == "ok"
        assert "serving" in capsys.readouterr().out
        del original

    def test_sigterm_drains_and_exits_cleanly(self, index_artifact):
        """What an orchestrator (and the serve benchmark's child runner)
        sends is SIGTERM, not Ctrl-C: it must take the graceful path."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), *filter(None, [env.get("PYTHONPATH")])]
        )
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(index_artifact),
             "--port", "0", "--pods", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = child.stdout.readline()
            port = int(re.search(r"http://127\.0\.0\.1:(\d+)", banner).group(1))
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as response:
                assert json.load(response)["status"] == "ok"
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=5) == 0
            assert "shutting down" in child.stdout.read()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()


class TestArtifactContainers:
    """`serve` and `recommend` refuse anything but a `VMIS` artifact, the
    retired columnar container included, with one line, not a traceback."""

    @pytest.mark.parametrize("verb_args", [["serve"], ["recommend", "--session", "1"]])
    def test_unreadable_artifact_is_one_error_line(self, verb_args, tmp_path, capsys):
        foreign = tmp_path / "notes.vmis"
        foreign.write_bytes(b"these are not the bytes of an index artifact")
        vmic = tmp_path / "idx.vmic"
        vmic.write_bytes(b"VMIC" + bytes(16))
        for path, reason in [
            (tmp_path / "missing.vmis", "No such file"),
            (foreign, "bad magic"),
            (vmic, "bad magic"),
        ]:
            verb, *rest = verb_args
            assert main([verb, str(path), *rest]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot open index artifact")
            assert reason in captured.err
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestSessionizeCommand:
    def test_sessionize_tsv(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text(
            "user_id\titem_id\ttimestamp\n"
            "1\t10\t0\n1\t11\t100\n1\t12\t4000\n2\t20\t50\n"
        )
        out = tmp_path / "sessions.tsv"
        code = main(["sessionize", str(events), "--gap", "1800", "--out", str(out)])
        assert code == 0
        assert "3 sessions" in capsys.readouterr().out
        from repro.data.clicklog import ClickLog

        log = ClickLog.from_tsv(out)
        assert log.num_sessions() == 3

    def test_sessionize_bad_header(self, tmp_path):
        events = tmp_path / "bad.tsv"
        events.write_text("a\tb\tc\n1\t2\t3\n")
        with pytest.raises(SystemExit, match="bad header"):
            main(["sessionize", str(events), "--out", str(tmp_path / "o.tsv")])


class TestExperimentCommand:
    def test_experiment_from_json(self, tmp_path, capsys):
        config = {
            "name": "cli-exp",
            "dataset": {"sessions": 400, "items": 120, "days": 6, "seed": 1},
            "models": [
                {"name": "vmis", "params": {"m": 50, "k": 20}},
                {"name": "popularity", "params": {}},
            ],
            "protocol": {"max_predictions": 50},
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        results_path = tmp_path / "results.json"
        code = main(
            ["experiment", str(config_path), "--out", str(results_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cli-exp" in output and "vmis" in output
        payload = json.loads(results_path.read_text())
        assert len(payload["outcomes"]) == 2


class TestStreamCommands:
    def produce(self, clicks_tsv, log_dir, *extra):
        return main(
            ["stream", "produce", str(clicks_tsv), "--log-dir", str(log_dir)]
            + list(extra)
        )

    def consume(self, log_dir, out, *extra):
        return main(
            [
                "stream",
                "consume",
                "--log-dir",
                str(log_dir),
                "--out",
                str(out),
                "--m",
                "200",
            ]
            + list(extra)
        )

    def test_produce_then_status_round_trip(self, clicks_tsv, tmp_path, capsys):
        log_dir = tmp_path / "events"
        assert self.produce(clicks_tsv, log_dir, "--partitions", "3") == 0
        produced = capsys.readouterr().out
        assert "published" in produced and "3 partitions" in produced

        assert main(["stream", "status", "--log-dir", str(log_dir)]) == 0
        status = capsys.readouterr().out
        assert "3 partitions" in status
        # Nothing consumed yet: the whole log is lag for the group.
        assert "committed[indexer]        0" in status

    def test_produce_rerun_is_deduplicated(self, clicks_tsv, tmp_path, capsys):
        from repro.data.clicklog import ClickLog
        from repro.streaming import PartitionedLog

        log_dir = tmp_path / "events"
        assert self.produce(clicks_tsv, log_dir) == 0
        capsys.readouterr()
        # The retried publish (same idempotent producer id) re-acks
        # every click without growing the log.
        assert self.produce(clicks_tsv, log_dir) == 0
        assert "0 new" in capsys.readouterr().out
        log = PartitionedLog.open(log_dir)
        assert log.total_records() == len(ClickLog.from_tsv(clicks_tsv).clicks)
        log.close()

    def test_consume_builds_artifact_and_commits(
        self, clicks_tsv, tmp_path, capsys
    ):
        from repro.index.serialization import load_index
        from repro.data.clicklog import ClickLog
        from repro.core.index import SessionIndex

        log_dir = tmp_path / "events"
        out = tmp_path / "stream.vmis"
        assert self.produce(clicks_tsv, log_dir) == 0
        capsys.readouterr()

        assert self.consume(log_dir, out, "--flush") == 0
        output = capsys.readouterr().out
        assert "started group 'indexer'" in output
        assert "(flushed)" in output
        assert out.exists()
        assert (tmp_path / "stream.vmis.state.json").exists()

        # The streamed artifact equals the batch build over the same log.
        clicks = ClickLog.from_tsv(clicks_tsv).clicks
        oracle = SessionIndex.from_clicks(clicks, max_sessions_per_item=200)
        streamed = load_index(out)
        assert streamed.session_items == oracle.session_items
        assert streamed.item_to_sessions == oracle.item_to_sessions

        # Offsets committed: status now reports zero lag for the group.
        assert main(["stream", "status", "--log-dir", str(log_dir)]) == 0
        assert "lag 0 events" in capsys.readouterr().out

    def test_consume_resumes_idempotently(self, clicks_tsv, tmp_path, capsys):
        log_dir = tmp_path / "events"
        out = tmp_path / "stream.vmis"
        assert self.produce(clicks_tsv, log_dir) == 0
        assert self.consume(log_dir, out, "--flush") == 0
        capsys.readouterr()
        # Nothing new in the log: the resumed consumer applies nothing.
        assert self.consume(log_dir, out, "--flush") == 0
        resumed = capsys.readouterr().out
        assert "resumed group 'indexer'" in resumed
        assert "applied 0 sessions" in resumed

    def test_refusals(self, clicks_tsv, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["stream", "status", "--log-dir", str(missing)]) == 2
        assert "refused" in capsys.readouterr().out
        assert (
            self.consume(missing, tmp_path / "x.vmis") == 2
        )
        assert "refused" in capsys.readouterr().out

        log_dir = tmp_path / "events"
        assert self.produce(clicks_tsv, log_dir) == 0
        capsys.readouterr()
        # Partition count is fixed at creation; a conflicting produce refuses.
        assert self.produce(clicks_tsv, log_dir, "--partitions", "7") == 2
        assert "partition count is fixed" in capsys.readouterr().out
        # lateness > session gap breaks the sealing invariant: refused.
        assert (
            self.consume(
                log_dir,
                tmp_path / "x.vmis",
                "--session-gap",
                "60",
                "--lateness",
                "120",
            )
            == 2
        )
        assert "refused" in capsys.readouterr().out
