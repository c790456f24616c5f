"""CLI smoke/behaviour tests (in-process via main(argv))."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.vm == "m1.large" and args.horizon == 24

    def test_backend_help_loads_no_http_stack(self):
        # The --backend help strings come from repro.service.encoding; a fresh
        # interpreter shows that building them leaves the service's HTTP
        # server and client unloaded (they cost every command ~80 ms).
        script = (
            "import atexit, sys\n"
            "atexit.register(lambda: print('loaded', [m for m in ('repro.service.server',"
            " 'repro.service.client', 'http.server') if m in sys.modules]))\n"
            "from repro.cli import main\n"
            "main(['plan', '--help'])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "solver backend: auto | simplex | simplex+cuts | scipy" in proc.stdout
        assert "bb-scipy" not in proc.stdout
        assert "loaded []" in proc.stdout


class TestPlanCommand:
    def test_prints_schedule(self, capsys):
        code = main(["plan", "--vm", "c1.medium", "--horizon", "6", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DRRP cost" in out
        assert out.count("RENT") >= 1

    def test_unknown_vm(self, capsys):
        code = main(["plan", "--vm", "t2.nano"])
        assert code == 2
        assert "unknown VM class" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_summary_contents(self, capsys):
        code = main(["analyze", "--vm", "c1.medium"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Shapiro-Wilk" in out
        assert "ADF" in out

    def test_unknown_vm(self, capsys):
        assert main(["analyze", "--vm", "bogus"]) == 2


class TestSimulateCommand:
    def test_bakeoff_runs(self, capsys):
        code = main(["simulate", "--vm", "c1.medium", "--hours", "6", "--lookahead", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle" in out and "overpay" in out

    def test_unknown_vm(self, capsys):
        assert main(["simulate", "--vm", "bogus"]) == 2


class TestReportCommand:
    def test_single_figure(self, capsys):
        code = main(["report", "fig4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4" in out


class TestFuzzCommand:
    def test_small_seeded_run(self, capsys):
        code = main(["fuzz", "--seed", "0", "--cases", "7", "--no-shrink"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: cases=7 certified=7 gap_violations=0" in out

    def test_family_subset_and_tallies(self, capsys):
        code = main(["fuzz", "--seed", "2", "--cases", "4", "--families", "lp,drrp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lp" in out and "drrp" in out and "milp" not in out

    def test_unknown_family_exits_2(self, capsys):
        code = main(["fuzz", "--families", "lp,bogus"])
        assert code == 2
        assert "unknown families" in capsys.readouterr().err

    def test_telemetry_summary(self, capsys):
        code = main(["fuzz", "--seed", "1", "--cases", "3", "--telemetry", "summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry: events=4" in out  # 3 fuzz_case + 1 fuzz_summary

    def test_telemetry_json_lists_event_kinds(self, capsys):
        code = main(["fuzz", "--seed", "1", "--cases", "2", "--telemetry", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz_case" in out and "fuzz_summary" in out

    def test_zero_time_limit_stops_on_deadline(self, capsys):
        # Deadline-truncated campaigns are clean-but-partial: exit 3, not 0.
        code = main(["fuzz", "--seed", "0", "--time-limit", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "cases=0" in out and "deadline" in out


class TestExitCodeContract:
    """0 optimal / 1 failure / 2 usage / 3 usable-but-not-optimal."""

    def test_plan_optimal_is_0(self, capsys):
        assert main(["plan", "--vm", "c1.medium", "--horizon", "5", "--seed", "1"]) == 0
        capsys.readouterr()

    def test_plan_time_limited_incumbent_is_3(self, capsys):
        # a zero budget still yields the warm-start incumbent -> exit 3
        code = main(["plan", "--vm", "c1.medium", "--horizon", "6", "--seed", "1",
                     "--time-limit", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "best incumbent" in out

    def test_plan_usage_error_is_2(self, capsys):
        assert main(["plan", "--vm", "t2.bogus"]) == 2
        capsys.readouterr()

    def test_fuzz_clean_run_is_0(self, capsys):
        assert main(["fuzz", "--seed", "0", "--cases", "3", "--no-shrink"]) == 0
        capsys.readouterr()


class TestServiceCommands:
    def test_submit_unreachable_server_is_1(self, capsys):
        code = main(["submit", "--url", "http://127.0.0.1:1", "--horizon", "4"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_submit_roundtrip_and_cache_exit_codes(self, capsys):
        from repro.service import ServiceConfig, serve

        service, httpd = serve(port=0, config=ServiceConfig(workers=1), block=False)
        try:
            argv = ["submit", "--url", httpd.url, "--vm", "c1.medium",
                    "--horizon", "5", "--seed", "3"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "optimal" in out and "cost $" in out
            assert main(argv) == 0  # cache hit is still an optimal answer
            assert "[cache hit]" in capsys.readouterr().out
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()

    def test_bench_service_small_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code = main(["bench", "service", "--set", "requests=20",
                     "--set", "duplicate_share=0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "service bench: 20 reqs" in out
        assert (tmp_path / "BENCH_service.json").exists()

    def test_bench_service_bad_args_is_2(self, capsys):
        assert main(["bench", "service", "--set", "requests=0"]) == 2
        capsys.readouterr()


class TestExportCommand:
    def test_writes_csvs(self, tmp_path, capsys):
        code = main(["export-dataset", str(tmp_path / "ds")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(".csv") == 4
        from repro.market import traces_from_csv_dir

        back = traces_from_csv_dir(tmp_path / "ds")
        assert len(back) == 4


class TestRunCommand:
    def test_drrp_trace_round_trips_and_root_matches_solve(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["run", "drrp", "--horizon", "8", "--seed", "3",
                     "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== span tree ==" in out and "manifest:" in out

        from repro.obs import load_chrome_trace, read_process_events

        roots, _ = load_chrome_trace(out_dir / "drrp.trace.json")
        solve_roots = [r for r in roots if r.category == "solve"]
        assert len(solve_roots) == 1
        root = solve_roots[0]

        # acceptance: root span duration == solve_start -> solve_end, <1 ms off
        _, events = read_process_events(out_dir / "events.jsonl")
        t0 = next(e.t for e in events if e.kind == "solve_start")
        t1 = next(e.t for e in reversed(events) if e.kind == "solve_end")
        assert abs(root.duration - (t1 - t0)) < 1e-3

        # `report` on the trace file renders the same tree
        code = main(["report", str(out_dir / "drrp.trace.json")])
        rep = capsys.readouterr().out
        assert code == 0
        assert "chrome trace" in rep and "solve[" in rep

    def test_run_writes_replayable_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "m"
        code = main(["run", "drrp", "--horizon", "6", "--seed", "1",
                     "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == 0

        from repro.obs import RunManifest

        first = RunManifest.load(out_dir / "manifest.json")
        code = main(["run", "drrp", "--horizon", "6", "--seed", "1",
                     "--out-dir", str(tmp_path / "m2")])
        capsys.readouterr()
        assert code == 0
        second = RunManifest.load(tmp_path / "m2" / "manifest.json")
        assert first.replays(second)

    def test_experiment_target(self, tmp_path, capsys):
        out_dir = tmp_path / "fig4"
        code = main(["run", "fig4", "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4" in out and "experiment:fig4" in out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "fig4.trace.json").exists()
        assert (out_dir / "events.jsonl").exists()

    def test_unknown_target_exits_2(self, capsys):
        assert main(["run", "bogus"]) == 2
        assert "unknown run target" in capsys.readouterr().err


class TestRecordedRunEventLog:
    """``run`` writes the one event-log format: a ``process_meta`` header
    that places the run on a wall clock beside service captures."""

    @pytest.mark.parametrize("target, label", [
        (["drrp", "--horizon", "6", "--seed", "2"], "repro drrp m1.large"),
        (["fig10", "--trials", "1"], "repro fig10"),
    ], ids=["drrp", "fig10"])
    def test_events_start_with_process_meta(self, tmp_path, capsys, target, label):
        import json

        out_dir = tmp_path / "run"
        assert main(["run", *target, "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        first = json.loads((out_dir / "events.jsonl").read_text().splitlines()[0])
        assert first["kind"] == "process_meta"
        assert first["label"] == label
        assert first["pid"] == os.getpid()
        assert isinstance(first["wall_t0"], float)

    def test_trace_merges_run_and_service_capture(self, tmp_path, capsys):
        import json

        from repro.service import PlanningService, ServiceConfig

        run_dir, cap_dir = tmp_path / "run", tmp_path / "cap"
        assert main(["run", "drrp", "--horizon", "6", "--out-dir", str(run_dir)]) == 0
        with PlanningService(ServiceConfig(workers=1, capture_dir=str(cap_dir))) as svc:
            _, body = svc.submit({"vm": "m1.large", "horizon": 6, "seed": 4})
            job = svc.wait(body["job"]["id"], timeout=30.0)
            assert job.state.finished
        merged = tmp_path / "merged.trace.json"
        assert main(["trace", str(run_dir), str(cap_dir), "-o", str(merged)]) == 0
        assert "merged 2 process files" in capsys.readouterr().out
        doc = json.loads(merged.read_text())
        lanes = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert set(lanes) == {"repro drrp m1.large", f"service:{job.id}"}
        assert len(set(lanes.values())) == 2
        spans = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert spans == set(lanes.values())


class TestReportOnRecordedFiles:
    def test_manifest_file_renders_provenance(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["run", "drrp", "--horizon", "6", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        code = main(["report", str(out_dir / "manifest.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "run manifest" in out and "result_digest: sha256:" in out

    def test_event_log_renders_tree_and_metrics(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["run", "drrp", "--horizon", "6", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        code = main(["report", str(out_dir / "events.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "event log" in out and "== metrics ==" in out

    def test_unrecognized_file_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("not an artifact")
        code = main(["report", str(junk)])
        assert code == 2
        assert "not a trace" in capsys.readouterr().err


class TestRunDrrpObservability:
    def test_out_dir_trace_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["run", "drrp", "--horizon", "6", "--seed", "2",
                     "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan/drrp:m1.large/6" in out

        from repro.obs import RunManifest, load_chrome_trace

        roots, _ = load_chrome_trace(out_dir / "drrp.trace.json")
        assert any(r.category == "solve" for r in roots)
        man = RunManifest.load(out_dir / "manifest.json")
        assert man.seed == 2 and man.config["horizon"] == 6

    def test_profile_reads_the_event_log(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["run", "drrp", "--horizon", "6", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["profile", str(out_dir / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "solve[auto]" in out and "(100.0%)" in out

    def test_profile_bench_solver_rejects_a_bad_config_as_usage(self, capsys):
        # the same usage error `repro bench solver --set scenarios=3` exits 2 on
        assert main(["profile", "bench-solver", "--scenarios", "3"]) == 2
        assert "needs >= 8 scenarios" in capsys.readouterr().err


class TestFuzzObservability:
    def test_manifest_flag(self, tmp_path, capsys):
        manifest = tmp_path / "fuzz.manifest.json"
        code = main(["fuzz", "--seed", "4", "--cases", "6",
                     "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert manifest.exists() and "manifest: fuzz/campaign" in out

        from repro.obs import RunManifest

        man = RunManifest.load(manifest)
        assert man.events.get("fuzz_case") == 6

    def test_workers_flag_shards_campaign(self, capsys):
        code = main(["fuzz", "--seed", "4", "--cases", "8", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cases=8" in out


class TestBenchSolverCommand:
    def _tiny(self, extra=()):
        settings = ("seed=1", "bb_instances=1", "bb_vars=6", "bb_rows=4",
                    "node_limit=200", "drrp_horizon=6", "scenarios=8")
        return ["bench", "solver", *(a for v in settings for a in ("--set", v)), *extra]

    def test_writes_record_and_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code = main(self._tiny(["--set", "out=BENCH_tiny.json"]))
        out = capsys.readouterr().out
        assert code == 0
        assert "bb: warm" in out and "benders:" in out
        assert (tmp_path / "BENCH_tiny.json").exists()

    def test_check_against_self_passes(self, capsys, tmp_path, monkeypatch):
        # out and --check-against point at the same file: the fresh
        # record is written first, so the gate compares a record against
        # itself — deterministic, exercises the full CLI path.
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code = main(self._tiny([
            "--set", "out=base.json", "--check-against", str(tmp_path / "base.json"),
        ]))
        out = capsys.readouterr().out
        assert code == 0
        assert "regression gate passed" in out

    def test_missing_baseline_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        code = main(self._tiny(["--check-against", str(tmp_path / "nope.json")]))
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_too_few_scenarios_exits_2(self, capsys):
        code = main(["bench", "solver", "--set", "scenarios=3"])
        assert code == 2
        assert "scenarios" in capsys.readouterr().err


class TestBenchUsageErrors:
    """Each bad ``bench`` invocation exits 2 with one ``error:`` line."""

    def _one_error(self, err: str) -> None:
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        self._one_error(err)
        assert "invalid choice: 'nope'" in err

    def test_unknown_field(self, capsys):
        assert main(["bench", "fleet", "--set", "tenant=3"]) == 2
        err = capsys.readouterr().err
        self._one_error(err)
        assert "tenant=3" in err and "tenants" in err

    def test_wrong_type(self, capsys):
        assert main(["bench", "sim", "--set", "slots=many"]) == 2
        err = capsys.readouterr().err
        self._one_error(err)
        assert "slots takes int" in err

    def test_report_rejects_family_options(self, capsys):
        assert main(["bench", "report", "--set", "seed=1"]) == 2
        self._one_error(capsys.readouterr().err)

    def test_optional_field_takes_its_type(self):
        from repro.bench import FleetBenchConfig
        from repro.cli import _bench_config

        cfg = _bench_config(FleetBenchConfig, ["workers=1", "utilization=0.5"])
        assert cfg.workers == 1 and cfg.utilization == 0.5
