"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


class TestListCommand:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("nbody", "pigz", "memcached", "hdsearch_mid"):
            assert name in out

    def test_marks_correlation_workloads(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("nbody"))
        assert "yes" in line


class TestAnalyzeCommand:
    def test_basic_report(self, capsys):
        rc = main(["analyze", "vectoradd", "--threads", "16",
                   "--warp-size", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SIMT efficiency" in out
        assert "vectoradd" in out

    def test_lock_emulation_flag(self, capsys):
        rc = main(["analyze", "memcached", "--threads", "16",
                   "--emulate-locks"])
        assert rc == 0
        assert "lock events" in capsys.readouterr().out

    def test_unknown_workload_fails_cleanly(self, capsys):
        rc = main(["analyze", "definitely-not-a-workload"])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_save_traces(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        rc = main(["analyze", "nn", "--threads", "8",
                   "--save-traces", path])
        assert rc == 0
        assert os.path.exists(path)
        from repro.tracer import load_traces

        traces = load_traces(path)
        assert len(traces) == 8


class TestSpeedupCommand:
    def test_rtx3070_projection(self, capsys):
        rc = main(["speedup", "vectoradd", "--threads", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "projected speedup" in out
        assert "RTX3070" in out

    def test_small_simt_cpu_projection(self, capsys):
        rc = main(["speedup", "freqmine", "--threads", "16",
                   "--gpu", "small-simt-cpu"])
        assert rc == 0
        assert "small-simt-cpu" in capsys.readouterr().out

    def test_launch_threads_override(self, capsys):
        rc = main(["speedup", "nn", "--threads", "16",
                   "--launch-threads", "64"])
        assert rc == 0
        assert "launch threads:    64" in capsys.readouterr().out


class TestTracegenCommand:
    def test_writes_loadable_trace(self, tmp_path, capsys):
        path = str(tmp_path / "k.trace")
        rc = main(["tracegen", "btree", "--threads", "16",
                   "--warp-size", "8", "-o", path])
        assert rc == 0
        from repro.tracegen import load_kernel_trace

        kernel = load_kernel_trace(path)
        assert kernel.warp_size == 8
        assert len(kernel.warps) == 2
        assert kernel.total_issues > 0


class TestSimulateCommand:
    def test_simulate_saved_trace(self, tmp_path, capsys):
        path = str(tmp_path / "k.trace")
        assert main(["tracegen", "md5", "--threads", "16", "-o", path]) == 0
        capsys.readouterr()
        rc = main(["simulate", path, "--replicate", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "SIMT efficiency" in out

    def test_simulate_with_lrr_scheduler(self, tmp_path, capsys):
        path = str(tmp_path / "k.trace")
        main(["tracegen", "nn", "--threads", "16", "-o", path])
        capsys.readouterr()
        rc = main(["simulate", path, "--scheduler", "lrr"])
        assert rc == 0
        assert "lrr" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_prints_monotone_efficiencies(self, capsys):
        rc = main(["sweep", "dsb_text", "--threads", "32",
                   "--warp-sizes", "4,8,16"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines()[1:] if l.strip()]
        effs = [float(r[1].rstrip("%")) for r in rows]
        assert effs == sorted(effs, reverse=True)

    def test_sweep_with_lock_emulation(self, capsys):
        rc = main(["sweep", "memcached", "--threads", "16",
                   "--warp-sizes", "8", "--emulate-locks"])
        assert rc == 0


class TestWarpSizeValidation:
    @pytest.mark.parametrize("argv", [
        ["analyze", "vectoradd", "--warp-size", "0"],
        ["profile", "vectoradd", "--warp-size", "0"],
        ["speedup", "vectoradd", "--warp-size", "0"],
        ["tracegen", "vectoradd", "--warp-size", "0", "-o", "unused"],
        ["sweep", "vectoradd", "--warp-sizes", "0,8"],
    ], ids=lambda argv: argv[0])
    def test_non_positive_warp_size_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be a positive integer" in err


class TestLaunchSizeValidation:
    @pytest.mark.parametrize("value", ["0", "-64"])
    @pytest.mark.parametrize("argv", [
        ["speedup", "vectoradd", "--no-cache", "--launch-threads"],
        ["simulate", "unused.trace", "--replicate"],
    ], ids=lambda argv: argv[0])
    def test_non_positive_launch_size_is_a_usage_error(self, argv, value,
                                                       capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be a positive integer" in err


class TestJobsOnlyWherePoolRuns:
    @pytest.mark.parametrize("argv", [
        ["speedup", "vectoradd"],
        ["tracegen", "vectoradd", "-o", "unused"],
    ], ids=lambda argv: argv[0])
    def test_jobs_is_a_usage_error(self, argv, capsys):
        # Their replay carries a warp-trace visitor and always runs
        # serially, so they offer no --jobs.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--no-cache", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "profile", "sweep"])
    def test_pool_commands_keep_jobs(self, command):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [command, "vectoradd", "--jobs", "2"])
        assert args.jobs == 2


class TestThreadsValidation:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "vectoradd"],
        ["profile", "vectoradd"],
        ["speedup", "vectoradd"],
        ["tracegen", "vectoradd", "-o", "unused"],
        ["sweep", "vectoradd"],
    ], ids=lambda argv: argv[0])
    def test_non_positive_threads_is_a_usage_error(self, argv, threads,
                                                   capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--threads", threads, "--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be a positive integer" in err


class TestSimulateMissingTrace:
    def test_missing_trace_file_exits_2_with_one_line(self, tmp_path,
                                                      capsys):
        missing = str(tmp_path / "nonexistent.trace")
        assert main(["simulate", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and missing in lines[0]


class TestCacheLsCommand:
    def _seed(self, tmp_path):
        from repro.artifacts import (
            KIND_DCFGS, KIND_REPORT, KIND_TRACES, ArtifactStore)

        store = ArtifactStore(str(tmp_path))
        base = {"n_threads": 8, "seed": 7, "opt_level": "O1"}
        # Insertion order deliberately scrambled relative to the
        # (kind, workload, key) contract.
        for kind, workload in (
                (KIND_REPORT, "pigz"), (KIND_TRACES, "vectoradd"),
                (KIND_DCFGS, "nn"), (KIND_TRACES, "nn"),
                (KIND_REPORT, "aes"), (KIND_TRACES, "pigz")):
            store.put_bytes(kind, dict(base, kind=kind,
                                       workload=workload), b"x")
        return store.root

    def test_ls_order_is_kind_then_workload_then_key(
            self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[1:] if line.strip()]
        listed = [(row[0], row[1], row[-1]) for row in rows]
        assert len(listed) == 6
        assert listed == sorted(listed)
        # A second invocation prints byte-identical output.
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert capsys.readouterr().out.splitlines() == lines
