"""CLI subcommands."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pipeline_defaults(self):
        args = build_parser().parse_args(["pipeline"])
        assert args.dataset == "cifar10-bench"
        assert args.attack == "A1"
        assert args.cr == 5.0

    def test_rejects_unknown_attack(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline", "--attack", "A9"])

    def test_sweep_values(self):
        args = build_parser().parse_args(
            ["sweep-cr", "--values", "1", "2.5"])
        assert args.values == [1.0, 2.5]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.response_cache == 0
        assert args.port == 0

    def test_serve_cache_knob(self):
        args = build_parser().parse_args(["serve", "--response-cache", "128"])
        assert args.response_cache == 128

    def test_serve_has_no_process_tier_flags(self, capsys):
        for flag in ("--serve-workers", "--worker-retries",
                     "--worker-deadline"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", flag, "2"])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_negative_response_cache(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--response-cache", "-1"])
        assert "--response-cache must be >= 0" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "ReVeil" in out and "BadNets" in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "cifar10-bench" in out and "unit" in out

    def test_pipeline_tiny_run(self, capsys):
        code = main(["pipeline", "--dataset", "unit", "--model-scale",
                     "tiny", "--epochs", "2", "--attack", "A1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "poisoning" in out and "unlearning" in out

    def test_sweep_cr_tiny_run(self, capsys):
        code = main(["sweep-cr", "--dataset", "unit", "--model-scale",
                     "tiny", "--epochs", "1", "--values", "1"])
        assert code == 0
        assert "cr=1" in capsys.readouterr().out


class TestServeParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.max_batch_size == 32
        assert args.max_delay_ms == 2.0
        assert args.max_queue == 128
        assert not args.no_screen

    def test_client_requires_url(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])

    def test_client_defaults(self):
        args = build_parser().parse_args(
            ["client", "--url", "http://127.0.0.1:8351", "--triggered"])
        assert args.requests == 64 and args.concurrency == 4
        assert args.triggered and args.version is None

    def test_client_unreachable_server_fails_cleanly(self, capsys):
        # Port 1 on localhost: nothing listens there.
        code = main(["client", "--url", "http://127.0.0.1:1",
                     "--dataset", "unit", "--requests", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestServeShutdown:
    def test_sigterm_runs_the_shutdown_path(self):
        """``kill`` stops ``repro serve`` the way Ctrl-C does."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "unit",
             "--model-scale", "tiny", "--epochs", "1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            lines = []
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                lines.append(line)
                if line.startswith("serving "):
                    break
            assert lines and lines[-1].startswith("serving "), "".join(lines)
            proc.send_signal(signal.SIGTERM)
            rest, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, "".join(lines) + rest
        assert "shutting down" in rest
