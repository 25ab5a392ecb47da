"""Tests for the command-line interface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _build_parser, main


def source_env():
    """This environment with the tested package's source first on
    PYTHONPATH, for a child interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    return env


class TestParser:
    def test_building_the_parser_loads_no_analyzer(self):
        """Every invocation builds the whole parser, so the lint and
        specflow options are declared in repro.cli itself; the analyzer
        packages load only when one of those subcommands runs."""
        code = (
            "import sys, repro.cli; repro.cli._build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", code], env=source_env(),
            capture_output=True, text=True, check=True,
        ).stdout
        assert loaded.strip() == "[]"

    @pytest.mark.parametrize("command, options", [
        ("lint", ["paths", "--format", "--baseline", "--no-baseline",
                  "--select", "--ignore", "--update-baseline",
                  "--list-rules"]),
        ("specflow", ["--gadget", "--schemes", "--fuzz-seeds", "--seed-start",
                      "--static-only", "--format", "--json",
                      "--list-gadgets"]),
    ])
    def test_analyzer_subcommands_keep_their_options(self, command, options):
        """The options moved into repro.cli; each subcommand declares the
        same ones, in the same order, as its analyzer's module did."""
        subcommands = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        declared = [
            action.option_strings[-1] if action.option_strings else action.dest
            for action in subcommands.choices[command]._actions
        ]
        assert declared == ["--help", *options]

    def test_bench_is_an_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestList:
    def test_lists_schemes_and_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dom" in out
        assert "libquantum" in out
        assert "spec2017" in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "hmmer", "--scheme", "dom+ap",
                     "--warmup", "500", "--measure", "1500"]) == 0
        out = capsys.readouterr().out
        assert "hmmer under dom+ap" in out
        assert "IPC=" in out
        assert "doppelganger issued=" in out

    def test_run_with_baseline_normalization(self, capsys):
        assert main(["run", "hmmer", "--scheme", "dom",
                     "--warmup", "500", "--measure", "1000",
                     "--baseline"]) == 0
        assert "normalized IPC vs unsafe:" in capsys.readouterr().out

    def test_unknown_benchmark_is_an_error(self, capsys):
        assert main(["run", "doesnotexist"]) == 1
        assert "error:" in capsys.readouterr().err


class TestAttack:
    def test_attack_reports_all_schemes(self, capsys):
        assert main(["attack", "--secret", "9"]) == 0
        out = capsys.readouterr().out
        assert out.count("LEAKED") == 2          # unsafe and unsafe+ap
        assert out.count(" safe ") == 6          # all secure configs
        assert "inferred=9" in out


class TestTrace:
    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "hmmer", "--scheme", "stt+ap",
                     "--instructions", "200", "--window", "12"]) == 0
        out = capsys.readouterr().out
        assert "traced:" in out
        assert "D=dispatch" in out

    def test_trace_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["trace"])  # missing benchmark argument

    def test_reader_closing_the_pipe_early_exits_quietly(self):
        """``repro trace ... | head``: the timeline (about 200 KB) outgrows
        the pipe buffer, so the writes after the reader closes fail with
        EPIPE; the CLI exits 1 with no traceback on stderr."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "hmmer",
             "--scheme", "dom+ap", "--instructions", "3000", "--window", "2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=source_env(),
        )
        try:
            first = process.stdout.readline()
            process.stdout.close()
            _, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert first.startswith(b"traced:")
        assert stderr == b""
        assert process.returncode == 1


class TestSweep:
    def test_sweep_prints_grid_and_counters(self, capsys, tmp_path):
        assert main(["sweep", "--benchmarks", "hmmer,mcf",
                     "--schemes", "unsafe,dom", "--jobs", "2",
                     "--cache-dir", str(tmp_path),
                     "--warmup", "300", "--measure", "800"]) == 0
        out = capsys.readouterr().out
        assert "hmmer" in out and "mcf" in out
        assert "4 simulated" in out

    def test_sweep_warm_cache_resimulates_nothing(self, capsys, tmp_path):
        args = ["sweep", "--benchmarks", "hmmer", "--schemes", "unsafe,dom",
                "--jobs", "2", "--cache-dir", str(tmp_path),
                "--warmup", "300", "--measure", "800"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out
        assert "2 from disk cache" in out

    def test_sweep_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--benchmarks", "hmmer", "--schemes", "unsafe",
                     "--jobs", "1", "--warmup", "300", "--measure", "800",
                     "--csv", str(csv_path)]) == 0
        text = csv_path.read_text()
        assert text.startswith("benchmark,scheme,warmup,measure")
        assert "hmmer,unsafe" in text

    def test_sweep_unknown_benchmark_is_an_error(self, capsys):
        assert main(["sweep", "--benchmarks", "doesnotexist"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_sweep_drops_an_empty_scheme_entry(self, capsys):
        assert main(["sweep", "--benchmarks", "hmmer", "--schemes", "unsafe,",
                     "--jobs", "1", "--warmup", "300", "--measure", "800"]) == 0
        assert "1 simulated" in capsys.readouterr().out

    def test_sweep_spellings_of_one_label_are_one_run(self, capsys):
        assert main(["sweep", "--benchmarks", "hmmer",
                     "--schemes", "DOM+AP,dom+ap", "--jobs", "1",
                     "--warmup", "300", "--measure", "800"]) == 0
        out = capsys.readouterr().out
        assert ("2 results with 1 jobs: 1 simulated, 0 from disk cache, "
                "1 memoized") in out
        assert "DOM+AP" not in out


class TestFuzz:
    FAST = ["--matrix", "schemes", "--schemes", "unsafe,dom+ap",
            "--profiles", "default", "--jobs", "1"]

    def test_clean_campaign_exits_zero(self, capsys, tmp_path):
        assert main(["fuzz", "--seeds", "1",
                     "--repro-dir", str(tmp_path)] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "1 program(s)" in out
        assert "1 clean" in out

    def test_mutation_campaign_expects_findings(self, capsys, tmp_path):
        assert main(["fuzz", "--seeds", "1", "--mutation", "commit-bitflip",
                     "--no-minimize",
                     "--repro-dir", str(tmp_path)] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "1 finding(s)" in out
        assert "--replay" in out  # prints the replay command

    def test_selftest_minimizes_to_single_digits(self, capsys, tmp_path):
        assert main(["fuzz", "--selftest", "--seeds", "1",
                     "--repro-dir", str(tmp_path)] + self.FAST) == 0
        out = capsys.readouterr().out
        assert "selftest OK" in out
        assert "minimized" in out

    def test_replay_repro_file(self, capsys, tmp_path):
        from pathlib import Path

        corpus = Path(__file__).parent.parent / "fuzz" / "corpus"
        entry = sorted(corpus.glob("*.json"))[0]
        assert main(["fuzz", "--replay", str(entry)]) == 0
        out = capsys.readouterr().out
        assert "stock simulator" in out

    def test_replay_missing_file_is_an_error(self, capsys, tmp_path):
        assert main(["fuzz", "--replay", str(tmp_path / "gone.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_profile_is_an_error(self, capsys, tmp_path):
        assert main(["fuzz", "--seeds", "1", "--profiles", "nope",
                     "--repro-dir", str(tmp_path)]) == 1
        assert "unknown fuzz profile" in capsys.readouterr().err

    def test_help_names_the_default_schemes(self, capsys):
        from repro.fuzz import DEFAULT_FUZZ_SCHEMES

        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        help_line = text.rsplit("--schemes SCHEMES", 1)[1]
        named = re.search(r"\(default: ([^)]*)\)", help_line).group(1)
        assert tuple(named.split(",")) == DEFAULT_FUZZ_SCHEMES
