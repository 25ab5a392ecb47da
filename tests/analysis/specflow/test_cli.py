"""``repro specflow`` CLI contract: output shapes and exit codes."""

import json

from repro.cli import main


class TestExitCodes:
    def test_clean_static_only_run_exits_zero(self, capsys):
        assert main(["specflow", "--static-only", "--fuzz-seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "spectre_v1" in out
        assert "0 disagreement(s)" in out

    def test_unknown_gadget_is_a_usage_error(self, capsys):
        assert main(["specflow", "--gadget", "nope"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        assert main(["specflow", "--schemes", "unsafe,warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_scheme_label_spelling_is_canonical(self, capsys):
        assert main(["specflow", "--schemes", "DOM+AP", "--static-only"]) == 0
        assert "dom+ap " in capsys.readouterr().out

    def test_negative_fuzz_seeds_is_a_usage_error(self, capsys):
        assert main(["specflow", "--fuzz-seeds", "-1"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestOutputs:
    def test_list_gadgets(self, capsys):
        assert main(["specflow", "--list-gadgets"]) == 0
        out = capsys.readouterr().out
        assert "spectre_v1" in out
        assert "store_forward_probe" in out

    def test_json_format_is_machine_readable(self, capsys):
        assert main([
            "specflow", "--static-only", "--fuzz-seeds", "0",
            "--gadget", "spectre_v1", "--schemes", "unsafe,dom+ap",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["corpus_cells"] == 2
        verdicts = payload["programs"][0]["verdicts"]
        assert verdicts["unsafe"]["verdict"] == "leak-possible"
        assert verdicts["dom+ap"]["verdict"] == "safe"

    def test_json_file_written_alongside_text(self, capsys, tmp_path):
        out_path = tmp_path / "specflow.json"
        assert main([
            "specflow", "--static-only", "--fuzz-seeds", "0",
            "--gadget", "spectre_v1", "--json", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True

    def test_leak_path_rendered_for_leaking_scheme(self, capsys):
        assert main([
            "specflow", "--static-only", "--fuzz-seeds", "0",
            "--gadget", "spectre_v1", "--schemes", "unsafe",
        ]) == 0
        out = capsys.readouterr().out
        assert "transmitter @pc" in out
        assert "speculation window" in out


class TestDynamicCut:
    def test_one_cell_with_dynamics_runs_clean(self, capsys):
        assert main([
            "specflow", "--fuzz-seeds", "0",
            "--gadget", "store_forward_probe", "--schemes", "unsafe",
        ]) == 0
        assert "1 cell(s) checked" in capsys.readouterr().out
