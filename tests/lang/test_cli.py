"""The `python -m repro.lang` command-line driver."""

import subprocess
import sys

PROGRAM = """
MODULE Cli;
(*CACHED*)
PROCEDURE Double(n : INTEGER) : INTEGER =
BEGIN RETURN n * 2 END Double;
BEGIN
  Print(Double(21))
END Cli.
"""

BROKEN = "MODULE Broken;\nBEGIN\n  ghost := 1\nEND Broken."


def run_cli(args, tmp_path, source=PROGRAM):
    path = tmp_path / "prog.alf"
    path.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "repro.lang", str(path), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCli:
    def test_runs_program(self, tmp_path):
        result = run_cli([], tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "42"

    def test_conventional_mode(self, tmp_path):
        result = run_cli(["--mode", "conventional"], tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "42"

    def test_show_transformed(self, tmp_path):
        result = run_cli(["--show-transformed"], tmp_path)
        assert result.returncode == 0
        assert "call(Double, 21)" in result.stdout
        assert "(*CACHED*)" not in result.stdout  # pragmas removed

    def test_stats_flag(self, tmp_path):
        result = run_cli(["--stats"], tmp_path)
        assert result.returncode == 0
        assert "steps:" in result.stderr
        assert "executions" in result.stderr

    def test_sites_flag(self, tmp_path):
        result = run_cli(["--sites"], tmp_path)
        assert result.returncode == 0
        assert "sites=" in result.stderr

    def test_warnings_flag(self, tmp_path):
        source = (
            "MODULE W;\n(*CACHED*)\n"
            "PROCEDURE F(VAR a : INTEGER) : INTEGER =\n"
            "BEGIN RETURN a END F;\nEND W."
        )
        result = run_cli(["--warnings"], tmp_path, source=source)
        assert result.returncode == 0
        assert "TOP" in result.stderr

    def test_typecheck_clean(self, tmp_path):
        result = run_cli(["--typecheck"], tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "42"

    def test_typecheck_finding_aborts(self, tmp_path):
        source = (
            "MODULE Bad;\nVAR x : INTEGER;\nBEGIN\n  x := TRUE\nEND Bad."
        )
        result = run_cli(["--typecheck"], tmp_path, source=source)
        assert result.returncode == 1
        assert "type error" in result.stderr

    def test_semantic_error_reported(self, tmp_path):
        result = run_cli([], tmp_path, source=BROKEN)
        assert result.returncode == 1
        assert "unknown variable" in result.stderr

    def test_missing_file(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lang", str(tmp_path / "nope.alf")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2

    def test_trace_written_on_success(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        result = run_cli(["--trace", str(trace_path)], tmp_path)
        assert result.returncode == 0
        assert trace_path.exists()
        assert "trace:" in result.stderr

    def test_profile_prints_procedure_table(self, tmp_path):
        result = run_cli(["--profile"], tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "42"
        assert "procedure" in result.stderr
        assert "calls" in result.stderr and "total_ms" in result.stderr
        assert "Double" in result.stderr
        assert "cache:" in result.stderr

    def test_explain_prints_causal_chain(self, tmp_path):
        result = run_cli(["--explain", "Double"], tmp_path)
        assert result.returncode == 0
        assert "Double" in result.stderr
        # the first run of a cached procedure is a first-execution
        assert "first-execution" in result.stderr
        assert "executed" in result.stderr

    def test_explain_unknown_label(self, tmp_path):
        result = run_cli(["--explain", "NoSuchProc"], tmp_path)
        assert result.returncode == 0
        assert "never-demanded" in result.stderr

    def test_spans_chrome_export(self, tmp_path):
        import json

        spans_path = tmp_path / "spans.json"
        result = run_cli(["--spans", str(spans_path)], tmp_path)
        assert result.returncode == 0
        trace = json.loads(spans_path.read_text())
        assert trace["traceEvents"]
        assert any(
            "Double" in e["name"] for e in trace["traceEvents"]
        )

    def test_profile_warns_in_conventional_mode(self, tmp_path):
        result = run_cli(
            ["--mode", "conventional", "--profile"], tmp_path
        )
        assert result.returncode == 0
        assert "no effect in conventional mode" in result.stderr

    def test_trace_flushed_when_program_raises(self, tmp_path):
        """A fault inside an incremental procedure must still leave a
        usable trace on disk — including the node-poisoned event."""
        import json

        source = (
            "MODULE T;\nVAR d : INTEGER;\n(*CACHED*)\n"
            "PROCEDURE Quot() : INTEGER =\n"
            "BEGIN RETURN 100 DIV d END Quot;\nBEGIN\n"
            "  d := 0;\n  Print(Quot())\nEND T."
        )
        trace_path = tmp_path / "trace.jsonl"
        result = run_cli(
            ["--trace", str(trace_path)], tmp_path, source=source
        )
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert trace_path.exists()
        events = [
            json.loads(line)["kind"]
            for line in trace_path.read_text().splitlines()
        ]
        assert "node-poisoned" in events

    def test_max_steps(self, tmp_path):
        source = (
            "MODULE Loop;\nVAR x : INTEGER;\nBEGIN\n"
            "  WHILE TRUE DO x := x + 1 END\nEND Loop."
        )
        result = run_cli(["--max-steps", "100"], tmp_path, source=source)
        assert result.returncode == 1
        assert "max_steps" in result.stderr
