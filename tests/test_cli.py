"""Command line behavior: subcommands, formats, exit codes."""

import io
import json
import os

import pytest

from aqldb.cli import main

PASSING = """
replicas r1 r2
schema {
  CREATE UPDATE_WINS TABLE T (
    K VARCHAR PRIMARY KEY,
    V INT ADDITIVE
  );
}
tx a @r1 { INSERT INTO T VALUES ('x', 3) }
deliver_all
assert converged
assert table @r2 T {
  x,3
}
"""

FAILING = PASSING.replace("x,3", "x,99")

SCHEMA = """
CREATE UPDATE_WINS TABLE T (
  K VARCHAR PRIMARY KEY,
  V INT ADDITIVE CHECK (V >= 0)
);
"""


@pytest.fixture()
def latin1_file(tmp_path):
    """A file whose bytes are not UTF-8 text."""
    path = tmp_path / "latin1.txt"
    path.write_bytes("replicas r1\n# caf\u00e9\n".encode("latin-1"))
    return str(path)


def stdin_of(data: bytes, errors: str = "strict") -> io.TextIOWrapper:
    """A text stdin over the given bytes, as the interpreter builds one."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


def assert_input_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and "not UTF-8" in err
    assert "Traceback" not in err


@pytest.fixture()
def passing_script(tmp_path):
    path = tmp_path / "pass.aqlsim"
    path.write_text(PASSING)
    return str(path)


@pytest.fixture()
def failing_script(tmp_path):
    path = tmp_path / "fail.aqlsim"
    path.write_text(FAILING)
    return str(path)


class TestRun:
    def test_pass_exit_zero(self, passing_script, capsys):
        assert main(["run", passing_script]) == 0
        out = capsys.readouterr().out
        assert "pass: PASS" in out

    def test_fail_exit_one(self, failing_script, capsys):
        assert main(["run", failing_script]) == 1
        out = capsys.readouterr().out
        assert "fail: FAIL" in out
        assert "want" in out

    def test_machine_format(self, passing_script, failing_script, capsys):
        code = main(["--format", "machine", "run", passing_script, failing_script])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [entry["ok"] for entry in payload] == [True, False]
        assert payload[1]["failures"]

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.aqlsim"
        path.write_text("replicas r1\nwat\n")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["run", "/nonexistent/x.aqlsim"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_exit_two(self, latin1_file, capsys):
        assert main(["run", latin1_file]) == 2
        assert_input_error(capsys, latin1_file)


class TestFuzz:
    def test_clean_seeds(self, capsys):
        assert main(["fuzz", "--seed", "0", "--runs", "3", "--events", "30"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_machine_format(self, capsys):
        assert main(["--format", "machine", "fuzz", "--seed", "0", "--events", "30"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["seed"] == 0
        assert payload[0]["ok"]

    def test_no_replicas_exit_two(self, capsys):
        assert main(["fuzz", "--seed", "1", "--replicas", "0"]) == 2
        assert "at least one replica" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_is_a_usage_error(self, runs, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fuzz", "--seed", "1", "--runs", runs])
        assert err.value.code == 2
        assert "--runs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("events", ["0", "-3"])
    def test_events_below_one_is_a_usage_error(self, events, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fuzz", "--seed", "1", "--events", events])
        assert err.value.code == 2
        assert "--events must be at least 1" in capsys.readouterr().err

    def test_non_utf8_schema_exit_two(self, latin1_file, capsys):
        assert main(["fuzz", "--seed", "1", "--schema", latin1_file]) == 2
        assert_input_error(capsys, latin1_file)

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fuzz"])
        assert err.value.code == 2

    def test_custom_schema(self, tmp_path, capsys):
        path = tmp_path / "schema.aql"
        path.write_text(SCHEMA)
        code = main(["fuzz", "--seed", "1", "--events", "20", "--schema", str(path)])
        assert code == 0


class TestCheckSchema:
    def test_valid_schema_echoes_ddl(self, tmp_path, capsys):
        path = tmp_path / "schema.aql"
        path.write_text(SCHEMA)
        assert main(["check-schema", str(path)]) == 0
        out = capsys.readouterr().out
        assert "CREATE UPDATE_WINS TABLE T" in out
        assert "CHECK (V >= 0)" in out

    def test_invalid_schema_exit_two(self, tmp_path, capsys):
        path = tmp_path / "schema.aql"
        path.write_text("CREATE TABLE T (A INT, B INT)")
        assert main(["check-schema", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_foreign_key_clause_given_twice_exit_two(self, tmp_path, capsys):
        path = tmp_path / "schema.aql"
        path.write_text(
            "CREATE TABLE A (K INT PRIMARY KEY);\n"
            "CREATE TABLE B (K INT PRIMARY KEY, P INT FOREIGN KEY REFERENCES A (K)"
            " FOREIGN KEY REFERENCES Nope (X) ON DELETE CASCADE)"
        )
        assert main(["check-schema", str(path)]) == 2
        captured = capsys.readouterr()
        assert "column P has two FOREIGN KEY clauses" in captured.err
        assert captured.out == ""

    def test_machine_format(self, tmp_path, capsys):
        path = tmp_path / "schema.aql"
        path.write_text(SCHEMA)
        assert main(["--format", "machine", "check-schema", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T"]["primary_key"] == "K"
        assert payload["T"]["policy"] == "UPDATE_WINS"

    def test_non_utf8_schema_exit_two(self, latin1_file, capsys):
        assert main(["check-schema", latin1_file]) == 2
        assert_input_error(capsys, latin1_file)

    def test_empty_schema_prints_no_ddl(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of(b""))
        assert main(["check-schema"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_dash_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of(SCHEMA.encode()))
        assert main(["check-schema", "-"]) == 0
        assert "CREATE UPDATE_WINS TABLE T" in capsys.readouterr().out

    @pytest.mark.parametrize("errors", ["surrogateescape", "strict"])
    def test_non_utf8_stdin_exit_two(self, errors, monkeypatch, capsys):
        # surrogateescape is what a C locale gives sys.stdin
        monkeypatch.setattr("sys.stdin", stdin_of(b"\xff", errors))
        assert main(["check-schema"]) == 2
        assert_input_error(capsys, "stdin")


class TestDump:
    def test_prints_per_replica_tables(self, passing_script, capsys):
        assert main(["dump", passing_script]) == 0
        out = capsys.readouterr().out
        assert "replica r1" in out and "replica r2" in out
        assert out.count("x,3") == 2

    def test_non_utf8_file_exit_two(self, latin1_file, capsys):
        assert main(["dump", latin1_file]) == 2
        assert_input_error(capsys, latin1_file)

    def test_machine_format(self, passing_script, capsys):
        assert main(["--format", "machine", "dump", passing_script]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r1"]["T"] == ["x,3"]
        assert payload["r2"]["T"] == ["x,3"]


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "aqldb", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "fuzz" in proc.stdout
