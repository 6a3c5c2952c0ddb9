"""The committed golden CLI record, tests/golden/record.jsonl: every command
of scripts/golden.py, recorded again, gives the committed bytes.

A change that moves an output on purpose records the file again
(`python3 scripts/golden.py tests/golden/record.jsonl`); `git diff` and
`golden.py --compare` show what moved."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "golden.py"
RECORD = ROOT / "tests" / "golden" / "record.jsonl"

_spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def assert_is_the_committed_record(path: Path) -> None:
    """Skip where the record at path was made on another host than the
    committed one (their first lines); else assert that the two are byte for
    byte equal, with golden.compare's line for each record that differs."""
    recorded, committed = path.read_bytes(), RECORD.read_bytes()
    host, committed_host = (text.partition(b"\n")[0].decode() for text in (recorded, committed))
    if host != committed_host:
        pytest.skip(f"host differs, not code: this host is {host}, the committed record's {committed_host}")
    if recorded != committed:
        lines = io.StringIO()
        with contextlib.redirect_stdout(lines):
            golden.compare(str(RECORD), str(path))
        pytest.fail(f"golden records moved (record the file again if that is meant):\n{lines.getvalue()}",
                    pytrace=False)


def test_the_cli_gives_the_committed_golden_record(tmp_path):
    path = tmp_path / "record.jsonl"
    assert golden.record(str(path)) == 0
    assert_is_the_committed_record(path)
