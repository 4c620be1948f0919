"""Every CLI report of the benchmark's op pool keeps its recorded bytes.

``perfbench/cli_digests.json`` holds the argv and the sha256 of the
stdout of each op of ``perfbench/workloads.py``'s ``cli_pool``.  The pool
is replayed here in process through ``cli.main``, so a report whose
bytes move fails by op id, and again in child processes under
``PYTHONHASHSEED`` 0 and 1 (``python tests/test_cli_digests.py`` prints
the replay's findings as JSON).  A change that moves bytes on purpose
re-records the digests in the same change:

    python3 perfbench/run.py --write-digests
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulrich_kit
from ulrich_kit import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    """``perfbench/workloads.py``, loaded by path; it imports its oracle
    as a top-level module from the benchmark directory, which must be on
    ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def replay(workloads) -> tuple[list[str], list[str]]:
    """Every op of the pool through ``cli.main``: the ids of the reports
    whose bytes moved from their recorded digest, and of those with a
    wrong exit code or answer.  The pool's object files are written to
    the working directory, as the reports echo their relative paths."""
    digests = json.loads((BENCH / "cli_digests.json").read_text())
    workloads.write_objects()
    pool = workloads.cli_pool()
    assert sorted(op.op_id for op in pool) == sorted(digests)
    moved, wrong = [], []
    for op in pool:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(list(op.argv))
        out = stdout.getvalue()
        recorded = digests[op.op_id]
        if (recorded["argv"], recorded["sha256"]) != (
            op.argv,
            hashlib.sha256(out.encode()).hexdigest(),
        ):
            moved.append(op.op_id)
        try:
            answer_ok = op.check_report(out if "--format" in op.argv else json.loads(out))
        except (KeyError, TypeError):
            answer_ok = False
        if code != op.expect_code or not answer_ok:
            wrong.append(op.op_id)
    return moved, wrong


def test_every_pool_report_matches_its_recorded_digest(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    moved, wrong = replay(load_workloads())
    assert not moved, f"CLI reports whose bytes moved from cli_digests.json: {moved}"
    assert not wrong, f"CLI reports with a wrong exit code or answer: {wrong}"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_every_pool_report_keeps_its_bytes_under_a_fixed_hash_seed(tmp_path, seed):
    """The same replay in a child under ``PYTHONHASHSEED``: no set or dict
    order that a hash decides may reach a report."""
    src = str(Path(ulrich_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"moved": [], "wrong": []}


if __name__ == "__main__":  # the child of the hash-seed test
    sys.path.insert(0, str(BENCH))
    moved, wrong = replay(load_workloads())
    print(json.dumps({"moved": moved, "wrong": wrong}))
