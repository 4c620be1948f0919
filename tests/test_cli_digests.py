"""Every CLI report of the benchmark's op pool keeps its recorded bytes.

``perfbench/cli_digests.json`` holds the argv and the sha256 of the
stdout of each op of ``perfbench/workloads.py``'s ``cli_pool``.  The pool
is replayed here in process through ``cli.main``, so a report whose
bytes move fails by op id.  A change that moves bytes on purpose
re-records the digests in the same change:

    python3 perfbench/run.py --write-digests
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from ulrich_kit import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by path; it imports its oracle
    as a top-level module from the benchmark directory."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_pool_report_matches_its_recorded_digest(monkeypatch, tmp_path, capsys):
    workloads = load_workloads(monkeypatch)
    digests = json.loads((BENCH / "cli_digests.json").read_text())
    # the pool's object files sit at relative paths, which the reports echo
    monkeypatch.chdir(tmp_path)
    workloads.write_objects()
    pool = workloads.cli_pool()
    assert sorted(op.op_id for op in pool) == sorted(digests)
    moved, wrong = [], []
    for op in pool:
        code = cli.main(list(op.argv))
        out = capsys.readouterr().out
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
    assert not moved, f"CLI reports whose bytes moved from cli_digests.json: {moved}"
    assert not wrong, f"CLI reports with a wrong exit code or answer: {wrong}"
