"""The benchmark runner (`perfbench/run.py`): its time limit, checked on an
operation that cannot finish (its report is repeated until the alarm
strikes, so the test holds however fast a single report becomes), and its
contract that an operation either gives a correct document or fails the
way an entry of KNOWN_DEFECTS explains. The abelian operations must give
the verdicts known from their construction, and every CLI operation's
stdout must be the document json.dumps writes with indent=2.

    PYTHONPATH=src python -m pytest tests/test_bench_runner.py
"""

import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.import_endospec()

ENDLESS = "E4-q25"


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def runner(tmp_path, monkeypatch, alarm):
    runner = run.Runner("abelian_scale", workloads.make_ops("abelian_scale", 1), tmp_path)
    api = runner._api

    def endless(op):
        if op.op_id != ENDLESS:
            return api(op)
        while True:
            api(op)

    monkeypatch.setattr(runner, "_api", endless)
    return runner


def by_id(runner, op_id):
    return next(op for op in runner.ops if op.op_id == op_id)


def test_every_per_layer_metric_finds_its_layer():
    """The benchmark finds functions by their names and modules, so a rename
    in the package would silently zero the per-layer metrics on it."""
    assert metrics.absent_layers(spans.find_targets()) == []


def test_timeout_is_reported_and_not_rerun(runner):
    runner.limit = 0.2
    outcome, seconds, output, reason, defect = runner.run_op(by_id(runner, ENDLESS))
    assert (outcome, output, defect) == ("timeout", None, None)
    assert 0.2 <= seconds < 2
    assert "limit" in reason
    assert ENDLESS in runner.no_document
    runner.ops = [by_id(runner, ENDLESS), by_id(runner, "E2-q25-a3")]
    _, results = runner.run_pass()
    assert [(r[0].op_id, r[1]) for r in results] == [("E2-q25-a3", "ok")]


def test_big_grassmannians_are_ok_or_a_known_defect(tmp_path, alarm):
    """Each seed-1 grassmannian_sweep operation with a 100-bit q and n <= 8
    (n = 9 reaches the 1 s limit) gives a correct document or raises as a
    KNOWN_DEFECTS entry explains. Any other exception, such as one raised
    in another function than the entry names, makes the benchmark print
    `correct: false`."""
    ops = {
        op.op_id: op
        for op in workloads.make_ops("grassmannian_sweep", 1)
        if op.op_id.endswith("-big") and op.payload["n"] <= 8
    }
    runner = run.Runner("grassmannian_sweep", list(ops.values()), tmp_path)
    for op in ops.values():
        outcome, _, _, reason, defect = runner.run_op(op)
        assert outcome == "ok" or (outcome == "raised" and defect), (op.op_id, reason)


def test_abelian_operations_give_the_constructed_verdicts(tmp_path, alarm):
    """Every distinct seed-1 abelian_scale operation, and the seed-1
    cli_mixed operations on rotation (polarized) and nonpolarized isogenies,
    give the verdict their construction fixes: these guard the reports
    that read every degree off degree 1."""
    for workload, family in (("abelian_scale", "rotation"), ("cli_mixed", "rotation"),
                             ("cli_mixed", "nonpolarized")):
        ops = {
            op.op_id: op
            for op in workloads.make_ops(workload, 1)
            if op.facts["family"] == family
        }
        assert ops
        runner = run.Runner(workload, list(ops.values()), tmp_path)
        for op in ops.values():
            outcome, _, _, reason, _ = runner.run_op(op)
            assert outcome == "ok", (workload, op.op_id, reason)


def test_cli_operations_print_indent_2_json(tmp_path, monkeypatch, alarm):
    """Every seed-1 cli_mixed operation ends ok, and what it prints is the
    document json.dumps(doc, indent=2) writes, newline-terminated."""
    ops = workloads.make_ops("cli_mixed", 1)
    runner = run.Runner("cli_mixed", ops, tmp_path)
    cli = runner._cli
    printed = {}

    def recorded(op):
        output, detail = cli(op)
        printed[op.op_id] = detail[1]
        return output, detail

    monkeypatch.setattr(runner, "_cli", recorded)
    for op in ops:
        outcome, _, _, reason, _ = runner.run_op(op)
        assert outcome == "ok", (op.op_id, reason)
    documents = {op_id: out for op_id, out in printed.items() if out}
    assert len(documents) > len(ops) // 2
    for op_id, out in documents.items():
        assert out == json.dumps(json.loads(out), indent=2) + "\n", op_id
