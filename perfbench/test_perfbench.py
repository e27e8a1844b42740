"""Tests of the benchmark itself: generators, expected answers against
sympy, outcome classification, tracing, and result comparison.

    python3 -m pytest perfbench
"""

import hashlib
import json
import signal

import pytest
import sympy as sp

import compare
import metrics
import run
import spans
import workloads

t = sp.symbols("t")
run.import_endospec()


def sym(desc):
    return sp.Poly([int(c) for c in desc], t)


def on_circle(poly, q):
    """Every root r of poly has |r|^2 == q, decided exactly."""
    return all(sp.simplify(sp.Abs(r) ** 2 - q) == 0 for r in sp.roots(poly, multiple=True))


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = [(op.op_id, op.payload) for op in workloads.make_ops(name, 5)]
    b = [(op.op_id, op.payload) for op in workloads.make_ops(name, 5)]
    c = [(op.op_id, op.payload) for op in workloads.make_ops(name, 6)]
    assert a == b
    assert a != c


def test_conjugation_preserves_polarization():
    """A = U B V with V = U^-1 and B^T B = q I gives A^T D A = q D for the
    positive definite D = V^T V."""
    import random

    rng = random.Random(0)
    for n in (2, 3, 4):
        U, V = workloads.unimodular_pair(rng, n, 8)
        assert workloads.mat_mul(U, V) == workloads.identity(n)
        q = 25
        B, _ = workloads.rotation_model(rng, n, q, reps=(3, -4)[: n // 2])
        Bt = [list(r) for r in zip(*B)]
        assert workloads.mat_mul(Bt, B) == [[q * x for x in r] for r in workloads.identity(n)]
        A = workloads.conjugate(U, B, V)
        D = workloads.mat_mul([list(r) for r in zip(*V)], V)
        At = [list(r) for r in zip(*A)]
        assert workloads.mat_mul(workloads.mat_mul(At, D), A) == [[q * x for x in r] for r in D]
        assert sp.Matrix(D).is_positive_definite


def test_small_abelian_members_against_sympy():
    for op in workloads.make_ops("abelian_scale", 3):
        if op.facts["n"] > 3:
            continue
        A = sp.Matrix(op.payload["A"])
        q = op.payload["q"]
        cp = A.charpoly(t)
        assert (cp ** 2).as_expr().expand() == sym(op.facts["p1"]).as_expr(), op.op_id
        assert on_circle(cp, q), op.op_id
        assert abs(A.det()) == sp.sqrt(q) ** op.facts["n"]


def test_grassmannian_betti_are_gaussian_binomials():
    x = sp.symbols("x")
    for op in workloads.make_ops("grassmannian_sweep", 1)[::3]:
        k, n = op.payload["k"], op.payload["n"]
        gauss = sp.prod([(1 - x ** (n - k + i)) / (1 - x ** i) for i in range(1, k + 1)])
        coeffs = sp.Poly(sp.cancel(gauss), x).all_coeffs()[::-1]
        assert op.facts["betti"][::2] == coeffs
        assert op.facts["betti"][1::2] == [0] * (len(op.facts["betti"]) // 2)
        assert sum(op.facts["betti"]) == sp.binomial(n, k)


def test_cli_documents_against_sympy():
    ops = workloads.make_ops("cli_mixed", 4)
    groups = workloads.CLI_GROUPS
    assert len(ops) == 30 * groups
    assert sum(op.expect in ("fail", "inapplicable") for op in ops) == 9 * groups
    assert sum(op.expect == "invalid" for op in ops) == 3 * groups
    for op in ops:
        doc = op.payload["doc"]
        if op.expect == "invalid":
            continue
        q = int(doc["q"])
        if doc["kind"] == "abelian_en":
            cp = sp.Matrix([[int(v) for v in r] for r in doc["isogeny_matrix"]]).charpoly(t)
            if op.expect == "fail":
                roots = sp.roots(cp, multiple=True)
                assert all(r.is_integer for r in roots) and roots[0] * roots[1] == q
                assert roots[0] ** 2 != q and roots[0] != roots[1]
            else:
                assert on_circle(cp, q)
        elif doc["kind"] == "abelian":
            cp = sp.Matrix([[int(v) for v in r] for r in doc["matrix"]]).charpoly(t)
            assert on_circle(cp, q)
        elif doc["kind"] == "generic":
            p1 = sym(doc["charpolys"][1])
            mirrored = sp.expand(t ** 4 * p1.as_expr().subs(t, sp.Rational(q) / t) / q ** 2)
            fe_holds = sp.expand(mirrored - p1.as_expr()) == 0
            if op.expect == "pass":
                assert fe_holds and on_circle(p1, q)
            else:
                assert not fe_holds


def test_invalid_documents_break_a_rule():
    singular = workloads.INVALID_DOCS[1]["isogeny_matrix"]
    assert sp.Matrix([[int(v) for v in r] for r in singular]).det() == 0
    kinds = {doc["kind"] for doc in workloads.INVALID_DOCS}
    assert "elliptic" in kinds  # not a descriptor kind


# -- runner ------------------------------------------------------------------


@pytest.fixture
def runner(tmp_path):
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    ops = workloads.make_ops("abelian_scale", 1) + workloads.make_ops("cli_mixed", 1)
    yield run.Runner("abelian_scale", ops, tmp_path)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def by_id(runner, op_id):
    return next(op for op in runner.ops if op.op_id == op_id)


def test_runner_ok_and_output(runner):
    outcome, seconds, digest, reason, defect = runner.run_op(by_id(runner, "E2-q25-a3"))
    assert (outcome, reason, defect) == ("ok", None, None)
    assert len(digest) == 64 and 0 < seconds < 5


def test_runner_timeout_is_not_rerun(runner):
    runner.limit = 0.2
    outcome, seconds, output, reason, _ = runner.run_op(by_id(runner, "E4-q25"))
    assert outcome == "timeout" and output is None
    assert 0.2 <= seconds < 2
    assert "limit" in reason
    runner.ops = [by_id(runner, "E4-q25"), by_id(runner, "E2-q25-a3")]
    _, results = runner.run_pass()
    assert [r[0].op_id for r in results] == ["E2-q25-a3"]


def test_runner_raised(runner):
    op = workloads.Op("bad", "api", {"model": "grassmannian", "k": 0, "n": 3,
                                     "q": 4, "variant": "scalar"}, "pass")
    outcome, _, output, reason, defect = runner.run_op(op)
    assert outcome == "raised" and output is None and defect is None
    assert reason.startswith("ValidityError")
    assert "bad" in runner.no_document


def test_runner_cli_invalid_exits_2(runner):
    op = next(op for op in runner.ops if op.expect == "invalid")
    outcome, _, digest, reason, _ = runner.run_op(op)
    assert (outcome, digest) == ("ok", hashlib.sha256(b"").hexdigest())


ROOT_FINDER = {"check": "weil_weight", "status": "fail", "degree": 4,
               "witness": {"error": "root finder failed at 75 digits on degree 12"}}


def test_wrong_verdict_is_reported():
    op = workloads.Op("x", "api", {}, "pass")
    doc = {"checks": [ROOT_FINDER, {"check": "newton_over_hodge", "status": "fail"}],
           "degrees": [], "model": {}}
    failure = "weil_weight@4: root finder failed at 75 digits on degree 12"
    assert run.check_api(op, doc) == ("expected pass, got " + failure, [failure])
    doc["checks"] = doc["checks"][1:]  # advisory only
    assert run.check_api(op, doc) == (None, [])


def test_known_defects():
    rotation = workloads.Op("E4-q25", "api", {}, "pass", facts={"family": "rotation"})
    generic = workloads.Op("g", "api", {}, "pass", facts={"family": "generic"})
    failure = run._describe(ROOT_FINDER)
    assert "root finder" in run.known_defect(rotation, "wrong_verdict", [failure])
    assert run.known_defect(generic, "wrong_verdict", [failure]) is None
    other = "functional_equation@2: coefficients differ"
    assert run.known_defect(rotation, "wrong_verdict", [failure, other]) is None
    assert run.known_defect(rotation, "wrong_verdict", []) is None
    grass = workloads.Op("G", "api", {}, "pass", facts={"family": "grassmannian"})
    limit = ("ValueError: Exceeds the limit (4300 digits) for integer string conversion; "
             "use sys.set_int_max_str_digits() to i (in zeta.zeta_to_json (zeta.<listcomp>))")
    assert "4300" in run.known_defect(grass, "raised", [limit])
    assert run.known_defect(grass, "raised", ["ValueError: bad (in cli.main)"]) is None


def test_summary_times_only_operations_with_a_document():
    ops = {name: workloads.Op(name, "api", {}, "pass") for name in "abcd"}
    first = [
        (ops["a"], "ok", 1.0, "h1", None, None),
        (ops["b"], "timeout", 15.0, None, "over the limit", None),
        (ops["c"], "wrong_verdict", 2.0, "h2", "expected pass", "known"),
        (ops["d"], "raised", 0.5, None, "ValueError: x", None),
        (ops["a"], "ok", 0.8, "h1", None, None),
    ]
    second = [(ops["a"], "ok", 0.9, "h1", None, None), (ops["c"], "wrong_verdict", 3.0, "h2",
                                                       "expected pass", "known")]
    summary = run.summarize([(20.0, first), (4.0, second)])
    assert summary["counts"] == {"ok": 1, "wrong_verdict": 1, "raised": 1, "timeout": 1}
    assert (summary["attempted"], summary["failed"], summary["runs"]) == (4, 3, 7)
    assert summary["unexplained"] == ["d"]
    assert not summary["nondeterministic"]
    gated, latency = run.end_to_end(summary, 0.2)
    assert gated["wall_s"] == pytest.approx(0.9 + 2.5)
    assert gated["ops_per_s"] == pytest.approx(2 / 3.4)
    traced = (5.0, [(ops["a"], "ok", 1.1, "h1", None, None),
                    (ops["c"], "wrong_verdict", 2.5, "h2", "expected pass", "known")])
    assert run.trace_overhead(summary, [traced]) == pytest.approx(0.2 + 0.0)
    second[0] = (ops["a"], "ok", 0.9, "h3", None, None)
    assert run.summarize([(20.0, first), (4.0, second)])["nondeterministic"] == ["a"]


# -- tracing -----------------------------------------------------------------


def test_trace_spans_and_restore(runner):
    from endospec import verify

    original = verify.full_report
    rec = spans.SpanRecorder()
    runner.rec = rec
    with spans.Installed(rec) as installed:
        assert verify.full_report is not original
        outcome, *_ = runner.run_op(by_id(runner, "E2-q25-a3"))
    assert verify.full_report is original
    assert outcome == "ok"
    names = {s[0] for s in rec.spans}
    assert {"varieties.abelian_en", "poly.charpoly", "verify.full_report"} <= names
    assert all(s[2] >= s[1] and s[4] == "E2-q25-a3" for s in rec.spans)
    top = [s for s in rec.spans if s[3] < 0]
    assert {s[0] for s in top} == {"varieties.abelian_en", "verify.full_report"}
    values = metrics.layer_values(rec, 0.0)
    assert values["varieties.build.calls"] == 1
    assert values["poly.charpoly.max_dim"] == 6
    assert values["kernels.row_combine_int.calls"] > 0
    assert 0 < values["poly.functional_equation_check.useful_ratio"] <= 1
    assert sum(rec.self_times().values()) <= sum(s[2] - s[1] for s in top) / 1e9 + 1e-9
    assert metrics.absent_layers(installed.targets) == []


def test_missing_layer_is_absent(monkeypatch):
    import endospec._kernels as kernels
    from endospec import matrixops

    monkeypatch.delattr(kernels, "row_combine_int")
    monkeypatch.delattr(matrixops, "row_combine_int")
    targets = spans.find_targets()
    assert "kernels.row_combine_int" not in targets
    assert metrics.absent_layers(targets) == ["kernels.row_combine_int"]
    with spans.Installed(spans.SpanRecorder()):
        pass


# -- results -----------------------------------------------------------------


def test_compare_refuses_other_python_or_backend():
    base = {"fingerprint": {"python": "3.11.7", "backend": "pure", "workload": "w", "trace": 0},
            "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}, "digest": "ab", "outcomes": {}}
    new = json.loads(json.dumps(base))
    assert compare.comparable(base, new) is None
    assert "wall_s: 2 -> 2 s (+0.0%)" in compare.report(base, new)
    new["fingerprint"]["backend"] = "compiled"
    assert "backend" in compare.comparable(base, new)
    new["fingerprint"].update(backend="pure", python="3.12.1")
    assert "python" in compare.comparable(base, new)
