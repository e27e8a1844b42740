"""End-to-end and per-layer benchmark for endospec's `full_report` and CLI.

    python3 perfbench/run.py --workload abelian_scale --seed 1 --seconds 30 --trace 0

Runs one seeded workload in this process, closed loop, one operation at a
time, each under a time limit. Every operation's verdict is checked
against the answer known from how its input was built, and classified as
ok, wrong_verdict, raised or timeout. A run repeats whole passes over the
workload's operations while the next pass still fits in --seconds (at
least one pass); an operation that ended without a document (timeout or
exception) is not run again in the same run. Times count only for runs
that returned a document, and each operation is timed by the median of
those runs: wall_s (one pass at those times), ops_per_s and the printed
latency percentiles derive from them, which keeps them steadier on hosts
whose speed swings. Timeouts and exceptions show in the outcome counts,
failed_share and the failure reasons instead.

`correct` is false when an operation gives a wrong verdict or raises and
no entry of KNOWN_DEFECTS explains it, or when an operation's output
differs between its runs.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 untraced passes alternate with passes that have every layer
function wrapped, so both see the same host speed, and the run reports the
per-layer metrics of the first traced pass.
The lines before it give the environment fingerprint, outcome counts with
failure reasons, and a digest of the canonical outputs (`report.to_json()`
and CLI stdout bytes). A result document, and in traced runs the spans,
go to --out-dir. Compare two result documents with perfbench/compare.py.
BENCHMARK.json names the metrics; perfbench/metrics.py gives, for each
per-layer metric, the end-to-end metric and workload it should move.

endospec is imported from src/ of the checkout that holds this file; the
benchmark exits 2 without a result when it is not there.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Interpreter spawns for setup_s, half before and half after the passes.
SETUP_SPAWNS = 8
OUTCOMES = ("ok", "wrong_verdict", "raised", "timeout")
WITH_DOCUMENT = ("ok", "wrong_verdict")

# Failures endospec is known to produce on inputs that are valid by
# construction. They stay in the outcome counts, failed_share and the
# failure reasons, but leave `correct` true. Each entry: name, outcome,
# model families (Op.facts["family"]), and a pattern every failure of the
# operation must match (each failed check, or the exception).
KNOWN_DEFECTS = (
    ("weil_weight root finder (ROADMAP item 2)", "wrong_verdict", ("rotation", "grassmannian"),
     re.compile(r"^weil_weight\S*: root finder failed at \d+ digits on degree \d+$")),
    ("4300-digit int/str limit in zeta_to_json (ROADMAP item 5)", "raised", ("grassmannian",),
     re.compile(r"^ValueError: Exceeds the limit \(\d+ digits\) for integer string conversion"
                r".*\(in zeta\.zeta_to_json\b")),
)


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so `except Exception` in the
    code under test cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_endospec():
    """Import endospec from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        import endospec
        import endospec.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import endospec from {SRC}: {exc}")
    if not Path(endospec.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: endospec came from {endospec.__file__}, not {SRC}")
    return endospec


def git_commit():
    """HEAD from .git without running git; "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(endospec, args):
    import mpmath

    return {
        "python": platform.python_version(),
        "backend": getattr(endospec, "BACKEND", "absent"),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def time_setup(spawns):
    """Wall times of fresh interpreters importing endospec.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import endospec.cli"
    times = []
    for _ in range(spawns):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def _where(tb):
    """Where in endospec an exception struck: the innermost public function
    outside the kernels, then the innermost frame when that differs."""
    outer = inner = None
    for frame, _ in traceback.walk_tb(tb):
        path = Path(frame.f_code.co_filename)
        if not path.is_relative_to(SRC):
            continue
        name = frame.f_code.co_name
        inner = f"{path.stem}.{name}"
        if name.isidentifier() and not name.startswith("_") and path.parent.name == "endospec":
            outer = inner
    if outer is None or outer == inner:
        return inner or "?"
    return f"{outer} ({inner})"


class Runner:
    """Runs operations one at a time and checks each against its answer."""

    def __init__(self, workload, ops, workdir):
        from endospec import cli, varieties, verify

        # Called through the modules, so traced runs see the wrappers.
        self.cli, self.varieties, self.verify = cli, varieties, verify
        self.limit = workloads.TIME_LIMITS[workload]
        self.ops = ops
        self.paths = {}
        for op in ops:
            if op.kind == "cli":
                path = Path(workdir) / f"{op.op_id}.json"
                path.write_text(json.dumps(op.payload["doc"]))
                self.paths[op.op_id] = str(path)
        self.rec = None
        self.no_document = set()  # op ids not to run again in this run

    # -- one operation -----------------------------------------------------

    def _api(self, op):
        p = op.payload
        if p["model"] == "abelian_en":
            model = self.varieties.abelian_en(p["A"], p["q"])
        else:
            model = self.varieties.grassmannian(p["k"], p["n"], p["q"], p["variant"])
        report = self.verify.full_report(model, primes=list(workloads.PRIMES))
        doc = report.to_json()
        return (json.dumps(doc, indent=2) + "\n").encode(), doc

    def _cli(self, op):
        argv = list(op.payload["argv"])
        argv.insert(1, self.paths[op.op_id])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return out.getvalue().encode(), (code, out.getvalue(), err.getvalue())

    def run_op(self, op):
        """(outcome, seconds, sha256 of the output or None, reason, known
        defect or None)."""
        if self.rec is not None:
            self.rec.begin_op(op.op_id)
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        t0 = perf_counter()
        try:
            try:
                output, detail = (self._api if op.kind == "api" else self._cli)(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - t0
        except OpTimeout as exc:
            seconds = perf_counter() - t0
            self.no_document.add(op.op_id)
            where = _where(exc.__traceback__)
            return "timeout", seconds, None, f"over {self.limit:g} s limit, in {where}", None
        except Exception as exc:  # noqa: BLE001 - every failure is classified
            seconds = perf_counter() - t0
            self.no_document.add(op.op_id)
            msg = " ".join(str(exc).split())[:100]
            reason = f"{type(exc).__name__}: {msg} (in {_where(exc.__traceback__)})"
            return "raised", seconds, None, reason, known_defect(op, "raised", [reason])
        finally:
            if self.rec is not None:
                self.rec.end_op()
        check = check_api if op.kind == "api" else check_cli
        problem, failures = check(op, detail)
        digest = hashlib.sha256(output).hexdigest()
        if problem is None:
            return "ok", seconds, digest, None, None
        return "wrong_verdict", seconds, digest, problem, known_defect(op, "wrong_verdict", failures)

    def run_pass(self):
        """Every operation once, except those that ended without a document
        earlier in this run: their time is not measured, and a rerun would
        spend the run at the time limit."""
        t0 = perf_counter()
        results = [(op, *self.run_op(op)) for op in self.ops if op.op_id not in self.no_document]
        return perf_counter() - t0, results


# -- verdict checks against construction ------------------------------------


def _failures(checks):
    advisory = {"newton_over_hodge"}
    return [c for c in checks if c["status"] == "fail" and c["check"] not in advisory]


def _describe(check):
    where = f"@{check['degree']}" if "degree" in check else ""
    where += f"/p{check['prime']}" if "prime" in check else ""
    witness = check.get("witness", {})
    detail = witness.get("error") or witness.get("reason") or ""
    return f"{check['check']}{where}" + (f": {detail}" if detail else "")


def _summary(failures):
    more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
    return "; ".join(failures[:3]) + more


def known_defect(op, outcome, failures):
    """Name of the KNOWN_DEFECTS entry that explains every failure, or None."""
    for name, kind, families, pattern in KNOWN_DEFECTS:
        if (outcome == kind and op.facts.get("family") in families and failures
                and all(pattern.search(f) for f in failures)):
            return name
    return None


def check_api(op, doc):
    """(None, []) when the report matches the construction, else (the
    reason, every failed non-advisory check described)."""
    failures = [_describe(c) for c in _failures(doc["checks"])]
    if failures:
        return "expected pass, got " + _summary(failures), failures
    facts = op.facts
    if "p1" in facts and doc["degrees"][1].get("charpoly") != facts["p1"]:
        return "degree-1 charpoly differs from the constructed one", []
    if "betti" in facts and doc["model"]["betti"] != facts["betti"]:
        return "Betti numbers differ from the box-partition counts", []
    return None, []


def check_cli(op, detail):
    """Like check_api, for a CLI call's exit code and stdout."""
    code, stdout, stderr = detail
    if op.expect == "invalid":
        if code != 2 or stdout:
            return f"expected exit 2 and no document, got exit {code}", []
        return None, []
    try:
        doc = json.loads(stdout)
    except ValueError:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {code} without a JSON document: {last[0][:100]}", []
    failures = [_describe(c) for c in _failures(doc.get("checks", []))]
    want = 1 if op.expect == "fail" else 0
    if code != want:
        return f"expected exit {want}, got exit {code}" + (
            ": " + _summary(failures) if failures else ""
        ), failures
    command = op.payload["argv"][0]
    if command == "verify":
        if op.expect == "pass" and failures:
            return "expected pass, got " + _summary(failures), failures
        names = {c["check"] for c in _failures(doc["checks"])}
        missing = [c for c in op.fail_checks if c not in names]
        if missing:
            return f"expected {', '.join(missing)} to fail, got " + (
                _summary(failures) or "none"), []
        if "betti" in op.facts and doc["model"]["betti"] != op.facts["betti"]:
            return "Betti numbers differ from the construction", []
    elif command == "zeta":
        fe = doc["functional_equation"]
        if op.expect == "pass" and not (fe and fe["holds"]):
            return f"expected the zeta functional equation to hold, got {fe}", []
        if op.expect == "inapplicable" and fe is not None:
            return f"expected an inapplicable zeta functional equation, got {fe}", []
        if not doc["series_consistent"]:
            return "zeta series inconsistent with Lefschetz numbers", []
    elif command == "polygons":
        betti = op.facts["betti"][op.facts["degree"]]
        if doc["newton"][-1][0] != betti:
            return f"Newton polygon ends at x={doc['newton'][-1][0]}, expected {betti}", []
    return None, []


# -- run --------------------------------------------------------------------


def run_passes(runner, budget_s):
    """Whole passes while the next one should still fit (at least one)."""
    passes = []
    t0 = perf_counter()
    while True:
        wall, results = runner.run_pass()
        passes.append((wall, results))
        if perf_counter() - t0 + wall > budget_s:
            return passes


def run_traced_passes(runner, budget_s):
    """Untraced and traced passes in turn while the next pair should still
    fit (at least one pair). Spans are kept from the first traced pass;
    later ones record into a throwaway recorder, so they cost the same."""
    passes, traced = [], []
    rec = spans.SpanRecorder()
    t0 = perf_counter()
    while True:
        passes.append(runner.run_pass())
        runner.rec = spans.SpanRecorder() if traced else rec
        with spans.Installed(runner.rec) as installed:
            traced.append(runner.run_pass())
        runner.rec = None
        if perf_counter() - t0 + passes[-1][0] + traced[-1][0] > budget_s:
            return passes, traced, rec, installed.targets


def summarize(passes):
    """Outcomes per distinct operation (its first failure, else ok), the
    seconds of its runs that returned a document, and the output digest."""
    outcome = {}
    reasons = {}
    known = {}
    digests = {}
    per_op = {}
    runs = 0
    nondeterministic = []
    for _, results in passes:
        for op, result, seconds, h, reason, defect in results:
            runs += 1
            if outcome.get(op.op_id, "ok") == "ok":
                outcome[op.op_id] = result
            if result != "ok" and op.op_id not in reasons:
                reasons[op.op_id] = f"{result}: {reason}"
                known[op.op_id] = defect
            if result not in WITH_DOCUMENT:
                continue
            per_op.setdefault(op.op_id, []).append(seconds)
            if digests.setdefault(op.op_id, h) != h:
                nondeterministic.append(op.op_id)
    digest = hashlib.sha256()
    for op_id in sorted(digests):
        digest.update(f"{op_id}\0{digests[op_id]}\n".encode())
    counts = Counter(outcome.values())
    unexplained = [
        op_id for op_id, result in outcome.items()
        if result in ("wrong_verdict", "raised") and known[op_id] is None
    ]
    return {
        "counts": {k: counts[k] for k in OUTCOMES},
        "attempted": len(outcome),
        "failed": len(outcome) - counts["ok"],
        "runs": runs,
        "reasons": reasons,
        "known": known,
        "unexplained": sorted(unexplained),
        "per_op": per_op,
        "walls": [w for w, _ in passes],
        "digest": digest.hexdigest(),
        "nondeterministic": sorted(set(nondeterministic)),
    }


def op_times(summary):
    """Median seconds of each operation over its runs that returned a
    document."""
    return {op_id: statistics.median(times) for op_id, times in summary["per_op"].items()}


def end_to_end(summary, setup_s):
    """End-to-end metrics and the ungated latency percentiles. Each
    operation that returned a document is timed by the median of those
    runs in this process (see workloads.LIGHT_REPEATS); wall_s is one pass
    at those times. Timeouts and exceptions count in failed_share only."""
    times = list(op_times(summary).values())
    wall = sum(times)
    gated = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": len(times) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    latency = {
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
    }
    return gated, latency


def trace_overhead(summary, traced):
    """Traced minus untraced seconds, summed over the operations that
    returned a document in both, each at its median run."""
    untraced = op_times(summary)
    with_trace = op_times(summarize(traced))
    return sum(with_trace[k] - untraced[k] for k in with_trace.keys() & untraced.keys())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench"),
                        help="result documents and spans (default: .perfbench/)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    endospec = import_endospec()
    fp = fingerprint(endospec, args)
    ops = workloads.make_ops(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_times = [] if args.trace else time_setup(SETUP_SPAWNS // 2)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = Runner(args.workload, ops, workdir)
        # Untimed warm-up on a small operation (the lowest id is an E^2,
        # a G(1, 2) or a CLI call), so lazy imports finish before timing.
        runner.run_op(min(ops, key=lambda op: op.op_id))
        runner.no_document.clear()
        if not args.trace:
            passes = run_passes(runner, args.seconds)
            setup_times += time_setup(SETUP_SPAWNS - len(setup_times))
        else:
            passes, traced, rec, targets = run_traced_passes(runner, args.seconds)
            absent = metrics.absent_layers(targets)
    summary = summarize(passes)
    if args.trace:
        values = metrics.layer_values(rec, trace_overhead(summary, traced))
        latency = {}
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            rec.write_jsonl(fh)
    else:
        values, latency = end_to_end(summary, statistics.median(setup_times))
    correct = not summary["unexplained"] and not summary["nondeterministic"]

    print("fingerprint " + " ".join(f"{k}={v}" for k, v in fp.items()))
    counts = summary["counts"]
    share = summary["failed"] / summary["attempted"]
    print(
        f"outcomes failed_share={share:.4f} "
        + " ".join(f"{k}={counts[k]}" for k in OUTCOMES)
        + f" attempted={summary['attempted']} runs={summary['runs']} passes={len(passes)}"
        + f" measured_s={sum(summary['walls']):.1f}"
    )
    for op_id, reason in summary["reasons"].items():
        defect = summary["known"][op_id]
        print(f"failure {op_id} {reason}" + (f" [known defect: {defect}]" if defect else ""))
    if summary["unexplained"]:
        print("unexplained " + " ".join(summary["unexplained"]))
    if summary["nondeterministic"]:
        print("nondeterministic " + " ".join(summary["nondeterministic"]))
    print(f"digest sha256={summary['digest']} outputs={len(summary['per_op'])}")
    if args.trace:
        print("absent " + (" ".join(absent) if absent else "none"))
    for name, value in latency.items():
        print(f"latency {name} {value:.6g} s (n={len(summary['per_op'])} operations, "
              f"{summary['runs']} runs; not gated)")
    for name, value in values.items():
        note = ""
        if metrics.MOVES.get(name):
            note = " (moves " + ", ".join(f"{m}@{w}" for m, w in metrics.MOVES[name]) + ")"
        print(f"metric {name} {value:.6g} {metrics.UNITS[name]}{note}")

    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in values.items()},
    }
    document = dict(result, fingerprint=fp, latency=latency, outcomes=counts, failed_share=share,
                    reasons=summary["reasons"], known_defects=summary["known"],
                    unexplained=summary["unexplained"], digest=summary["digest"],
                    pass_walls=summary["walls"], op_seconds=summary["per_op"])
    (out_dir / f"{stem}.json").write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
