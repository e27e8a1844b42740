"""In-memory spans around endospec's public functions, installed from the
benchmark by replacing names in the modules that call them.

Every public function of the layer modules is wrapped, and so is every
integer kernel bound in a calling module. Each call records a span (name,
start, end, parent span, operation id); most kernels only count calls.
Names that do not exist are skipped and reported as absent, so a later
refactor that removes a helper does not break the traced run.
"""

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYER_MODULES = ("verify", "zeta", "varieties", "matrixops", "cli", "poly", "polygons")

KERNELS = (
    "mat_mul_int",
    "det_int",
    "charpoly_int",
    "minor_dets_int",
    "poly_mul_int",
    "poly_scale_sub_int",
    "row_combine_int",
    "row_content_int",
    "row_divide_int",
)
# Kernels with a span of their own; the others only count calls, so their
# time stays in the caller's self time (charpoly_int in poly.charpoly).
KERNEL_SPANS = {"kernels.mat_mul_int", "kernels.minor_dets_int"}

BUILD_SPANS = {
    "varieties.abelian_en",
    "varieties.abelian_from_h1",
    "varieties.grassmannian",
    "varieties.generic_model",
    "varieties.box_partitions",
}


def _coeff_bits(poly):
    bits = 0
    for c in poly.coeffs_asc():
        bits = max(bits, abs(getattr(c, "numerator", c)).bit_length())
        bits = max(bits, getattr(c, "denominator", 1).bit_length())
    return bits


class SpanRecorder:
    """Spans, call counts and size maxima of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self.fe_keys = set()
        self.op = None
        self.runs = 0  # operations begun; repeats of one op id count apart

    def begin_op(self, op_id):
        self.op = op_id
        self.runs += 1
        self.stack.clear()

    def end_op(self):
        """Close spans an exception left open (a timeout can land anywhere)."""
        now = perf_counter_ns()
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()
        self.op = None

    def note_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def probe(self, name, args, result, exc):
        """Size counters recorded where the work happens."""
        if name == "poly.charpoly" and exc is None:
            self.note_max("poly.charpoly.max_dim", len(args[0]))
            self.note_max("poly.charpoly.max_coeff_bits", _coeff_bits(result))
        elif name == "matrixops.exterior_power" and exc is None:
            self.note_max("matrixops.exterior_power.max_dim", result.nrows)
        elif name == "matrixops.invariant_factors":
            self.note_max("matrixops.invariant_factors.max_dim", args[0].nrows)
        elif name == "poly.functional_equation_check":
            P, q, i = args[:3]
            self.fe_keys.add((self.runs, i, q, P))
        elif name == "verify.weil_weight_check" and exc is not None:
            if type(exc).__name__ == "NumericError":
                self.counts["verify.weil_weight_check.numeric_errors"] += 1

    def self_times(self):
        """Seconds per span name: duration minus direct children's."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[idx]) / 1e9
        return out

    def call_counts(self):
        calls = Counter(self.counts)
        for span in self.spans:
            calls[span[0]] += 1
        return calls

    def build_calls(self):
        """Outermost model constructions."""
        return sum(
            1
            for name, _, _, parent, _ in self.spans
            if name in BUILD_SPANS
            and (parent < 0 or self.spans[parent][0] not in BUILD_SPANS)
        )

    def write_jsonl(self, fh):
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            span = {"id": idx, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op}
            fh.write(json.dumps(span) + "\n")


def _span_wrapper(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, perf_counter_ns(), 0, rec.stack[-1] if rec.stack else -1, rec.op]
        rec.spans.append(span)
        rec.stack.append(len(rec.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = perf_counter_ns()
            rec.stack.pop()
            rec.probe(name, args, None, exc)
            raise
        span[2] = perf_counter_ns()
        rec.stack.pop()
        rec.probe(name, args, result, None)
        return result

    return wrapper


def _count_wrapper(rec, name, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _endospec_modules():
    return [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "endospec" and m]


def find_targets():
    """Map span name -> function object for every layer function that exists."""
    targets = {}
    for short in LAYER_MODULES:
        try:
            mod = importlib.import_module(f"endospec.{short}")
        except ImportError:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                targets[f"{short}.{attr}"] = obj
    callers = [m for m in _endospec_modules() if not m.__name__.startswith("endospec._kernels")]
    for kname in KERNELS:
        for mod in callers:
            obj = vars(mod).get(kname)
            if callable(obj) and getattr(obj, "__module__", "").startswith("endospec._kernels"):
                targets[f"kernels.{kname}"] = obj
                break
    return targets


class Installed:
    """Context manager: wrap every target in every endospec module namespace
    that binds it, and restore the originals on exit."""

    def __init__(self, rec):
        self.rec = rec
        self.targets = find_targets()
        self.patched = []

    def __enter__(self):
        wrappers = {}
        for name, fn in self.targets.items():
            counted = name.startswith("kernels.") and name not in KERNEL_SPANS
            make = _count_wrapper if counted else _span_wrapper
            wrappers[id(fn)] = make(self.rec, name, fn)
        for mod in _endospec_modules():
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self.patched.append((namespace, attr, obj))
                    namespace[attr] = wrapper
        return self

    def __exit__(self, *exc):
        for namespace, attr, obj in reversed(self.patched):
            namespace[attr] = obj
        self.patched.clear()
        return False
