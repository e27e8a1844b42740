"""What each per-layer metric should move, and how it is computed.

BENCHMARK.json holds the name, unit and direction of every metric; this
module reads them from there. MOVES maps each per-layer metric (traced
runs) to the end-to-end metrics and workloads it is expected to move.
failed_share is printed beside the end-to-end metrics but not gated.

The end-to-end metrics (untraced runs) measure:
- setup_s: fresh-interpreter `import endospec.cli`, median of spawns;
- wall_s: one pass over the operations that returned a document, each at
  the median of its runs;
- ops_per_s: those operations per second of wall_s;
- peak_rss_mb: peak resident memory of the benchmark process.
op_s_p50 and op_s_p90 (time to a verdict over the same operations) are
printed but not gated: single-operation percentiles spread wider between
runs on hosts whose speed swings than any bound BENCHMARK.json allows.
"""

import json
from pathlib import Path

from spans import BUILD_SPANS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

A, G, C = "abelian_scale", "grassmannian_sweep", "cli_mixed"
CHARPOLY = (("wall_s", A), ("ops_per_s", A))
SMITH = (("wall_s", A), ("failed_share", A), ("wall_s", G))
FE = (("wall_s", G), ("wall_s", A))
ZETA = (("wall_s", A), ("wall_s", G))

MOVES = {
    "varieties.build.self_s": (("wall_s", A),),
    "varieties.build.calls": (("wall_s", A),),
    "poly.charpoly.self_s": CHARPOLY,
    "poly.charpoly.calls": CHARPOLY,
    "poly.charpoly.max_dim": CHARPOLY,
    "poly.charpoly.max_coeff_bits": CHARPOLY,
    "kernels.mat_mul_int.self_s": CHARPOLY,
    "kernels.mat_mul_int.calls": CHARPOLY,
    "matrixops.exterior_power.self_s": (("wall_s", A),),
    "matrixops.exterior_power.max_dim": (("wall_s", A),),
    "kernels.minor_dets_int.self_s": (("wall_s", A),),
    "matrixops.invariant_factors.self_s": SMITH,
    "matrixops.invariant_factors.calls": SMITH,
    "matrixops.invariant_factors.max_dim": SMITH,
    "kernels.row_combine_int.calls": SMITH,
    "kernels.poly_scale_sub_int.calls": SMITH,
    "matrixops.polarization_witness.self_s": (("wall_s", A),),
    "poly.functional_equation_check.calls": FE,
    "poly.functional_equation_check.self_s": FE,
    # Distinct (degree, polynomial) pairs per operation run, summed, per call.
    "poly.functional_equation_check.useful_ratio": FE,
    "poly.half_weight_multiplicity.calls": (("wall_s", G),),
    "poly.cross_duality_check.self_s": (("wall_s", G),),
    "poly.squarefree_part.self_s": (("wall_s", G),),
    "verify.weil_weight_check.self_s": (("wall_s", G),),
    "verify.weil_weight_check.calls": (("wall_s", G),),
    "verify.weil_weight_check.numeric_errors": (("failed_share", A),),
    "verify.epsilon_congruence_check.self_s": (("wall_s", C),),
    "verify.full_report.self_s": (("wall_s", C),),
    "polygons.newton_polygon.self_s": (("wall_s", G),),
    "polygons.newton_polygon.calls": (("wall_s", G),),
    "polygons.np_ge_hp.self_s": (("wall_s", G),),
    "zeta.zeta_functional_equation.self_s": ZETA,
    "zeta.zeta_function.calls": ZETA,
    "zeta.zeta_function.self_s": ZETA,
    "cli.main.self_s": (("ops_per_s", C),),
    "cli.parse_descriptor.self_s": (("ops_per_s", C),),
    "trace.overhead_s": (),
}


def absent_layers(targets):
    """Layer functions a per-layer metric names that were not found."""
    wanted = {name.rpartition(".")[0] for name in PER_LAYER} - {"trace"}
    if BUILD_SPANS & set(targets):
        wanted.discard("varieties.build")
    return sorted(wanted - set(targets))


def layer_values(rec, overhead_s):
    """Per-layer metrics of one traced pass, from a SpanRecorder."""
    self_s = rec.self_times()
    calls = rec.call_counts()
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif layer == "varieties.build":
            out[name] = (
                sum(self_s.get(s, 0.0) for s in BUILD_SPANS)
                if stat == "self_s"
                else rec.build_calls()
            )
        elif stat == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif stat == "calls":
            out[name] = calls.get(layer, 0)
        elif stat == "useful_ratio":
            n = calls.get(layer, 0)
            out[name] = len(rec.fe_keys) / n if n else 0.0
        elif stat in ("max_dim", "max_coeff_bits"):
            out[name] = rec.maxima.get(name, 0)
        else:
            out[name] = rec.counts.get(name, 0)
    return out
