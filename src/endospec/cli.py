"""Command-line front end: parse model descriptors, run verifications, emit
JSON reports and SVG polygon renderings.

Model descriptors are JSON documents; every integer that can grow crosses
the boundary as a decimal string so nothing is squeezed through a float.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input or
usage, 3 internal error.
"""

import argparse
import json
import sys
from fractions import Fraction

from endospec.errors import EndospecError, ValidityError
from endospec.exactnum import NormalizedValuation
from endospec.matrixops import matrix_from_strings, matrix_to_strings
from endospec.poly import coeff_strings, poly_from_strings
from endospec.polygons import hodge_polygon, newton_polygon, np_ge_hp, vertices_json
from endospec.varieties import (
    abelian_en,
    abelian_from_h1,
    generic_model,
    grassmannian,
    has_hodge_data,
)
from endospec.verify import full_report
from endospec.zeta import (
    model_facts,
    zeta_function,
    zeta_functional_equation_verdict,
    zeta_series_consistency,
    zeta_to_json,
)

DESCRIPTOR_KINDS = ("abelian_en", "abelian", "grassmannian", "generic")

_ALLOWED_KEYS = {
    "abelian_en": {"kind", "q", "isogeny_matrix"},
    "abelian": {"kind", "q", "d", "matrix"},
    "grassmannian": {"kind", "q", "k", "n", "variant"},
    "generic": {"kind", "q", "d", "charpolys", "matrices", "hodge", "strict"},
}


def _require(doc, key):
    if key not in doc:
        raise ValidityError(f"descriptor is missing required field '{key}'")
    return doc[key]


def _as_int(value, label):
    """Decimal strings are the canonical form; bare ints are tolerated."""
    if isinstance(value, bool):
        raise ValidityError(f"{label} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        s = value.strip()
        if s and (s.lstrip("-").isdigit()):
            return int(s)
    raise ValidityError(f"{label} must be an integer or decimal string")


def _as_small_int(value, label):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidityError(f"{label} must be a plain integer")
    return value


def _as_matrix(value, label):
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(r, list) and r for r in value)
    ):
        raise ValidityError(f"{label} must be a nonempty array of rows")
    try:
        return matrix_from_strings(
            [[x if isinstance(x, str) else str(_as_int(x, label)) for x in r] for r in value]
        )
    except (EndospecError, ValueError) as exc:
        raise ValidityError(f"{label}: {exc}") from exc


def _as_poly(value, label):
    if not isinstance(value, list) or not value:
        raise ValidityError(f"{label} must be a nonempty coefficient array")
    try:
        return poly_from_strings(
            [x if isinstance(x, str) else str(_as_int(x, label)) for x in value]
        )
    except (EndospecError, ValueError) as exc:
        raise ValidityError(f"{label}: {exc}") from exc


def parse_descriptor(doc):
    """Build a model from a descriptor document. Unknown fields are
    rejected so typos fail loudly instead of silently choosing defaults."""
    if not isinstance(doc, dict):
        raise ValidityError("descriptor must be a JSON object")
    kind = doc.get("kind")
    if kind not in DESCRIPTOR_KINDS:
        raise ValidityError(
            f"kind must be one of {', '.join(DESCRIPTOR_KINDS)}, got {kind!r}"
        )
    extra = set(doc) - _ALLOWED_KEYS[kind]
    if extra:
        raise ValidityError(
            f"unknown descriptor fields for kind {kind}: {', '.join(sorted(extra))}"
        )
    q = _as_int(_require(doc, "q"), "q")
    if kind == "abelian_en":
        A = _as_matrix(_require(doc, "isogeny_matrix"), "isogeny_matrix")
        return abelian_en(A, q)
    if kind == "abelian":
        d = _as_small_int(_require(doc, "d"), "d")
        M = _as_matrix(_require(doc, "matrix"), "matrix")
        return abelian_from_h1(d, M, q)
    if kind == "grassmannian":
        k = _as_small_int(_require(doc, "k"), "k")
        n = _as_small_int(_require(doc, "n"), "n")
        variant = doc.get("variant", "scalar")
        return grassmannian(k, n, q, variant=variant)
    d = _as_small_int(_require(doc, "d"), "d")
    charpolys = {}
    if doc.get("charpolys") is not None:
        raw = doc["charpolys"]
        if not isinstance(raw, list):
            raise ValidityError("charpolys must be an array indexed by degree")
        for i, entry in enumerate(raw):
            if entry is not None:
                charpolys[i] = _as_poly(entry, f"charpolys[{i}]")
    matrices = {}
    if doc.get("matrices") is not None:
        raw = doc["matrices"]
        if not isinstance(raw, list):
            raise ValidityError("matrices must be an array indexed by degree")
        for i, entry in enumerate(raw):
            if entry is not None:
                matrices[i] = _as_matrix(entry, f"matrices[{i}]")
    hodge = doc.get("hodge")
    if hodge is not None:
        if not isinstance(hodge, list) or not all(
            isinstance(row, list) for row in hodge
        ):
            raise ValidityError("hodge must be an array of per-degree arrays")
        hodge = [
            [None if x is None else _as_small_int(x, "hodge") for x in row]
            for row in hodge
        ]
    strict = doc.get("strict", True)
    if not isinstance(strict, bool):
        raise ValidityError("strict must be a boolean")
    return generic_model(
        d, q, charpolys=charpolys, matrices=matrices, hodge=hodge, strict=strict
    )


def serialize_model(model):
    """Canonical descriptor for a model; big integers become strings."""
    q = str(model.q)
    if model.kind == "abelian" and "isogeny_matrix" in model.metadata:
        return {
            "kind": "abelian_en",
            "q": q,
            "isogeny_matrix": matrix_to_strings(model.metadata["isogeny_matrix"]),
        }
    if model.kind == "abelian":
        return {
            "kind": "abelian",
            "q": q,
            "d": model.dimension,
            "matrix": matrix_to_strings(model.action(1).matrix),
        }
    if model.kind == "grassmannian":
        return {
            "kind": "grassmannian",
            "q": q,
            "k": model.metadata["k"],
            "n": model.metadata["n"],
            "variant": model.metadata["variant"],
        }
    out = {
        "kind": "generic",
        "q": q,
        "d": model.dimension,
        "charpolys": [coeff_strings(a.charpoly) for a in model.actions],
    }
    if any(a.matrix is not None for a in model.actions):
        out["matrices"] = [
            None if a.matrix is None else matrix_to_strings(a.matrix)
            for a in model.actions
        ]
    if any(x is not None for row in model.hodge for x in row):
        out["hodge"] = [list(row) for row in model.hodge]
    out["strict"] = bool(model.metadata.get("strict", True))
    return out


_INT_STRING = {"type": "string", "pattern": "^-?[0-9]+$"}
_RATIONAL_STRING = {"type": "string", "pattern": "^-?[0-9]+(/[1-9][0-9]*)?$"}
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "minItems": 1,
        "items": {"$ref": "#/$defs/rationalString"},
    },
}
_POLYNOMIAL = {
    "type": "array",
    "minItems": 1,
    "items": {"$ref": "#/$defs/rationalString"},
}
_VERTICES = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "minItems": 2,
        "maxItems": 2,
        "prefixItems": [{"type": "integer"}, {"$ref": "#/$defs/rationalString"}],
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/endospec/schema.json",
    "title": "endospec wire formats",
    "description": (
        "Model descriptors accepted by the CLI and the JSON documents it "
        "emits. Integers that can exceed float precision are decimal "
        "strings; rational values are 'p' or 'p/q' strings."
    ),
    "oneOf": [
        {"$ref": "#/$defs/descriptor"},
        {"$ref": "#/$defs/report"},
        {"$ref": "#/$defs/polygonOutput"},
        {"$ref": "#/$defs/zetaOutput"},
    ],
    "$defs": {
        "intString": _INT_STRING,
        "rationalString": _RATIONAL_STRING,
        "matrix": _MATRIX,
        "polynomial": _POLYNOMIAL,
        "vertices": _VERTICES,
        "descriptor": {
            "oneOf": [
                {"$ref": "#/$defs/abelianEnDescriptor"},
                {"$ref": "#/$defs/abelianDescriptor"},
                {"$ref": "#/$defs/grassmannianDescriptor"},
                {"$ref": "#/$defs/genericDescriptor"},
            ]
        },
        "abelianEnDescriptor": {
            "type": "object",
            "properties": {
                "kind": {"const": "abelian_en"},
                "q": {"$ref": "#/$defs/intString"},
                "isogeny_matrix": {"$ref": "#/$defs/matrix"},
            },
            "required": ["kind", "q", "isogeny_matrix"],
            "additionalProperties": False,
        },
        "abelianDescriptor": {
            "type": "object",
            "properties": {
                "kind": {"const": "abelian"},
                "q": {"$ref": "#/$defs/intString"},
                "d": {"type": "integer", "minimum": 1},
                "matrix": {"$ref": "#/$defs/matrix"},
            },
            "required": ["kind", "q", "d", "matrix"],
            "additionalProperties": False,
        },
        "grassmannianDescriptor": {
            "type": "object",
            "properties": {
                "kind": {"const": "grassmannian"},
                "q": {"$ref": "#/$defs/intString"},
                "k": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 2},
                "variant": {"enum": ["scalar", "involution"]},
            },
            "required": ["kind", "q", "k", "n"],
            "additionalProperties": False,
        },
        "genericDescriptor": {
            "type": "object",
            "properties": {
                "kind": {"const": "generic"},
                "q": {"$ref": "#/$defs/intString"},
                "d": {"type": "integer", "minimum": 0},
                "charpolys": {
                    "type": "array",
                    "items": {
                        "oneOf": [{"$ref": "#/$defs/polynomial"}, {"type": "null"}]
                    },
                },
                "matrices": {
                    "type": "array",
                    "items": {"oneOf": [{"$ref": "#/$defs/matrix"}, {"type": "null"}]},
                },
                "hodge": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": ["integer", "null"]},
                    },
                },
                "strict": {"type": "boolean"},
            },
            "required": ["kind", "q", "d"],
            "additionalProperties": False,
        },
        "checkResult": {
            "type": "object",
            "properties": {
                "check": {
                    "enum": [
                        "functional_equation",
                        "cross_duality",
                        "jordan_symmetry",
                        "weil_weight",
                        "epsilon_congruence",
                        "even_multiplicity",
                        "newton_slope_zero",
                        "newton_symmetry",
                        "newton_over_hodge",
                        "zeta_functional_equation",
                    ]
                },
                "status": {"enum": ["pass", "fail", "not-applicable", "incomparable"]},
                "degree": {"type": "integer", "minimum": 0},
                "prime": {"$ref": "#/$defs/intString"},
                "witness": {"type": "object"},
            },
            "required": ["check", "status"],
            "additionalProperties": False,
        },
        "degreeRow": {
            "type": "object",
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "betti": {"type": "integer", "minimum": 0},
                "charpoly": {"$ref": "#/$defs/polynomial"},
                "epsilon": {"type": "integer"},
                "mu_plus": {"type": "integer", "minimum": 0},
                "mu_minus": {"type": "integer", "minimum": 0},
                "newton_polygons": {
                    "type": "object",
                    "patternProperties": {
                        "^[0-9]+$": {"$ref": "#/$defs/vertices"}
                    },
                    "additionalProperties": False,
                },
                "hodge_polygon": {"$ref": "#/$defs/vertices"},
            },
            "required": ["degree", "betti"],
            "additionalProperties": False,
        },
        "zetaBody": {
            "type": "object",
            "properties": {
                "numerator": {"$ref": "#/$defs/polynomial"},
                "denominator": {"$ref": "#/$defs/polynomial"},
                "chi": {"type": "integer"},
            },
            "required": ["numerator", "denominator", "chi"],
            "additionalProperties": False,
        },
        "report": {
            "type": "object",
            "properties": {
                "model": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["abelian", "grassmannian", "generic"]},
                        "dimension": {"type": "integer", "minimum": 0},
                        "q": {"$ref": "#/$defs/intString"},
                        "betti": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                        },
                        "primes": {
                            "type": "array",
                            "items": {"$ref": "#/$defs/intString"},
                        },
                        "precision": {"type": "integer", "minimum": 30},
                    },
                    "required": ["kind", "dimension", "q", "betti", "primes"],
                },
                "checks": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/checkResult"},
                },
                "degrees": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/degreeRow"},
                },
                "zeta": {"$ref": "#/$defs/zetaBody"},
            },
            "required": ["model", "checks", "degrees", "zeta"],
            "additionalProperties": False,
        },
        "polygonOutput": {
            "type": "object",
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "prime": {"$ref": "#/$defs/intString"},
                "newton": {"$ref": "#/$defs/vertices"},
                "hodge": {
                    "oneOf": [{"$ref": "#/$defs/vertices"}, {"type": "null"}]
                },
                "comparison": {
                    "oneOf": [
                        {
                            "type": "object",
                            "properties": {
                                "status": {
                                    "enum": ["holds", "fails", "incomparable"]
                                },
                                "endpoint_equal": {"type": ["boolean", "null"]},
                                "identical": {"type": ["boolean", "null"]},
                                "failure_x": {"type": ["integer", "null"]},
                            },
                            "required": ["status"],
                            "additionalProperties": False,
                        },
                        {"type": "null"},
                    ]
                },
            },
            "required": ["degree", "prime", "newton", "hodge", "comparison"],
            "additionalProperties": False,
        },
        "zetaOutput": {
            "type": "object",
            "properties": {
                "numerator": {"$ref": "#/$defs/polynomial"},
                "denominator": {"$ref": "#/$defs/polynomial"},
                "chi": {"type": "integer"},
                "functional_equation": {
                    "oneOf": [
                        {
                            "type": "object",
                            "properties": {
                                "holds": {"type": "boolean"},
                                "sign": {"type": ["integer", "null"]},
                                "expected_sign": {"type": "integer"},
                                "mu": {"type": "integer", "minimum": 0},
                            },
                            "required": ["holds", "expected_sign"],
                            "additionalProperties": False,
                        },
                        {"type": "null"},
                    ]
                },
                "series_order": {"type": "integer", "minimum": 1},
                "series_consistent": {"type": "boolean"},
            },
            "required": [
                "numerator",
                "denominator",
                "chi",
                "functional_equation",
                "series_order",
                "series_consistent",
            ],
            "additionalProperties": False,
        },
    },
}


# SVG layout constants; coordinates are computed exactly and only formatted
# to two decimals at the very end, which keeps output byte-stable.
_SVG_W, _SVG_H = 560, 420
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 64, 24, 40, 48


def _svg_scale(polygons):
    xmax = max(max(v[0] for v in p.vertices) for p in polygons)
    ymax = max(max(v[1] for v in p.vertices) for p in polygons)
    xmax = max(xmax, 1)
    ymax = max(ymax, Fraction(1))
    return xmax, ymax


def _svg_point(x, y, xmax, ymax):
    px = _PAD_L + Fraction(x) * (_SVG_W - _PAD_L - _PAD_R) / xmax
    py = _SVG_H - _PAD_B - Fraction(y) * (_SVG_H - _PAD_T - _PAD_B) / ymax
    return f"{float(px):.2f}", f"{float(py):.2f}"


def _fmt_value(y):
    f = Fraction(y)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_polygon_svg(NP, HP=None):
    """Newton polygon drawn solid, Hodge polygon dashed, vertices labeled.

    Output is a pure function of the vertex lists."""
    polygons = [NP] + ([HP] if HP is not None else [])
    xmax, ymax = _svg_scale(polygons)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
    ]
    for gx in range(xmax + 1):
        px, _ = _svg_point(gx, 0, xmax, ymax)
        parts.append(
            f'<line x1="{px}" y1="{_PAD_T}" x2="{px}" y2="{_SVG_H - _PAD_B}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px}" y="{_SVG_H - _PAD_B + 18}" text-anchor="middle" '
            f'fill="#555555">{gx}</text>'
        )
    gy = 0
    while gy <= ymax:
        _, py = _svg_point(0, gy, xmax, ymax)
        parts.append(
            f'<line x1="{_PAD_L}" y1="{py}" x2="{_SVG_W - _PAD_R}" y2="{py}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_PAD_L - 8}" y="{py}" text-anchor="end" dominant-baseline="middle" '
            f'fill="#555555">{gy}</text>'
        )
        gy += 1
    series = [("newton", NP, "#16417c", "")]
    if HP is not None:
        series.append(("hodge", HP, "#a3341f", ' stroke-dasharray="7 5"'))
    for name, poly, color, dash in series:
        pts = " ".join(
            "{},{}".format(*_svg_point(x, y, xmax, ymax)) for x, y in poly.vertices
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2"{dash} '
            f'points="{pts}"/>'
        )
        above = name == "newton"
        for x, y in poly.vertices:
            px, py = _svg_point(x, y, xmax, ymax)
            parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="{color}"/>')
            dy = -8 if above else 16
            parts.append(
                f'<text x="{px}" y="{float(py) + dy:.2f}" text-anchor="middle" '
                f'fill="{color}">({x}, {_fmt_value(y)})</text>'
            )
    parts.append(
        f'<text x="{_PAD_L}" y="{_PAD_T - 16}" fill="#16417c">Newton (solid)</text>'
    )
    if HP is not None:
        parts.append(
            f'<text x="{_PAD_L + 150}" y="{_PAD_T - 16}" fill="#a3341f">'
            f"Hodge (dashed)</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidityError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidityError(f"{path} is not valid JSON: {exc}") from exc


def _emit(args, payload, notes):
    """JSON goes to --out when given, else stdout; notes go to stderr
    unless silenced. Everything is newline-terminated and stable."""
    text = json.dumps(payload, indent=2) + "\n"
    json_to_stdout = args.json_only or not args.out
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if json_to_stdout:
        sys.stdout.write(text)
    if not (args.quiet or args.json_only):
        for line in notes:
            print(line, file=sys.stderr)


def _parse_primes(spec):
    try:
        primes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidityError(f"bad prime list {spec!r}") from exc
    if not primes:
        raise ValidityError("at least one prime is required")
    return primes


def cmd_verify(args):
    model = parse_descriptor(_load_document(args.input))
    primes = _parse_primes(args.primes)
    report = full_report(model, primes, precision=args.precision)
    counts = {"pass": 0, "fail": 0, "not-applicable": 0, "incomparable": 0}
    for r in report.results:
        counts[r.status] += 1
    notes = [
        "model kind={kind} d={dimension} q={q}".format(**report.model_summary),
        "checks: {pass} pass, {fail} fail, {not-applicable} not-applicable, "
        "{incomparable} incomparable".format(**counts),
    ]
    for r in report.results:
        if r.status == "fail":
            where = f" degree={r.degree}" if r.degree is not None else ""
            where += f" prime={r.prime}" if r.prime is not None else ""
            notes.append(f"FAIL {r.check_id}{where}")
    notes.append("verdict: " + ("FAIL" if report.has_failures else "PASS"))
    _emit(args, report.to_json(), notes)
    return 1 if report.has_failures else 0


def cmd_polygons(args):
    model = parse_descriptor(_load_document(args.input))
    i = args.degree
    if not 0 <= i <= 2 * model.dimension:
        raise ValidityError(
            f"degree {i} out of range 0..{2 * model.dimension}"
        )
    if model.betti(i) == 0:
        raise ValidityError(f"degree {i} has no cohomology")
    v = NormalizedValuation(args.prime, model.q)
    NP = newton_polygon(model.charpoly(i), v)
    HP = None
    if has_hodge_data(model, i):
        HP = hodge_polygon(i, model.hodge[i])
    payload = {
        "degree": i,
        "prime": str(args.prime),
        "newton": vertices_json(NP),
        "hodge": vertices_json(HP) if HP is not None else None,
        "comparison": None,
    }
    notes = [f"newton: {vertices_json(NP)}"]
    if HP is not None:
        cmp_ = np_ge_hp(NP, HP)
        payload["comparison"] = {
            "status": cmp_.status,
            "endpoint_equal": cmp_.endpoint_equal,
            "identical": cmp_.identical,
            "failure_x": cmp_.failure_x,
        }
        notes.append(f"hodge:  {vertices_json(HP)}")
        notes.append(f"newton over hodge: {cmp_.status}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_polygon_svg(NP, HP))
        notes.append(f"svg written to {args.svg}")
    _emit(args, payload, notes)
    return 0


def cmd_zeta(args):
    model = parse_descriptor(_load_document(args.input))
    zf = zeta_function(model)
    payload = zeta_to_json(zf)
    notes = [
        f"numerator:   {zf.numerator}",
        f"denominator: {zf.denominator}",
        f"chi: {zf.chi}",
    ]
    failed = False
    try:
        fe = zeta_functional_equation_verdict(zf, model_facts(model))
    except EndospecError as exc:
        payload["functional_equation"] = None
        notes.append(f"functional equation: not applicable ({exc})")
    else:
        payload["functional_equation"] = {
            "holds": fe.holds,
            "sign": fe.sign,
            "expected_sign": fe.expected_sign,
            "mu": fe.mu,
        }
        notes.append(
            f"functional equation: {'holds' if fe.holds else 'FAILS'} "
            f"(sign {fe.sign}, expected {fe.expected_sign})"
        )
        failed = failed or not fe.holds
    consistent = zeta_series_consistency(model, args.order)
    payload["series_order"] = args.order
    payload["series_consistent"] = consistent
    notes.append(
        f"series check to order {args.order}: {'pass' if consistent else 'FAIL'}"
    )
    failed = failed or not consistent
    _emit(args, payload, notes)
    return 1 if failed else 0


def cmd_schema(args):
    _emit(args, SCHEMA, [])
    return 0


def _add_common(sub):
    sub.add_argument("--out", metavar="PATH", help="write the JSON document here")
    sub.add_argument(
        "--quiet", action="store_true", help="suppress human-readable notes"
    )
    sub.add_argument(
        "--json-only",
        action="store_true",
        help="print only the JSON document to stdout",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="endospec",
        description=(
            "Exact spectral checks for polarized endomorphisms: functional "
            "equations, Jordan symmetry, Newton and Hodge polygons, zeta "
            "functions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every check on a model descriptor")
    p.add_argument("input", help="model descriptor JSON path")
    p.add_argument(
        "--primes",
        required=True,
        metavar="L1,L2,...",
        help="comma-separated primes for polygon checks",
    )
    p.add_argument(
        "--precision",
        type=int,
        default=60,
        metavar="N",
        help="decimal digits for the numeric weight check (default 60)",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("polygons", help="Newton and Hodge polygons of one degree")
    p.add_argument("input", help="model descriptor JSON path")
    p.add_argument("--prime", type=int, required=True, help="valuation prime")
    p.add_argument("--degree", type=int, required=True, help="cohomology degree")
    p.add_argument("--svg", metavar="PATH", help="also render an SVG overlay")
    _add_common(p)
    p.set_defaults(fn=cmd_polygons)

    p = sub.add_parser("zeta", help="zeta function, functional equation, series check")
    p.add_argument("input", help="model descriptor JSON path")
    p.add_argument(
        "--order",
        type=int,
        default=5,
        metavar="N",
        help="series consistency order (default 5)",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("schema", help="print the JSON schema for inputs and outputs")
    _add_common(p)
    p.set_defaults(fn=cmd_schema)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EndospecError as exc:
        print(f"endospec: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 3
        print(f"endospec: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
