"""Command-line front end: parse model descriptors, run verifications, emit
JSON reports and SVG polygon renderings.

Model descriptors are JSON documents; every integer that can grow crosses
the boundary as a decimal string so nothing is squeezed through a float.
The JSON Schema of descriptors and outputs is the package's schema.json,
read once at import; `endospec schema` prints it.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input or
usage, 3 internal error.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from endospec.errors import EndospecError, ValidityError
from endospec.exactnum import _shown, parse_rational
from endospec.matrixops import ExactMatrix
from endospec.poly import model_facts, poly_from_strings
from endospec.polygons import np_ge_hp, vertices_json
from endospec.varieties import abelian_en, abelian_from_h1, generic_model, grassmannian
from endospec.verify import full_report
from endospec.zeta import (
    zeta_function,
    zeta_functional_equation,
    zeta_series_consistency,
    zeta_to_json,
)

def _require(doc, key):
    if key not in doc:
        raise ValidityError(f"descriptor is missing required field '{key}'")
    return doc[key]


def _as_int(value, label):
    """Decimal strings (^-?[0-9]+$) are the canonical form; bare ints are
    tolerated."""
    if isinstance(value, bool):
        raise ValidityError(f"{label} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if value.isascii() and value.removeprefix("-").isdigit():
            try:
                return int(value)
            except ValueError as exc:  # past the int/str digit limit
                limit = sys.get_int_max_str_digits()
                raise ValidityError(f"{label} has more than {limit} digits") from exc
    raise ValidityError(f"{label} must be an integer or decimal string")


def _as_small_int(value, label):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidityError(f"{label} must be a plain integer")
    return value


def _as_entry(value, label):
    """A matrix or polynomial entry as the string exactnum.parse_rational
    reads; bare ints are tolerated."""
    return value if isinstance(value, str) else str(_as_int(value, label))


def _as_matrix(value, label):
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(r, list) and r for r in value)
    ):
        raise ValidityError(f"{label} must be a nonempty array of rows")
    try:
        return ExactMatrix([[parse_rational(_as_entry(x, label)) for x in r] for r in value])
    except (EndospecError, ValueError) as exc:
        raise ValidityError(f"{label}: {exc}") from exc


def _as_poly(value, label):
    if not isinstance(value, list) or not value:
        raise ValidityError(f"{label} must be a nonempty coefficient array")
    try:
        return poly_from_strings([_as_entry(x, label) for x in value])
    except (EndospecError, ValueError) as exc:
        raise ValidityError(f"{label}: {exc}") from exc


def _by_degree(doc, key, d, parse):
    """{i: parse(x)} over the non-null entries x of the array doc[key]."""
    raw = doc.get(key)
    if raw is not None and not isinstance(raw, list):
        raise ValidityError(f"{key} must be an array indexed by degree")
    if raw and d >= 0 and len(raw) > 2 * d + 1:
        raise ValidityError(f"{key} has {len(raw)} entries, degrees run 0..{2 * d}")
    return {i: parse(x, f"{key}[{i}]") for i, x in enumerate(raw or []) if x is not None}


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
    charpolys = _by_degree(doc, "charpolys", d, _as_poly)
    matrices = _by_degree(doc, "matrices", d, _as_matrix)
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


SCHEMA = json.loads(Path(__file__).with_name("schema.json").read_text(encoding="utf-8"))

# Each descriptor kind's allowed fields, read off its schema definition, in
# the schema's order of kinds.
_ALLOWED_KEYS = {
    spec["properties"]["kind"]["const"]: set(spec["properties"])
    for spec in (
        SCHEMA["$defs"][ref["$ref"].removeprefix("#/$defs/")]
        for ref in SCHEMA["$defs"]["descriptor"]["oneOf"]
    )
}
DESCRIPTOR_KINDS = tuple(_ALLOWED_KEYS)


# SVG layout constants; coordinates are computed exactly and only formatted
# to two decimals at the very end, which keeps output byte-stable.
_SVG_W, _SVG_H = 560, 420
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 64, 24, 40, 48


def _svg_scale(polygons):
    xmax = max(x for p in polygons for x, _ in p.vertices)
    ymax = max(y for p in polygons for _, y in p.vertices)
    return max(xmax, 1), max(ymax, 1)


def _svg_point(x, y, xmax, ymax):
    px = _PAD_L + Fraction(x) * (_SVG_W - _PAD_L - _PAD_R) / xmax
    py = _SVG_H - _PAD_B - Fraction(y) * (_SVG_H - _PAD_T - _PAD_B) / ymax
    return f"{float(px):.2f}", f"{float(py):.2f}"


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
                f'fill="{color}">({x}, {y})</text>'
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
    except RecursionError as exc:  # arrays or objects nested past the stack
        raise ValidityError(f"{path} is nested too deeply to read") from exc
    except ValueError as exc:  # bytes not UTF-8, an integer past the digit limit
        raise ValidityError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidityError(f"cannot write {path}: {exc}") from exc


_ascii_string = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_key(key):
    """A dict key's text as json.dumps writes it."""
    if isinstance(key, str):
        return _ascii_string(key)
    if key is None or isinstance(key, (int, float)):
        return _ascii_string(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(doc):
    """json.dumps(doc, indent=2), byte for byte, without the pure-Python
    encoder that indent selects: one walk appends the text to one list."""
    pieces = []
    _json_walk(doc, "\n", pieces.append)
    return "".join(pieces)


def _json_walk(doc, indent, put):
    """put the text of doc, indent being the newline and indentation before
    its closing bracket. Strings go through the C escaper and ints through
    int formatting (which raises the same ValueError past the int/str digit
    limit); a str or int item goes in one piece with its separator and key.
    Exact types take these paths; subclasses and other scalars, floats
    among them, get the same text by slower ones. A module-level function,
    not a closure over put: a closure that calls itself is a reference
    cycle, which would keep every document's pieces until the cyclic
    garbage collector runs."""
    t = type(doc)
    if t is dict:
        if not doc:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for k, v in doc.items():
            key = _ascii_string(k) if type(k) is str else _json_key(k)
            if type(v) is str:
                put(f"{sep}{key}: {_ascii_string(v)}")
            elif type(v) is int:
                put(f"{sep}{key}: {v}")
            else:
                put(f"{sep}{key}: ")
                _json_walk(v, inner, put)
            sep = "," + inner
        put(indent + "}")
    elif t is list or t is tuple:
        if not doc:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for v in doc:
            if type(v) is str:
                put(sep + _ascii_string(v))
            elif type(v) is int:
                put(f"{sep}{v}")
            else:
                put(sep)
                _json_walk(v, inner, put)
            sep = "," + inner
        put(indent + "]")
    elif t is str:
        put(_ascii_string(doc))
    elif t is int:
        put(f"{doc}")
    elif doc is None or t is bool:
        put(_JSON_CONSTANTS[doc])
    elif isinstance(doc, dict):
        _json_walk(dict(doc), indent, put)
    elif isinstance(doc, (list, tuple)):
        _json_walk(list(doc), indent, put)
    else:
        put(json.dumps(doc))


def _emit(args, payload, notes):
    """JSON goes to --out when given, else stdout; notes go to stderr
    unless silenced. Everything is newline-terminated and stable."""
    text = _json_text(payload) + "\n"
    json_to_stdout = args.json_only or not args.out
    if args.out:
        _write_text(args.out, text)
    if json_to_stdout:
        sys.stdout.write(text)
    if not (args.quiet or args.json_only):
        for line in notes:
            print(line, file=sys.stderr)


def _option_int(token, option):
    """An integer on the command line, read by the descriptor grammar
    (_as_int: ASCII digits after an optional minus) once the spaces around
    it are stripped."""
    token = token.strip()
    return _as_int(token, f"{option} {_shown(token)}")


def _parse_primes(spec):
    return [_option_int(tok, "--primes entry") for tok in spec.split(",") if tok.strip()]


def cmd_verify(args):
    model = parse_descriptor(_load_document(args.input))
    report = full_report(model, _parse_primes(args.primes))
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
    prime = _option_int(args.prime, "--prime")
    i = _option_int(args.degree, "--degree")
    model = parse_descriptor(_load_document(args.input))
    if not 0 <= i <= 2 * model.dimension:
        raise ValidityError(
            f"degree {i} out of range 0..{2 * model.dimension}"
        )
    if model.betti(i) == 0:
        raise ValidityError(f"degree {i} has no cohomology")
    f = model_facts(model)[i]
    NP = f.newton_polygon(prime)
    newton = vertices_json(NP)
    notes = [f"newton: {newton}"]
    HP = hodge = None
    if f.hodge is not None:
        if any(f.hodge):
            HP = f.hodge_polygon
            hodge = vertices_json(HP)
        else:
            notes.append(f"hodge: none, all Hodge numbers of degree {i} are zero")
    payload = {
        "degree": i,
        "prime": str(prime),
        "newton": newton,
        "hodge": hodge,
        "comparison": None,
    }
    if HP is not None:
        cmp_ = np_ge_hp(NP, HP)
        payload["comparison"] = {
            "status": cmp_.status,
            "endpoint_equal": cmp_.endpoint_equal,
            "identical": cmp_.identical,
            "failure_x": cmp_.failure_x,
        }
        notes.append(f"hodge:  {hodge}")
        notes.append(f"newton over hodge: {cmp_.status}")
    if args.svg:
        _write_text(args.svg, render_polygon_svg(NP, HP))
        notes.append(f"svg written to {args.svg}")
    _emit(args, payload, notes)
    return 0


def cmd_zeta(args):
    order = _option_int(args.order, "--order")
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
        fe = zeta_functional_equation(zf, model_facts(model))
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
    consistent = zeta_series_consistency(model, order, zf)
    payload["series_order"] = order
    payload["series_consistent"] = consistent
    notes.append(
        f"series check to order {order}: {'pass' if consistent else 'FAIL'}"
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


@cache
def build_parser():
    """Built once per process and shared: parsing leaves the parser unchanged."""
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
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("polygons", help="Newton and Hodge polygons of one degree")
    p.add_argument("input", help="model descriptor JSON path")
    p.add_argument("--prime", required=True, help="valuation prime")
    p.add_argument("--degree", required=True, help="cohomology degree")
    p.add_argument("--svg", metavar="PATH", help="also render an SVG overlay")
    _add_common(p)
    p.set_defaults(fn=cmd_polygons)

    p = sub.add_parser("zeta", help="zeta function, functional equation, series check")
    p.add_argument("input", help="model descriptor JSON path")
    p.add_argument(
        "--order",
        default="5",
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
    args = build_parser().parse_args(argv)
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
