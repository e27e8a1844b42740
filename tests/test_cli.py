"""Command-line interface: exit codes, JSON documents, schema conformance.

Calls run through subprocess so stream routing and exit codes are observed
exactly as a shell would see them; one test repeats calls in-process to hold
the once-built argument parser to the same bytes.
"""

import argparse
import contextlib
import gc
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest
from helpers import block_diag, serialize_model
from hypothesis import given, settings
from hypothesis import strategies as st

from endospec import cli, varieties
from endospec.cli import SCHEMA, parse_descriptor
from endospec.matrixops import ExactMatrix
from endospec.poly import Poly
from endospec.varieties import abelian_en, abelian_from_h1, generic_model, grassmannian

EXAMPLE_DESCRIPTOR = {
    "kind": "abelian_en",
    "q": "6",
    "isogeny_matrix": [["1", "-5"], ["1", "1"]],
}

GRASSMANNIAN_DESCRIPTOR = {
    "kind": "grassmannian",
    "q": "4",
    "k": 2,
    "n": 4,
    "variant": "involution",
}

GENERIC_DESCRIPTOR = {
    "kind": "generic",
    "q": "4",
    "d": 1,
    "charpolys": [["1", "-1"], ["1", "-4", "4"], ["1", "-4"]],
    "hodge": [[1], [1, 1], [0, 1, 0]],
}

CORRUPTED_DESCRIPTOR = {
    "kind": "generic",
    "q": "6",
    "d": 1,
    "charpolys": [["1", "-1"], ["1", "-5", "4"], ["1", "-6"]],
}


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "endospec.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_descriptor(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def validate(payload, def_name):
    jsonschema.validate(payload, {**SCHEMA, "oneOf": [{"$ref": f"#/$defs/{def_name}"}]})


def test_verify_pass(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    proc = run_cli("verify", path, "--primes", "2,3", "--json-only")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload, "report")
    assert len(payload["checks"]) == 61
    assert payload["model"]["q"] == "6"
    assert proc.stderr == ""


def test_verify_notes_and_exit_on_failure(tmp_path):
    path = write_descriptor(tmp_path, CORRUPTED_DESCRIPTOR)
    proc = run_cli("verify", path, "--primes", "2")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    validate(payload, "report")
    assert "verdict: FAIL" in proc.stderr
    assert "FAIL functional_equation degree=1" in proc.stderr
    quiet = run_cli("verify", path, "--primes", "2", "--quiet")
    assert quiet.returncode == 1
    assert quiet.stderr == ""


def test_verify_out_file(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    out = tmp_path / "report.json"
    proc = run_cli("verify", path, "--primes", "2,3", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "verdict: PASS" in proc.stderr
    direct = run_cli("verify", path, "--primes", "2,3", "--json-only")
    assert out.read_text() == direct.stdout


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_verify_unwritable_out_is_bad_input(tmp_path, target):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    out = tmp_path / target
    proc = run_cli("verify", path, "--primes", "2,3", "--out", str(out), "--json-only")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"endospec: cannot write {out}: [Errno ")


def test_polygons_unwritable_svg_is_bad_input(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    svg = tmp_path / "missing" / "x.svg"
    proc = run_cli("polygons", path, "--prime", "3", "--degree", "2", "--svg", str(svg))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"endospec: cannot write {svg}: [Errno ")


def test_verify_bad_inputs(tmp_path):
    good = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    missing = run_cli("verify", str(tmp_path / "nope.json"), "--primes", "2")
    assert missing.returncode == 2
    assert missing.stderr.startswith("endospec:")
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert run_cli("verify", str(bad_json), "--primes", "2").returncode == 2
    unknown = write_descriptor(
        tmp_path, {**EXAMPLE_DESCRIPTOR, "surprise": 1}, "unknown.json"
    )
    proc = run_cli("verify", unknown, "--primes", "2")
    assert proc.returncode == 2
    assert "surprise" in proc.stderr
    assert run_cli("verify", good, "--primes", "4").returncode == 2
    assert run_cli("verify", good, "--primes", "").returncode == 2
    # the weight check is exact: there is no precision to set
    low = run_cli("verify", good, "--primes", "2", "--precision", "10")
    assert low.returncode == 2
    assert "error: unrecognized arguments: --precision 10" in low.stderr
    for q in ("--5", "\u00b2"):
        malformed = write_descriptor(tmp_path, {**EXAMPLE_DESCRIPTOR, "q": q}, "q.json")
        proc = run_cli("verify", malformed, "--primes", "2")
        assert proc.returncode == 2
        assert "q must be an integer or decimal string" in proc.stderr
    # integers past the int/str digit limit, as a decimal string and as a
    # bare JSON number
    big = "1" + "0" * 5000
    huge = write_descriptor(tmp_path, {**GRASSMANNIAN_DESCRIPTOR, "q": big}, "huge.json")
    proc = run_cli("verify", huge, "--primes", "2")
    assert proc.returncode == 2
    assert proc.stderr == f"endospec: q has more than {sys.get_int_max_str_digits()} digits\n"
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(GRASSMANNIAN_DESCRIPTOR).replace('"4"', big))
    proc = run_cli("verify", str(bare), "--primes", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"endospec: cannot read {bare}: Exceeds the limit")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kind": "\xe9"}')
    proc = run_cli("verify", str(latin), "--primes", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"endospec: cannot read {latin}: 'utf-8' codec")
    # entries the schema's rationalString refuses, and q with spaces
    for entry in ("1e1", " 3 ", "+2", "\u0663", "1_0", "1.5", "1/0"):
        matrix = [[entry, "-5"], ["1", "1"]]
        doc = {**EXAMPLE_DESCRIPTOR, "isogeny_matrix": matrix}
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "descriptor")
        proc = run_cli("verify", write_descriptor(tmp_path, doc, "entry.json"), "--primes", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"endospec: isogeny_matrix: not a rational literal: {entry!r}\n"
    spaced = write_descriptor(tmp_path, {**EXAMPLE_DESCRIPTOR, "q": " 6 "}, "spaced.json")
    proc = run_cli("verify", spaced, "--primes", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "q must be an integer or decimal string" in proc.stderr


def test_negative_hodge_numbers_are_bad_input(tmp_path):
    doc = {**GENERIC_DESCRIPTOR, "hodge": [[1], [-1, 1], [0, 1, 0]]}
    validate(GENERIC_DESCRIPTOR, "descriptor")
    with pytest.raises(jsonschema.ValidationError):
        validate(doc, "descriptor")
    path = write_descriptor(tmp_path, doc)
    calls = (("verify", "--primes", "2"), ("polygons", "--prime", "2", "--degree", "1"))
    for command, *options in calls:
        proc = run_cli(command, path, *options)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "endospec: weight 1: Hodge numbers must be nonnegative\n"


def test_generic_arrays_longer_than_the_degrees(tmp_path):
    # d = 1 has degrees 0, 1, 2: a fourth entry is an error, not dropped
    charpolys = GENERIC_DESCRIPTOR["charpolys"] + [["1", "-4"]]
    extra_poly = {**GENERIC_DESCRIPTOR, "charpolys": charpolys}
    extra_matrix = {**GENERIC_DESCRIPTOR, "matrices": [None, None, None, [["4"]]]}
    for field, doc in (("charpolys", extra_poly), ("matrices", extra_matrix)):
        proc = run_cli("verify", write_descriptor(tmp_path, doc), "--primes", "2")
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"endospec: {field} has 4 entries")


def test_polygons_document(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    proc = run_cli("polygons", path, "--prime", "2", "--degree", "1", "--json-only")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload, "polygonOutput")
    assert payload["newton"] == [[0, "0"], [4, "2"]]
    assert payload["hodge"] == [[0, "0"], [2, "0"], [4, "2"]]
    assert payload["comparison"]["status"] == "holds"
    assert payload["comparison"]["endpoint_equal"] is True
    assert payload["comparison"]["identical"] is False


def test_polygons_without_hodge(tmp_path):
    doc = {k: v for k, v in GENERIC_DESCRIPTOR.items() if k != "hodge"}
    path = write_descriptor(tmp_path, doc)
    proc = run_cli("polygons", path, "--prime", "2", "--degree", "1", "--json-only")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload, "polygonOutput")
    assert payload["hodge"] is None
    assert payload["comparison"] is None


def test_polygons_zero_hodge_row(tmp_path):
    doc = {**GENERIC_DESCRIPTOR, "hodge": [[1], [0, 0], [0, 1, 0]]}
    path = write_descriptor(tmp_path, doc)
    proc = run_cli("polygons", path, "--prime", "2", "--degree", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload, "polygonOutput")
    assert payload["newton"] == [[0, "0"], [2, "1"]]
    assert payload["hodge"] is None
    assert payload["comparison"] is None
    assert "hodge: none, all Hodge numbers of degree 1 are zero" in proc.stderr


def test_polygons_svg_deterministic(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    svgs = []
    for name in ("a.svg", "b.svg"):
        target = tmp_path / name
        proc = run_cli(
            "polygons", path, "--prime", "3", "--degree", "2",
            "--svg", str(target), "--quiet",
        )
        assert proc.returncode == 0
        svgs.append(target.read_bytes())
    assert svgs[0] == svgs[1]
    assert svgs[0].startswith(b"<svg")


def test_polygons_degree_errors(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    proc = run_cli("polygons", path, "--prime", "2", "--degree", "9")
    assert proc.returncode == 2
    assert "out of range" in proc.stderr
    gpath = write_descriptor(tmp_path, GRASSMANNIAN_DESCRIPTOR, "g.json")
    odd = run_cli("polygons", gpath, "--prime", "2", "--degree", "1")
    assert odd.returncode == 2
    assert "no cohomology" in odd.stderr


def test_zeta_document(tmp_path):
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    proc = run_cli("zeta", path, "--order", "6", "--json-only")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload, "zetaOutput")
    assert payload["chi"] == 0
    assert payload["functional_equation"]["holds"] is True
    assert payload["series_consistent"] is True
    assert payload["series_order"] == 6


def test_a_rational_singular_isogeny_exits_2_as_rational(tmp_path, capsys):
    """Integrality is checked before singularity: an isogeny matrix that is
    both rational and singular is refused for its entries, with exit 2."""
    doc = {**EXAMPLE_DESCRIPTOR, "isogeny_matrix": [["1/2", "1"], ["1/2", "1"]]}
    assert cli.main(["verify", write_descriptor(tmp_path, doc), "--primes", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "endospec: isogeny matrix must have integer entries\n"


def test_zeta_refuses_an_order_past_the_digit_bound(tmp_path, capsys):
    """The power sums of order 10**9 would hold about 10**18 digits: the
    order is refused before any power sum is formed."""
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    t0 = time.perf_counter()
    assert cli.main(["zeta", path, "--order", str(10**9)]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("endospec: order 1000000000 needs about 3.76e+18 digits of power sums")
    assert err.endswith("more than the bound of 1e+07\n")
    assert cli.main(["zeta", path, "--order", "1000", "--json-only"]) == 0
    assert json.loads(capsys.readouterr().out)["series_consistent"] is True


@pytest.mark.parametrize("depth", [1000, 10**5])
def test_deeply_nested_documents_are_bad_input(tmp_path, capsys, depth):
    """The JSON decoder recurses once per nesting level; a document nested
    past the recursion limit, bare or inside a descriptor's field, is
    refused as bad input that names the file."""
    nested = "[" * depth + "]" * depth
    for name, text in (("bare.json", nested), ("field.json", f'{{"kind": {nested}}}')):
        path = tmp_path / name
        path.write_text(text)
        for argv in (
            ["verify", str(path), "--primes", "2"],
            ["zeta", str(path)],
            ["polygons", str(path), "--prime", "2", "--degree", "1"],
        ):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"endospec: {path} is nested too deeply to read\n"
    if depth == 1000:
        proc = run_cli("verify", str(path), "--primes", "2")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"endospec: {path} is nested too deeply to read\n"


def test_cli_integers_follow_the_descriptor_grammar(tmp_path, capsys):
    """Every integer option and --primes entry is read as a descriptor's
    decimal string is: ASCII digits after an optional minus, spaces around
    it stripped. No separators, plus signs, non-ASCII digits or decimal
    points; a refused token is echoed cut short."""
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    long = "3" * 5000
    grammar = "must be an integer or decimal string"
    for token, shown, reason in (
        ("1_1", "'1_1'", grammar),
        ("+3", "'+3'", grammar),
        ("\u0663", "'\u0663'", grammar),
        ("3.0", "'3.0'", grammar),
        (long, f"{long[:40]!r}... (5000 characters)",
         f"has more than {sys.get_int_max_str_digits()} digits"),
    ):
        for argv, option in (
            (["verify", path, "--primes", f"2,{token}"], "--primes entry"),
            (["polygons", path, "--prime", token, "--degree", "1"], "--prime"),
            (["polygons", path, "--prime", "3", "--degree", token], "--degree"),
            (["zeta", path, "--order", token], "--order"),
        ):
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"endospec: {option} {shown} {reason}\n"
    assert cli.main(["verify", path, "--primes", "2,3", "--json-only"]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["verify", path, "--primes", " 2, 3 ", "--json-only"]) == 0
    assert capsys.readouterr().out == expected
    assert cli.main(["polygons", path, "--prime", " 3", "--degree", "2 ", "--json-only"]) == 0
    assert json.loads(capsys.readouterr().out)["prime"] == "3"


def test_verify_refuses_repeated_primes(tmp_path, capsys):
    """A repeated prime would report each of its checks and write its
    Newton polygons twice."""
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    for spec, named in (("2,2", "2"), ("3,2,3,5,2", "2, 3")):
        assert cli.main(["verify", path, "--primes", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"endospec: primes repeated: {named}\n"


def test_verify_refuses_an_empty_prime_list_once(tmp_path, capsys):
    """A --primes list with no entries reaches full_report, whose refusal is
    the only one: exit 2, empty stdout, its message on stderr."""
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    for spec in ("", ",", " , "):
        assert cli.main(["verify", path, "--primes", spec]) == 2, spec
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "endospec: at least one prime is required\n"


def test_verify_has_no_precision_option(tmp_path, capsys):
    """The weight check is exact, so verify takes no precision: argparse
    refuses the option as unknown, with its usage exit 2."""
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", path, "--primes", "2", "--precision", "60"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("endospec: error: unrecognized arguments: --precision 60\n")


def test_long_refused_literals_are_cut_short(tmp_path, capsys):
    big = "1" + "0" * 5000
    for entry, shown in (
        (big, f"{big[:40]!r}... (5001 characters)"),
        ("1/" + big, f"{('1/' + big)[:40]!r}... (5003 characters)"),
        ("x" * 41, f"{'x' * 40!r}... (41 characters)"),
        ("x" * 40, repr("x" * 40)),
    ):
        doc = {**EXAMPLE_DESCRIPTOR, "isogeny_matrix": [[entry, "-5"], ["1", "1"]]}
        assert cli.main(["verify", write_descriptor(tmp_path, doc), "--primes", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"endospec: isogeny_matrix: not a rational literal: {shown}\n"


def test_verify_refuses_primes_past_the_primality_bound(tmp_path, capsys):
    """psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the
    first 12 prime bases; the 13th refuses it, and from psi_13 on no prime
    is decided."""
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    for spec, message in (
        ("318665857834031151167461", "318665857834031151167461 is not prime"),
        ("3317044064679887385961981", "primality is decided only below 3317044064679887385961981"),
        ("15", "15 is not prime"),
    ):
        assert cli.main(["verify", path, "--primes", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"endospec: {message}")


def _polygon_models():
    """A model of each route a degree's Newton polygon can take: E^2 and
    E^3 abelian_en (every degree from 2 on from degree 1's slopes), a
    non-semisimple abelian model, G(k, n) for n <= 6, with the involution
    variant where n = 2k (from the eigenvalues), and a generic model (from
    the polynomial)."""
    models = [
        abelian_en([[1, -5], [1, 1]], 6),
        abelian_en([[3, -4, 0], [4, 3, 0], [0, 0, 5]], 25),
        abelian_from_h1(2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]], 4),
        parse_descriptor(GENERIC_DESCRIPTOR),
    ]
    for n in range(2, 7):
        models += [grassmannian(k, n, 4) for k in range(1, n)]
        if n % 2 == 0:
            models.append(grassmannian(n // 2, n, 4, "involution"))
    return models


def test_polygons_command_matches_the_report(tmp_path, capsys):
    """The polygons command prints, for every degree with cohomology and
    every prime, the Newton polygon the report records."""
    primes = ("2", "3", "5")
    for model in _polygon_models():
        path = write_descriptor(tmp_path, serialize_model(model))
        assert cli.main(["verify", path, "--primes", ",".join(primes), "--json-only"]) in (0, 1)
        rows = json.loads(capsys.readouterr().out)["degrees"]
        for row in rows:
            if not row["betti"]:
                continue
            for prime in primes:
                argv = ["polygons", path, "--prime", prime, "--degree", str(row["degree"])]
                assert cli.main([*argv, "--json-only"]) == 0
                newton = json.loads(capsys.readouterr().out)["newton"]
                assert newton == row["newton_polygons"][prime], (model.kind, argv)


def test_zeta_inapplicable_functional_equation(tmp_path):
    path = write_descriptor(tmp_path, CORRUPTED_DESCRIPTOR)
    proc = run_cli("zeta", path, "--json-only")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload, "zetaOutput")
    assert payload["functional_equation"] is None
    assert payload["series_consistent"] is True


def test_schema_command_prints_a_valid_schema():
    # its bytes are pinned in test_golden_bytes
    proc = run_cli("schema", "--json-only")
    assert proc.returncode == 0
    jsonschema.Draft202012Validator.check_schema(json.loads(proc.stdout))


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_cached_parser_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # argparse wraps usage text to the terminal width: pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    path = write_descriptor(tmp_path, EXAMPLE_DESCRIPTOR)
    out = tmp_path / "report.json"
    calls = [
        ["verify", path, "--primes", "2,3"],
        ["polygons", path, "--prime", "3", "--degree", "1"],
        ["frobnicate", path],
        ["zeta", path],
        ["verify", path, "--primes", "2", "--out", str(out)],
    ]
    fresh = []
    for argv in calls:
        proc = run_cli(*argv)
        written = out.read_text() if out.exists() else None
        fresh.append((proc.returncode, proc.stdout, proc.stderr, written))
    out.unlink()
    assert [f[0] for f in fresh] == [0, 0, 2, 0, 0]
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, expected in zip(calls, fresh):
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        assert (code, captured.out, captured.err, written) == expected, argv
    # one top-level parser and one per subcommand, each built once
    assert progs.count("endospec") == 1
    assert len(progs) == len(set(progs)) == 5


@pytest.mark.parametrize(
    "doc",
    [
        EXAMPLE_DESCRIPTOR,
        GRASSMANNIAN_DESCRIPTOR,
        GENERIC_DESCRIPTOR,
        {
            "kind": "abelian",
            "q": "5",
            "d": 1,
            "matrix": [["2", "-1"], ["1", "2"]],
        },
    ],
)
def test_descriptor_round_trip(doc):
    validate(doc, "descriptor")
    model = parse_descriptor(doc)
    canon = serialize_model(model)
    validate(canon, "descriptor")
    again = serialize_model(parse_descriptor(canon))
    assert canon == again
    assert parse_descriptor(canon).betti_numbers == model.betti_numbers


def test_descriptor_accepts_plain_integers():
    doc = {"kind": "abelian_en", "q": 6, "isogeny_matrix": [[1, -5], [1, 1]]}
    model = parse_descriptor(doc)
    assert model.q == 6
    assert serialize_model(model) == EXAMPLE_DESCRIPTOR


# (q, rotation blocks [[a, -b], [b, a]] with a**2 + b**2 = q)
ROTATIONS = {5: ((1, 2), (2, -1)), 13: ((2, 3), (-3, 2)), 25: ((3, 4), (5, 0), (0, -5))}


@st.composite
def _models(draw):
    """Generic models on Weil factors t**2 - a*t + q (d = 1; Hodge rows and
    companion matrices each present or not), abelian and abelian_en models
    on rotation blocks, and Grassmannians of both variants."""
    family = draw(st.sampled_from(("generic", "abelian", "abelian_en", "grassmannian")))
    if family == "grassmannian":
        k = draw(st.integers(1, 3))
        if draw(st.booleans()):
            return grassmannian(k, 2 * k, draw(st.sampled_from((3, 4, 2**64))), "involution")
        n = draw(st.integers(k + 1, 6))
        return grassmannian(k, n, draw(st.sampled_from((2, 9, 10**30))))
    q = draw(st.sampled_from(sorted(ROTATIONS)))
    if family == "generic":
        traces = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        blocks = [ExactMatrix([[0, -q], [1, a]]) for a in traces]
        P1 = Poly([1])
        for a in traces:
            P1 = P1 * Poly([q, -a, 1])
        charpolys = {0: Poly([-1, 1]), 1: P1, 2: Poly([-q, 1])}
        matrices = {0: [[1]], 1: block_diag(blocks), 2: [[q]]}
        matrices = {i: m for i, m in matrices.items() if draw(st.booleans())}
        g = len(traces)
        hodge = [[1], [g, g], [0, 1, 0]] if draw(st.booleans()) else None
        return generic_model(
            1, q, charpolys=charpolys, matrices=matrices, hodge=hodge, strict=draw(st.booleans())
        )
    pairs = draw(st.lists(st.sampled_from(ROTATIONS[q]), min_size=1, max_size=2))
    A = block_diag([ExactMatrix([[a, -b], [b, a]]) for a, b in pairs])
    if family == "abelian":
        return abelian_from_h1(len(pairs), A, q)
    return abelian_en(A, q)


@settings(max_examples=100, deadline=None)
@given(_models())
def test_serialized_models_round_trip(model):
    canon = serialize_model(model)
    assert serialize_model(parse_descriptor(canon)) == canon


# Strings that read like JSON syntax, escapes, control and non-ASCII
# characters (astral ones become surrogate pairs).
_JSON_STRINGS = st.text(st.sampled_from('[]{},":\\ a0\n\t\x00\x1f\x7féλ\U0001f600'), max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    _JSON_STRINGS,
    st.text(max_size=4),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda items: st.one_of(
        st.lists(items, max_size=4),
        st.lists(items, max_size=3).map(tuple),
        st.dictionaries(_JSON_STRINGS, items, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(), st.floats()), items,
                        max_size=2),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
def test_emitter_writes_the_bytes_of_json_dumps(doc):
    """Empty containers at every depth, tuples, bools next to ints, None,
    big ints, floats and the keys json.dumps converts."""
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def test_emitter_refuses_what_json_dumps_refuses():
    from collections import OrderedDict

    subclassed = OrderedDict(a=[True, 1, False, 0, None], b=OrderedDict())
    assert cli._json_text([subclassed, ()]) == json.dumps([subclassed, ()], indent=2)
    for doc in ({"zeta": [1, [10**4300]]}, {"q": 10**4300}, 10**4300, {(1, 2): 0}, [object()]):
        with pytest.raises((ValueError, TypeError)) as want:
            json.dumps(doc, indent=2)
        with pytest.raises(want.type) as got:
            cli._json_text(doc)
        assert str(got.value) == str(want.value)


def test_emitter_leaves_no_reference_cycle():
    """A document's pieces are freed when its text is returned, not when
    the cyclic garbage collector next runs."""
    doc = {"checks": [{"check": "weil_weight", "witness": {"root": ("1", "2")}}] * 50}
    gc.collect()
    gc.disable()
    try:
        cli._json_text(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_jordan_data_is_built_only_for_a_jordan_verdict(tmp_path, capsys, monkeypatch):
    """A generic model whose degree-1 matrix 2*id is not cyclic: polygons
    and zeta never read its Jordan data, so they take no invariant factors;
    verify takes them once and decides jordan_symmetry on them."""
    calls = []
    real = varieties.invariant_factors
    monkeypatch.setattr(varieties, "invariant_factors", lambda *a: calls.append(a) or real(*a))
    doc = {**GENERIC_DESCRIPTOR, "matrices": [None, [["2", "0"], ["0", "2"]], None]}
    path = write_descriptor(tmp_path, doc)
    assert cli.main(["polygons", path, "--prime", "2", "--degree", "1", "--json-only"]) == 0
    assert cli.main(["zeta", path, "--json-only"]) == 0
    assert calls == []
    capsys.readouterr()
    assert cli.main(["verify", path, "--primes", "2", "--json-only"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    jordan = [c for c in checks if c["check"] == "jordan_symmetry" and c["degree"] == 1]
    assert jordan == [{"check": "jordan_symmetry", "status": "pass", "degree": 1}]
    assert len(calls) == 1


_FUZZ_INT = st.integers(-6, 6)


@st.composite
def _fuzz_matrix(draw, n):
    """An n x n integer matrix of entry strings, or one made rational (an
    entry p/2), singular (a repeated row) or non-square (an extra column)."""
    rows = draw(st.lists(st.lists(_FUZZ_INT, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = [[str(x) for x in row] for row in rows]
    shape = draw(st.sampled_from(("square",) * 5 + ("rational", "singular", "non-square")))
    if shape == "rational":
        rows[0][0] = f"{2 * draw(_FUZZ_INT) + 1}/2"
    elif shape == "singular":
        rows[-1] = list(rows[0])
    elif shape == "non-square":
        rows = [row + ["1"] for row in rows]
    return rows


def _companion(desc):
    """The companion matrix, as entry strings, of a monic polynomial given
    leading first."""
    n = len(desc) - 1
    return [
        [str(int(j == i - 1)) for j in range(n - 1)] + [str(-int(desc[n - i]))]
        for i in range(n)
    ]


@st.composite
def _fuzz_descriptors(draw):
    """Small descriptors of all four kinds, q below 10**30, d <= 2 and
    Grassmannians with n <= 6; many are invalid or fail checks."""
    q = str(draw(st.one_of(st.integers(0, 30), st.integers(2, 10**30 - 1))))
    kind = draw(st.sampled_from(("abelian_en", "abelian", "grassmannian", "generic")))
    if kind == "abelian_en":
        return {"kind": kind, "q": q, "isogeny_matrix": draw(_fuzz_matrix(draw(st.integers(1, 2))))}
    if kind == "abelian":
        d = draw(st.integers(1, 2))
        return {"kind": kind, "q": q, "d": d, "matrix": draw(_fuzz_matrix(2 * d))}
    if kind == "grassmannian":
        n = draw(st.integers(2, 6))
        doc = {"kind": kind, "q": q, "k": draw(st.integers(1, n)), "n": n}
        variant = draw(st.sampled_from((None, "scalar", "involution")))
        return doc if variant is None else {**doc, "variant": variant}
    d = draw(st.integers(0, 2))
    ends = {0: ["1", "-1"], 2 * d: ["1", str(-int(q) ** d)]}
    betti = [1] + [draw(st.integers(1, 3)) for _ in range(d - 1)] + [draw(st.integers(1, 4))]
    betti = (betti + betti[-2::-1])[: 2 * d + 1]  # b_i = b_(2d-i)
    charpolys, matrices = [], []
    for i, b in enumerate(betti):
        coeffs = draw(st.lists(_FUZZ_INT, min_size=b - 1, max_size=b - 1))
        poly = ["1"] + [str(c) for c in coeffs + [draw(_FUZZ_INT.filter(bool))]]
        if i in ends and draw(st.integers(0, 3)):
            poly = ends[i]
        # the polynomial, its companion matrix, both, or a matrix of its
        # size whose charpoly need not match it
        form = draw(st.sampled_from(("poly",) * 3 + ("matrix", "both", "mismatched")))
        charpolys.append(None if form == "matrix" else poly)
        matrices.append(
            None if form == "poly"
            else draw(_fuzz_matrix(b)) if form == "mismatched"
            else _companion(poly)
        )
    doc = {"kind": kind, "q": q, "d": d, "charpolys": charpolys}
    if any(m is not None for m in matrices):
        doc["matrices"] = matrices
    if draw(st.booleans()):
        entry = st.one_of(st.none(), st.integers(0, 2))
        rows = [st.lists(entry, min_size=i + 1, max_size=i + 1) for i in range(2 * d + 1)]
        doc["hodge"] = [draw(row) for row in rows]
    strict = draw(st.sampled_from((None, True, False)))
    return doc if strict is None else {**doc, "strict": strict}


# One validator per output document, so the schema is checked once.
_OUTPUT_VALIDATORS = {
    name: jsonschema.Draft202012Validator({**SCHEMA, "oneOf": [{"$ref": f"#/$defs/{name}"}]})
    for name in ("report", "zetaOutput", "polygonOutput")
}


@settings(max_examples=150, deadline=None)
@given(_fuzz_descriptors(), st.sampled_from((2, 3, 5, 7)), st.integers(0, 4))
def test_no_small_descriptor_exits_3(doc, prime, degree):
    """verify, zeta and polygons on a small descriptor, valid or not, exit
    0, 1 or 2, never 3: on 0 or 1 stdout is a document of its schema, on 2
    it is empty."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        for argv, def_name in (
            (["verify", str(path), "--primes", f"{prime},11"], "report"),
            (["zeta", str(path)], "zetaOutput"),
            (["polygons", str(path), "--prime", str(prime), "--degree", str(degree)],
             "polygonOutput"),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--quiet"])
            assert code in (0, 1, 2), (argv[0], doc, err.getvalue())
            if code == 2:
                assert out.getvalue() == ""
            else:
                _OUTPUT_VALIDATORS[def_name].validate(json.loads(out.getvalue()))
