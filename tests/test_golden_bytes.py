"""Byte stability of the CLI documents: the sha256 of stdout for verify,
zeta and polygons on one descriptor of each kind, of one SVG overlay and
of `endospec schema`.

The digests were recorded before the polygons moved to integer points and
the argument parser was cached, those of generic_nondual and
generic_zero_hodge_row before the checks took each degree's facts. The
generic_zero_hodge_row polygons digest was re-recorded when that call began
to print its Newton polygon (it exited 2 with empty stdout). The schema
digest was recorded while the schema was a dict literal in cli.py, before
it became the package's schema.json, and re-recorded when the generic
descriptor's Hodge numbers gained "minimum": 0. A change that alters any
document byte fails here. Regenerate them only for a deliberate change of
the output.
"""

import hashlib
import json

import pytest

from endospec import cli

# (name, descriptor, polygons arguments)
DESCRIPTORS = (
    (
        "abelian_en",
        {"kind": "abelian_en", "q": "6", "isogeny_matrix": [["1", "-5"], ["1", "1"]]},
        ["--prime", "3", "--degree", "1"],
    ),
    (
        # eigenvalues 2 and 3 with 2 * 3 = q: real roots off the circle
        "abelian_en_nonpolarized",
        {"kind": "abelian_en", "q": "6", "isogeny_matrix": [["0", "-6"], ["1", "5"]]},
        ["--prime", "2", "--degree", "2"],
    ),
    (
        "abelian",
        {
            "kind": "abelian",
            "q": "6",
            "d": 2,
            "matrix": [
                ["1", "0", "-5", "0"],
                ["0", "1", "0", "-5"],
                ["1", "0", "1", "0"],
                ["0", "1", "0", "1"],
            ],
        },
        ["--prime", "2", "--degree", "2"],
    ),
    (
        "grassmannian_scalar",
        {"kind": "grassmannian", "q": "4", "k": 2, "n": 4, "variant": "scalar"},
        ["--prime", "2", "--degree", "4"],
    ),
    (
        "grassmannian_involution",
        {"kind": "grassmannian", "q": "9", "k": 2, "n": 4, "variant": "involution"},
        ["--prime", "3", "--degree", "4"],
    ),
    (
        "generic_passing",
        {
            "kind": "generic",
            "q": "5",
            "d": 1,
            # (t^2 - 2t + 5)(t^2 + t + 5): roots on |t| = sqrt(5)
            "charpolys": [["1", "-1"], ["1", "-1", "8", "-5", "25"], ["1", "-5"]],
            "hodge": [[1], [2, 2], [0, 1, 0]],
        },
        ["--prime", "5", "--degree", "1"],
    ),
    (
        "generic_pushed",
        {
            "kind": "generic",
            "q": "5",
            "d": 1,
            # (t^2 - 2t + 6)(t^2 + t + 5): one root pair pushed off the circle
            "charpolys": [["1", "-1"], ["1", "-1", "9", "-4", "30"], ["1", "-5"]],
            "hodge": [[1], [2, 2], [0, 1, 0]],
        },
        ["--prime", "5", "--degree", "1"],
    ),
    (
        # every degree passes its own functional equation, but degree 3 is
        # not the q^2-reciprocal of degree 1: cross duality fails at 1 and 3
        # and the zeta functional equation compares polynomial products
        "generic_nondual",
        {
            "kind": "generic",
            "q": "4",
            "d": 2,
            "charpolys": [
                ["1", "-1"],
                # (t^2 + 4)(t^2 - 2t + 4)
                ["1", "-2", "8", "-8", "16"],
                ["1", "-8", "16"],
                # (t^2 + 8t + 64)(t^2 + 64)
                ["1", "8", "128", "512", "4096"],
                ["1", "-16"],
            ],
        },
        ["--prime", "2", "--degree", "3"],
    ),
    (
        # the degree-1 Hodge numbers are all zero: no Hodge polygon to
        # compare with or to record in that degree's row
        "generic_zero_hodge_row",
        {
            "kind": "generic",
            "q": "4",
            "d": 1,
            "charpolys": [["1", "-1"], ["1", "-3", "2"], ["1", "-4"]],
            "hodge": [[1], [0, 0], [0, 1, 0]],
        },
        ["--prime", "2", "--degree", "1"],
    ),
)


def commands(polygon_args):
    """(command, arguments after the descriptor path) of each pinned call."""
    return (
        ("verify", ["--primes", "2,3,5"]),
        ("zeta", []),
        ("polygons", polygon_args),
    )


# (descriptor name, command): (exit code, sha256 of stdout)
DIGESTS = {
    ("abelian_en", "verify"): (0, "e9703013053ace636ef70887796cc6ec94cdf73f0d544ad4b5e7c83a5c8ebb7e"),
    ("abelian_en", "zeta"): (0, "fde0ad33b29c22ae3c441b9b8c075da4e9aa6a12065035611a4fe6090ec82044"),
    ("abelian_en", "polygons"): (0, "c80b02eb5704628319efe1721e8ad8387c616e63e4822c8d7bbd561cb64189ca"),
    ("abelian_en_nonpolarized", "verify"): (1, "bef1466f0c640ef6b52b932c34218221e7e2fed12395e48bc3a4389ecfcdd7a4"),
    ("abelian_en_nonpolarized", "zeta"): (0, "576085f33599e4807f3efd5722cb1445e33d2b8709ca74b079e6d8b080378c5f"),
    ("abelian_en_nonpolarized", "polygons"): (0, "dfbd6c50858990d0f77f370d7cae8cc29b40ca9c658f1125458f8afbb6074f47"),
    ("abelian", "verify"): (0, "98c4a05fd73e502bd31472dc031d53620c878d743b7d700dd26c635731a64e76"),
    ("abelian", "zeta"): (0, "fde0ad33b29c22ae3c441b9b8c075da4e9aa6a12065035611a4fe6090ec82044"),
    ("abelian", "polygons"): (0, "06d992ad1eaaf8e508770091d9a77bec15bad103a22538ea427688c85e63fa28"),
    ("grassmannian_scalar", "verify"): (0, "406f954616b4b995f72153168545481c9b6bca0d98ed891c9ecad4dc9f6b914a"),
    ("grassmannian_scalar", "zeta"): (0, "92f2313bca8f26966282a63121d0ad135d7c495add8d0d1af79b9faf237346f1"),
    ("grassmannian_scalar", "polygons"): (0, "ba4b30da6e1acca6daabaae1d600d1d2e862bd07bc74b3938060cf01b2b3e317"),
    ("grassmannian_involution", "verify"): (0, "cecdc9625f5e7596246c3a93c912ab218a3765f29e5d1e9af3dbd4b187e02882"),
    ("grassmannian_involution", "zeta"): (0, "b0580cd966a0fac3fbccae5116dd5e29a29567682adcc17ffaa9c8686ffb7edc"),
    ("grassmannian_involution", "polygons"): (0, "a71edef6510dc2af38c949a2c139230d1fe731aad3c7c53ef0270de47fad0747"),
    ("generic_passing", "verify"): (0, "8d13bb835ba3161bec9e913a6c1e190e54e71c5cc68d25d67f12218674d26bf2"),
    ("generic_passing", "zeta"): (0, "fe538e528b3adae224ab3d5711a9f82366c4154d7f3f00254ea1535acc8caf8b"),
    ("generic_passing", "polygons"): (0, "2dcf28248d6094f6677e639864c6c486b6dfa5758fd0dc0014047e630fffe5de"),
    ("generic_pushed", "verify"): (1, "2e9f297130e3cde5cf9e564565f5fd470eff5bf01b66fef49bea768ddd6bf2d3"),
    ("generic_pushed", "zeta"): (0, "36e88873acfb44279d6d8ea0264a27aec511a5d3974e7e0f06b8aee3d948c755"),
    ("generic_pushed", "polygons"): (0, "111fe59c7a0fb909540a997429639bda25d3466c206e29df1cfe2d2b99a41a16"),
    ("generic_nondual", "verify"): (1, "6cdaadd527b77c8badc99f0b40e0a8146becc978c0f9394e25d4d4728413bbbf"),
    ("generic_nondual", "zeta"): (1, "351148cc8177064d757c2e2612f91ff75dbba7849f0e8483d17aa3b68f38f4f7"),
    ("generic_nondual", "polygons"): (0, "04e81278dd0107c241c531871ba1a32241ab0a17cbcb8a99b8c3d767c6a3b98a"),
    ("generic_zero_hodge_row", "verify"): (1, "3291efa5c3837a5d81a02eb3d9a8e3ac9f53b1d82392d0159ea3eb40bb6e58ef"),
    ("generic_zero_hodge_row", "zeta"): (0, "a17fe211b718b9ba5528584b4f6b4ac7e9af0a9f64e371d3223535b3aa723534"),
    ("generic_zero_hodge_row", "polygons"): (0, "2d994cf58b9b334745652370b6aaa8439e744a09ed3cc35447ed1242056dc63a"),
}


@pytest.mark.parametrize(
    "name, doc, command, extra",
    [
        (name, doc, command, extra)
        for name, doc, polygon_args in DESCRIPTORS
        for command, extra in commands(polygon_args)
    ],
)
def test_cli_stdout_bytes_are_pinned(tmp_path, capsys, name, doc, command, extra):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([command, str(path), *extra])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == DIGESTS[name, command]


# P_1 = (t - 1)(t - 2) at 2 with v(q) = 2: the Newton vertex (2, 1/2) is
# labeled with a fraction and lies below the Hodge polygon
SVG_DESCRIPTOR = {
    "kind": "generic",
    "q": "4",
    "d": 1,
    "charpolys": [["1", "-1"], ["1", "-3", "2"], ["1", "-4"]],
    "hodge": [[1], [1, 1], [0, 1, 0]],
}
SVG_DIGEST = "8833ee30119bb5c34b83f89b86ac975ea692f9c3bc9a789645f02b95df9414bc"


def test_svg_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SVG_DESCRIPTOR))
    svg = tmp_path / "overlay.svg"
    argv = ["polygons", str(path), "--prime", "2", "--degree", "1", "--svg", str(svg)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == SVG_DIGEST


SCHEMA_DIGEST = "a657df3b60a0fa47a15a37a514189742cd0b6bcae941249c4258d2654b000f07"


def test_schema_bytes_are_pinned(capsys):
    capsys.readouterr()
    assert cli.main(["schema", "--json-only"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCHEMA_DIGEST
