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
descriptor's Hodge numbers gained "minimum": 0. The nine verify digests
and the schema digest were re-recorded when the report lost its
"precision" member, a no-op left from a numeric root finder: each verify
document is the earlier one without that member. A change that alters any
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
    ("abelian_en", "verify"): (0, "a0d0743a065b641399660a98645b20650ad0b1c2ff68443570cf2edd45b34082"),
    ("abelian_en", "zeta"): (0, "fde0ad33b29c22ae3c441b9b8c075da4e9aa6a12065035611a4fe6090ec82044"),
    ("abelian_en", "polygons"): (0, "c80b02eb5704628319efe1721e8ad8387c616e63e4822c8d7bbd561cb64189ca"),
    ("abelian_en_nonpolarized", "verify"): (1, "10735e23b68620c8fd64dd3c147b9f617cab8fcfd8f83b95d18296882f50331f"),
    ("abelian_en_nonpolarized", "zeta"): (0, "576085f33599e4807f3efd5722cb1445e33d2b8709ca74b079e6d8b080378c5f"),
    ("abelian_en_nonpolarized", "polygons"): (0, "dfbd6c50858990d0f77f370d7cae8cc29b40ca9c658f1125458f8afbb6074f47"),
    ("abelian", "verify"): (0, "c40b3eb02778fb1e04410505c4081bc6ab8eaeacba1d6e49fbf5a15809aeba50"),
    ("abelian", "zeta"): (0, "fde0ad33b29c22ae3c441b9b8c075da4e9aa6a12065035611a4fe6090ec82044"),
    ("abelian", "polygons"): (0, "06d992ad1eaaf8e508770091d9a77bec15bad103a22538ea427688c85e63fa28"),
    ("grassmannian_scalar", "verify"): (0, "787957f567beca3d2ac20983430722fbcbd7d6860b7f026089db71da2f74e9ca"),
    ("grassmannian_scalar", "zeta"): (0, "92f2313bca8f26966282a63121d0ad135d7c495add8d0d1af79b9faf237346f1"),
    ("grassmannian_scalar", "polygons"): (0, "ba4b30da6e1acca6daabaae1d600d1d2e862bd07bc74b3938060cf01b2b3e317"),
    ("grassmannian_involution", "verify"): (0, "c7a91caa047f6e1df739c2ea84bbae45c5f837c2a6823d4ac93c57eb48c266f3"),
    ("grassmannian_involution", "zeta"): (0, "b0580cd966a0fac3fbccae5116dd5e29a29567682adcc17ffaa9c8686ffb7edc"),
    ("grassmannian_involution", "polygons"): (0, "a71edef6510dc2af38c949a2c139230d1fe731aad3c7c53ef0270de47fad0747"),
    ("generic_passing", "verify"): (0, "5a95656d0e5d9246864462aa44201eef62ee7bf8f2bc00148e0d279fb5c5cf53"),
    ("generic_passing", "zeta"): (0, "fe538e528b3adae224ab3d5711a9f82366c4154d7f3f00254ea1535acc8caf8b"),
    ("generic_passing", "polygons"): (0, "2dcf28248d6094f6677e639864c6c486b6dfa5758fd0dc0014047e630fffe5de"),
    ("generic_pushed", "verify"): (1, "563f2c0a0473806286fbbc10fa4211442498b53a98369f15bbc2339842ac53b0"),
    ("generic_pushed", "zeta"): (0, "36e88873acfb44279d6d8ea0264a27aec511a5d3974e7e0f06b8aee3d948c755"),
    ("generic_pushed", "polygons"): (0, "111fe59c7a0fb909540a997429639bda25d3466c206e29df1cfe2d2b99a41a16"),
    ("generic_nondual", "verify"): (1, "2bc5f6fcf0cf79346d6fd24657d5a1af1ceee15bf4218c94104371455a7f5272"),
    ("generic_nondual", "zeta"): (1, "351148cc8177064d757c2e2612f91ff75dbba7849f0e8483d17aa3b68f38f4f7"),
    ("generic_nondual", "polygons"): (0, "04e81278dd0107c241c531871ba1a32241ab0a17cbcb8a99b8c3d767c6a3b98a"),
    ("generic_zero_hodge_row", "verify"): (1, "f5512596f847ebd6d29da737d6f3d12c17ba746504bea6b3bfead009ebfc998e"),
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


SCHEMA_DIGEST = "94cc9af863d14fbaedc2598634bcf08700b2f5474909610d3288b3c7e2696aaa"


def test_schema_bytes_are_pinned(capsys):
    capsys.readouterr()
    assert cli.main(["schema", "--json-only"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCHEMA_DIGEST
