import pathlib

import pytest

from monomial_hh.algfile import parse_algebra_file, write_algebra_file
from monomial_hh.errors import InfiniteDimensional, ParseError
from monomial_hh.fields import PrimeField

from helpers import word_path

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_cone_fixture_parses():
    alg = parse_algebra_file((FIXTURES / "example_cone.alg").read_text())
    assert alg.dim == 10
    assert sorted(word_path(alg.quiver, r).word() for r in alg.relations) == sorted(
        ["betazeta", "zetagamma", "alphazetaalpha", "zetaalphazeta"]
    )


def test_a6_fixture_uses_functional_writing(triangular_a6):
    alg = parse_algebra_file((FIXTURES / "triangular_a6.alg").read_text())
    assert alg.dim == triangular_a6.dim
    assert [word_path(alg.quiver, r).word() for r in alg.relations] == [
        word_path(triangular_a6.quiver, r).word() for r in triangular_a6.relations
    ]


def test_all_fixture_files_round_trip():
    for path in sorted(FIXTURES.glob("*.alg")):
        alg = parse_algebra_file(path.read_text())
        text = write_algebra_file(alg)
        again = parse_algebra_file(text)
        assert write_algebra_file(again) == text, path.name
        assert again.dim == alg.dim


def test_writing_flag_flips_order():
    base = "field q\nvertices 1 2 3\narrow x: 1 -> 2\narrow y: 2 -> 3\n"
    trav = parse_algebra_file(base + "relation x y\n")
    func = parse_algebra_file(base + "writing functional\nrelation y x\n")
    assert [word_path(trav.quiver, r).word() for r in trav.relations] == [
        word_path(func.quiver, r).word() for r in func.relations
    ] == ["yx"]


def test_field_line():
    text = "field fp:5\nvertices 1\n"
    alg = parse_algebra_file(text)
    assert alg.field == PrimeField(5)
    assert write_algebra_file(alg).startswith("field fp:5\n")


def test_empty_vertices_rejected():
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("field q\nvertices\narrow a: 1 -> 2\n")
    assert exc.value.line == 3  # the arrow line trips first: unknown vertex '1'
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("field q\nvertices\n")
    assert exc.value.line == 2

    with pytest.raises(ParseError):
        parse_algebra_file("")


def test_unknown_arrow_location():
    text = "vertices 1 2\narrow a: 1 -> 2\nrelation a nope\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert (exc.value.line, exc.value.col) == (3, 12)
    assert "nope" in exc.value.message


def test_bad_shapes():
    with pytest.raises(ParseError):
        parse_algebra_file("vertices 1\nfrobnicate\n")
    with pytest.raises(ParseError):
        parse_algebra_file("vertices 1\narrow a 1 -> 1\n")
    with pytest.raises(ParseError):
        parse_algebra_file("vertices 1\nrelation\n")
    with pytest.raises(ParseError):
        parse_algebra_file("field q\nfield q\nvertices 1\n")
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("field nonsense\nvertices 1\n")
    assert exc.value.line == 1 and exc.value.col == 7


def test_non_composable_relation_is_located():
    text = "vertices 1 2 3\narrow a: 1 -> 2\narrow b: 1 -> 3\nrelation a b\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert exc.value.line == 4


def test_semantic_errors_propagate():
    # a loop with no relations is infinite-dimensional, not a parse problem
    with pytest.raises(InfiniteDimensional):
        parse_algebra_file("vertices 1\narrow a: 1 -> 1\n")


def test_comments_and_duplicates():
    text = "# header\nvertices 1 2  # trailing\narrow a: 1 -> 2\n"
    assert parse_algebra_file(text).dim == 3
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("vertices 1 1\n")
    assert exc.value.col == 12
    with pytest.raises(ParseError):
        parse_algebra_file("vertices 1 2\narrow a: 1 -> 2\narrow a: 1 -> 2\n")
    # a vertex may not take the name of an arrow declared before it
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("vertices 1 2\narrow a: 1 -> 2\nvertices a\n")
    assert str(exc.value) == "line 3, col 10: duplicate id 'a'"
