import pytest
from hypothesis import given
from hypothesis import strategies as st

from nncpoly.errors import ParseError
from nncpoly.formats import emit_ext, emit_ine, parse_ext, parse_ine
from nncpoly.systems import ConKind, Constraint, GenKind, Generator


INE = """\
* a comment line
H-representation
linearity 1 1
strict 1 3
begin
 3 3 integer
 0 1 -1
 0 1 0
 2 -1 0
end
"""


def test_parse_ine_kinds_and_dim():
    cons, dim = parse_ine(INE)
    assert dim == 2
    assert [(c.row, c.kind.name) for c in cons] == [
        ((0, 1, -1), "EQUALITY"),
        ((0, 1, 0), "NONSTRICT"),
        ((2, -1, 0), "STRICT"),
    ]


def test_ine_roundtrip_is_stable():
    cons, dim = parse_ine(INE)
    text = emit_ine(cons, dim)
    again, dim2 = parse_ine(text)
    assert again == cons and dim2 == dim
    assert emit_ine(again, dim2) == text


EXT = """\
V-representation
linearity 1 4
closure 1 2
begin
 4 3 integer
 1 1 0
 1 3 0
 0 0 1
 0 1 0
end
"""


def test_parse_ext_kinds():
    gens, dim = parse_ext(EXT)
    assert dim == 2
    assert [(g.row, g.kind.name) for g in gens] == [
        ((1, 1, 0), "POINT"),
        ((1, 3, 0), "CLOSURE_POINT"),
        ((0, 0, 1), "RAY"),
        ((0, 1, 0), "LINE"),
    ]


def test_ext_roundtrip_is_stable():
    gens, dim = parse_ext(EXT)
    text = emit_ext(gens, dim)
    again, dim2 = parse_ext(text)
    assert again == gens and dim2 == dim


def test_divisor_scales_coordinates():
    gens, _ = parse_ext("V-representation\nbegin\n 1 2 integer\n 2 5\nend\n")
    assert gens[0].row == (2, 5)
    assert gens[0].kind is GenKind.POINT


def test_comments_and_blank_lines_ignored():
    cons, dim = parse_ine(
        "* head\n\nH-representation\n# note\nbegin\n 0 2 integer\nend\n"
    )
    assert cons == [] and dim == 1


def test_empty_ext_parses_to_no_generators():
    gens, dim = parse_ext("V-representation\nbegin\n 0 3 integer\nend\n")
    assert gens == [] and dim == 2


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("begin\n 1 2 integer\n 1 1\nend\n", 1),
        ("H-representation\nbegin\n 1 2 rational\n 1 1\nend\n", 3),
        ("H-representation\nbegin\n 2 2 integer\n 1 1\nend\n", 5),
        ("H-representation\nlinearity 1 5\nbegin\n 1 2 integer\n 1 1\nend\n", 2),
        ("H-representation\nstrict 1 1\nstrict 1 1\nbegin\n 1 2 integer\n 1 1\nend\n", 3),
        ("H-representation\nbegin\n 1 2 integer\n 1 x\nend\n", 4),
        ("H-representation\nbegin\n 1 2 integer\n 1 1.5\nend\n", 4),
        ("H-representation\nbegin\n 1 2 integer\n 1 1/2\nend\n", 4),
        ("H-representation\nbegin\n 1 2 integer\n 0 0\nend\n", 4),
        ("H-representation\nbegin\n 1 1 integer\n 1\nend\n", 3),
        ("H-representation\nbegin\n 1 2 integer\n 1 1\nend\nmore\n", 6),
        ("H-representation\nlinearity x\nbegin\n 1 2 integer\n 1 1\nend\n", 2),
        ("H-representation\nlinearity 2 1\nbegin\n 1 2 integer\n 1 1\nend\n", 2),
        ("H-representation\nstrict 2 1 1\nbegin\n 2 2 integer\n 1 1\n 1 0\nend\n", 2),
        ("H-representation\nfoo 1 1\nbegin\n 1 2 integer\n 1 1\nend\n", 2),
        ("H-representation\nbegin\n 1 2\n 1 1\nend\n", 3),
        ("H-representation\nbegin\n one 2 integer\n 1 1\nend\n", 3),
        ("H-representation\nbegin\n -1 2 integer\nend\n", 3),
        ("H-representation\nbegin\n 1 3 integer\n 1 1\nend\n", 4),
        ("H-representation\nbegin\n 1 2 integer\n 1 1\n 2 2\nend\n", 5),
        # two marker lines clash: the lowest row marked twice gives the line
        (
            "H-representation\nlinearity 2 3 2\nstrict 2 2 3\nbegin\n 3 2 integer\n"
            " 1 1\n 1 0\n 0 1\nend\n",
            7,
        ),
    ],
)
def test_parse_ine_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_ine(text)
    assert exc.value.lineno == lineno


def test_truncated_file():
    with pytest.raises(ParseError, match="end of file"):
        parse_ine("H-representation\nbegin\n 1 2 integer\n 1 1\n")


def test_overlapping_markers():
    with pytest.raises(ParseError, match="both"):
        parse_ine(
            "H-representation\nlinearity 1 1\nstrict 1 1\nbegin\n 1 2 integer\n 1 1\nend\n"
        )


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("V-representation\nbegin\n 1 2 integer\n -1 1\nend\n", 4),
        ("V-representation\nbegin\n 1 2 integer\n 1 1.5\nend\n", 4),
        ("V-representation\nbegin\n 2 3 integer\n 1 0 0\n 0 0 0\nend\n", 5),
        ("V-representation\nlinearity 1 1\nbegin\n 1 2 integer\n 1 1\nend\n", 5),
        ("V-representation\nclosure 1 1\nbegin\n 1 2 integer\n 0 1\nend\n", 5),
        # two marker lines clash: the lowest row marked twice gives the line
        ("V-representation\nlinearity 1 1\nclosure 1 1\nbegin\n 1 2 integer\n 0 1\nend\n", 6),
    ],
)
def test_parse_ext_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_ext(text)
    assert exc.value.lineno == lineno


def test_emitted_markers_round_numbers():
    cons = [
        Constraint((0, 1, -1), ConKind.EQUALITY),
        Constraint((2, -1, 0), ConKind.STRICT),
        Constraint((0, 1, 0), ConKind.NONSTRICT),
    ]
    text = emit_ine(cons, 2)
    assert "linearity 1 1" in text
    assert "strict 1 2" in text
    gens = [
        Generator((0, 1, 0), GenKind.LINE),
        Generator((1, 1, 1), GenKind.CLOSURE_POINT),
        Generator((1, 0, 0), GenKind.POINT),
    ]
    vtext = emit_ext(gens, 2)
    assert "linearity 1 1" in vtext
    assert "closure 1 2" in vtext


def _rows(draw, dim, n):
    """n rows of length dim + 1 with a nonzero coordinate part, entries up
    to 2**70."""
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    row = st.lists(entry, min_size=dim + 1, max_size=dim + 1).filter(lambda r: any(r[1:]))
    return [tuple(draw(row)) for _ in range(n)]


@st.composite
def constraint_systems(draw):
    dim = draw(st.integers(1, 4))
    rows = _rows(draw, dim, draw(st.integers(0, 6)))
    return [Constraint(r, draw(st.sampled_from(ConKind))) for r in rows], dim


@st.composite
def generator_systems(draw):
    dim = draw(st.integers(1, 4))
    gens = []
    for r in _rows(draw, dim, draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(GenKind))
        if kind in (GenKind.LINE, GenKind.RAY):
            r = (0, *r[1:])
        else:
            r = (draw(st.integers(1, 2**40)), *r[1:])
        gens.append(Generator(r, kind))
    return gens, dim


@given(constraint_systems())
def test_ine_roundtrip_fuzz(system):
    cons, dim = system
    text = emit_ine(cons, dim)
    again, dim2 = parse_ine(text)
    assert dim2 == dim
    assert [(c.row, c.kind) for c in again] == [(c.row, c.kind) for c in cons]
    assert emit_ine(again, dim2) == text


@given(generator_systems())
def test_ext_roundtrip_fuzz(system):
    gens, dim = system
    text = emit_ext(gens, dim)
    again, dim2 = parse_ext(text)
    assert dim2 == dim
    assert [(g.row, g.kind) for g in again] == [(g.row, g.kind) for g in gens]
    assert emit_ext(again, dim2) == text
