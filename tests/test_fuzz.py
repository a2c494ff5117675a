"""Hypothesis fuzzing of the input grammar: instance files, forms and --point.

Bad input must exit 1 with a message, never with a traceback.  Examples are
derandomized and small, so every run draws the same cases.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemap import QQ, InstanceError, PrimeField, cli
from curvemap.forms import _TOKEN, _tokenize, parse_form

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# digits and whitespace beyond ASCII: \d takes "٣" but not "²", and every
# str.isspace character separates tokens
ODD = "٣²  \x0b\x1c"
ALPHABET = "0123456789xyXYz^*+/-.:# \t\n" + ODD

PIECES = st.sampled_from(
    ["x", "y", "X", "Y", "z", "^", "*", "+", "-", "/", " ", "\t", "0", "1", "2",
     "17", "1000", "999", "9" * 30, *ODD]
)
POLY = st.one_of(
    st.lists(PIECES, max_size=12).map("".join),
    st.text(ALPHABET, max_size=20),
)
LINE = st.one_of(
    st.sampled_from(
        ["field: prime", "field: prime 2147483647", "field: prime 1048583",
         "field: prime 15", "field: rational", "field", "FIELD:rational",
         "seed", "seed: 3", "seed: -x", "# note", "", "  "]
    ),
    POLY,
)
SCALAR = st.one_of(
    st.sampled_from(["0", "1", "-1", "2/3", "-7/5", "1/0", "1e5", "٣", "²", "", "x"]),
    st.text(ALPHABET, max_size=6),
)


def old_tokenize(text):
    """The per-position tokenizer that _tokenize replaced, kept as the oracle."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise InstanceError(f"unexpected character {text[pos]!r} in polynomial")
        tokens.append(m.group(0))
        pos = m.end()
    return tokens


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except InstanceError as exc:
        return f"error: {exc}"


@FUZZ
@given(st.one_of(POLY, st.text(ALPHABET, max_size=40), st.text(max_size=20)))
def test_tokenize_matches_the_per_position_loop(text):
    assert outcome(_tokenize, text) == outcome(old_tokenize, text)


@FUZZ
@given(POLY, st.booleans())
def test_parse_form_returns_a_form_or_raises_instance_error(text, rational):
    field = QQ if rational else PrimeField(2147483647)
    try:
        h = parse_form(field, text)
    except InstanceError:
        return
    assert h.is_zero or h.degree <= 1000


@FUZZ
@given(st.lists(LINE, max_size=6).map("\n".join))
def test_parse_instance_returns_or_raises_an_input_error(text):
    # cli.main turns exactly these errors into exit 1
    try:
        cli.parse_instance(text)
    except cli._INPUT_ERRORS:
        pass


@FUZZ
@given(st.binary(max_size=40))
def test_instance_bytes_load_or_exit_1(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data)
    try:
        cli.load_instance(str(path))
    except cli._INPUT_ERRORS:
        pass


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("points")
    bodies = {
        "prime.txt": "field: prime 2147483647\nseed: 7\nx^4\nx^2*y^2\ny^4\n",
        "rational.txt": "field: rational\nseed: 5\nx^3\nx^2*y\ny^3\n",
    }
    for name, body in bodies.items():
        (root / name).write_text(body)
    return [str(root / name) for name in bodies]


@FUZZ
@given(st.lists(SCALAR, max_size=4).map(":".join), st.integers(0, 1))
def test_fiber_point_exits_0_or_1(instances, point, which):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["fiber", instances[which], f"--point={point}", "--deterministic"])
    assert code in (0, 1), point
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), point
