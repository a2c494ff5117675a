import argparse
import importlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemap import CertificationFailed, cli
from curvemap.corpus import MAX_CORPUS_SIZE, MAX_SWEEP_DEGREE
from curvemap.cli import MAX_SAMPLES
from curvemap.forms import MAX_DEGREE


def write_instance(tmp_path, body, name="case.txt"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


QUARTIC = """# quartic with a square reparameterization
field: prime 2147483647
seed: 7
x^4
x^2*y^2
y^4
"""


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json_report(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, err = run(capsys, ["analyze", path, "--deterministic"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["command"] == "analyze"
    assert rep["field"] == {"mode": "prime", "p": 2147483647}
    assert rep["seed"] == 7
    assert rep["generators"] == ["x^4", "x^2*y^2", "y^4"]
    assert rep["r"] == 2 and rep["eA"] == 2 and rep["j"] == 16
    assert rep["birational"] is False
    assert rep["phi"]["colDegrees"] == [2, 2]
    assert rep["core"]["equalsMPower"] is False
    assert rep["c3"]["consistent"] is True
    assert "generatedAt" not in rep


def test_analyze_timestamps_unless_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["analyze", path])
    assert code == 0
    assert "generatedAt" in json.loads(out)


def test_analyze_deterministic_repeats_byte_identical(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    _, first, _ = run(capsys, ["analyze", path, "--deterministic"])
    _, second, _ = run(capsys, ["analyze", path, "--deterministic"])
    assert first == second


def test_analyze_plain_rendering(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["analyze", path, "--deterministic", "--plain"])
    assert code == 0
    assert "r = 2, e(A) = 2, j = 16, birational: no" in out
    assert "{" not in out


def test_seed_flag_overrides_instance_seed(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["analyze", path, "--deterministic", "--seed", "11"])
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_fiber_command(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["fiber", path, "--point", "1:1:1", "--deterministic"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "fiber"
    assert rep["onImage"] is True and rep["fiberDegree"] == 2
    assert rep["fiberForm"] == "x^2 - y^2"


def test_fiber_off_image_point(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["fiber", path, "--point", "0:1:0", "--deterministic"])
    assert code == 0
    rep = json.loads(out)
    assert rep["onImage"] is False and "note" in rep


# (f1^2, f1*f2, f2^2) with f1 = x^2 - y^2/2, f2 = x*y: r = 2 over QQ
RATIONAL_SQUARE = """field: rational
seed: 5
x^4 - x^2*y^2 + 1/4*y^4
x^3*y - 1/2*x*y^3
x^2*y^2
"""

RATIONAL_FIBER_ON = """{
  "command": "fiber",
  "field": {
    "mode": "rational"
  },
  "seed": 5,
  "generators": [
    "x^4 - x^2*y^2 + 1/4*y^4",
    "x^3*y - 1/2*x*y^3",
    "x^2*y^2"
  ],
  "point": "1:3/2:9/4",
  "onImage": true,
  "fiberForm": "x^2 - 2/3*x*y - 1/2*y^2",
  "fiberDegree": 2
}
"""

RATIONAL_FIBER_OFF = """fiber  (field rational, seed 5)
point: 1:0:1
on image: no
note: membership is decided for rational points over the configured field; a point off the image here may still lie on it over the algebraic closure
"""


def test_fiber_over_rationals_byte_for_byte(tmp_path, capsys):
    # no benchmark workload asks fiber --point over QQ; these outputs are
    # the recorded reports, byte for byte
    path = write_instance(tmp_path, RATIONAL_SQUARE)
    argv = ["fiber", path, "--deterministic", "--point"]
    assert run(capsys, argv + ["2/3:1:3/2"]) == (0, RATIONAL_FIBER_ON, "")
    assert run(capsys, argv + ["1:0:1", "--plain"]) == (0, RATIONAL_FIBER_OFF, "")
    code, out, _ = run(capsys, ["reparam", path, "--deterministic", "--plain"])
    assert code == 0
    assert out.splitlines()[1] == "r = 2, f1 = x^2 - 1/2*y^2, f2 = x*y"


def test_fiber_wrong_coordinate_count(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, _, err = run(capsys, ["fiber", path, "--point", "1:1", "--deterministic"])
    assert code == 1 and "coordinates" in err


def test_fiber_accepts_rational_coordinates(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["fiber", path, "--point", "1:1/2:1/4", "--deterministic"])
    assert code == 0
    assert json.loads(out)["onImage"] is True


def test_fiber_rejects_coordinates_outside_the_scalar_grammar(tmp_path, capsys):
    # only [-]a and [-]a/b; exponent notation would be expanded by Fraction
    path = write_instance(tmp_path, QUARTIC)
    for point in ("1:1e5:1", "1:0.5:1", "1:+1:1", "1: 1:1", "1:1/0:1", "1:1/-2:1"):
        code, out, err = run(capsys, ["fiber", path, "--point", point, "--deterministic"])
        assert code == 1 and out == ""
        assert err.startswith("error: bad coordinate")
    code, out, _ = run(capsys, ["fiber", path, "--point", "1:-1:1", "--deterministic"])
    assert code == 0 and json.loads(out)["onImage"] is True


def test_reparam_command(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["reparam", path, "--deterministic"])
    assert code == 0
    rep = json.loads(out)
    assert rep["r"] == 2
    assert rep["f1"] == "x^2" and rep["f2"] == "y^2"
    assert rep["newGens"] == ["X^2", "X*Y", "Y^2"]
    assert rep["verification"] == {
        "regularSequence": True,
        "extension": True,
        "newDegreeOne": True,
    }
    assert "note" not in rep


def test_reparam_notes_birational_case(tmp_path, capsys):
    body = "field: prime 2147483647\nx^3\nx^2*y\ny^3\n"
    path = write_instance(tmp_path, body)
    code, out, _ = run(capsys, ["reparam", path, "--deterministic"])
    assert code == 0
    rep = json.loads(out)
    assert rep["r"] == 1 and "already birational" in rep["note"]


def test_core_command(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["core", path, "--deterministic"])
    assert code == 0
    rep = json.loads(out)
    assert rep["coreGens"] == ["x^6", "x^4*y^2", "x^2*y^4", "y^6"]
    assert rep["equalsMPower"] is False
    assert rep["integrallyClosed"]["value"] is False


def test_rational_mode_instance(tmp_path, capsys):
    body = "field: rational\nx^2\nx*y\ny^2\n"
    path = write_instance(tmp_path, body)
    code, out, _ = run(capsys, ["analyze", path, "--deterministic"])
    assert code == 0
    rep = json.loads(out)
    assert rep["field"] == {"mode": "rational"}
    assert rep["r"] == 1 and rep["eA"] == 2


def test_input_errors_exit_1(tmp_path, capsys):
    cases = [
        "field: prime 2147483647\nx\nx\n",  # dependent generators
        "field: prime 2147483647\nx^2\nx*y\n",  # common factor
        "field: prime 2147483647\nx^2\ny\n",  # degree mismatch
        "x^2\nx*y\ny^2\n",  # generators before field line
        "field: prime 15\nx\ny\n",  # bad modulus
        "field: prime 2147483647\nx^2 +\ny^2\n",  # syntax error
        "field: prime 2147483647\nx^2\n1/2147483647*x*y + y^2\n",  # denominator p
        f"field: prime 2147483647\nx^{MAX_DEGREE + 1}\ny^{MAX_DEGREE + 1}\n",
        f"field: prime 2147483647\nx^{MAX_DEGREE}*y\ny^{MAX_DEGREE + 1}\n",
        "field: prime 2147483647\nx^2\n" + "9" * 5000 + "*y^2\n",  # beyond int()
        "field\nx\ny\n",  # a key line without its colon
        "field: rational\nseed\nx\ny\n",
    ]
    for body in cases:
        path = write_instance(tmp_path, body)
        code, out, err = run(capsys, ["analyze", path])
        assert code == 1, body
        assert err.startswith("error:")
    # bytes that are not UTF-8 fail every command the same way
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"field: prime\n\xff x\ny\n")
    for cmd in (["analyze"], ["reparam"], ["core"], ["fiber", "--point", "1:1"]):
        code, out, err = run(capsys, [*cmd, str(path)])
        assert code == 1 and err.startswith("error:") and "UTF-8" in err, cmd
    # counts past their named maxima, which bound the memory a run can take
    path = write_instance(tmp_path, QUARTIC)
    for argv, bound in (
        (["analyze", path, "--samples", str(MAX_SAMPLES + 1)], MAX_SAMPLES),
        (["reparam", path, "--samples", "1000000"], MAX_SAMPLES),
        (["selftest", "--d-max", str(MAX_SWEEP_DEGREE + 1)], MAX_SWEEP_DEGREE),
        (["selftest", "--d-max", "40"], MAX_SWEEP_DEGREE),
        (["selftest", "--corpus-size", str(MAX_CORPUS_SIZE + 1)], MAX_CORPUS_SIZE),
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and f"at most {bound}" in err, argv


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/instance.txt"])
    assert code == 1 and err.startswith("error:")


def test_instance_error_messages_carry_line_numbers(tmp_path, capsys):
    body = "field: prime 2147483647\nx^2\nnot a polynomial !\ny^2\n"
    path = write_instance(tmp_path, body)
    code, _, err = run(capsys, ["analyze", path])
    assert code == 1 and "line 3" in err


def test_bad_usage_exits_1(capsys):
    assert run(capsys, ["analyze"])[0] == 1
    assert run(capsys, ["frobnicate", "x"])[0] == 1
    assert run(capsys, ["fiber", "nope.txt"])[0] == 1  # missing --point


def test_computation_failure_exits_2(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, QUARTIC)

    class Boom:
        def __init__(self, *a, **k):
            raise CertificationFailed("sampled degree failed certification")

    monkeypatch.setattr(cli, "Analysis", Boom)
    code, _, err = run(capsys, ["analyze", path])
    assert code == 2
    assert err.startswith("computation failed:")


def test_selftest_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, ["selftest", "--d-max", "4", "--corpus-size", "2"])
    assert code == 0
    assert "self-test passed" in out

    class Fake:
        ok = False

    monkeypatch.setattr(cli, "run_selftest", lambda *a, **k: Fake())
    assert run(capsys, ["selftest"])[0] == 3


def test_selftest_rejects_empty_sweeps(capsys):
    # a self-test over no cases must not report a pass
    for argv in (["--d-max", "-1"], ["--d-max", "0"], ["--corpus-size", "-3"]):
        code, out, err = run(capsys, ["selftest", *argv])
        assert code == 1 and out == ""
        assert err.startswith("error:") and argv[0] in err


def test_samples_below_one_exits_1(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    for value in ("0", "-3"):
        code, out, err = run(capsys, ["analyze", path, "--samples", value])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--samples" in err
        assert "Traceback" not in err


def test_prime_beyond_kernel_bound_exits_1(tmp_path, capsys):
    # with p = 2^61 - 1 the int64 kernels overflow and phi comes out wrong
    body = (
        "field: prime 2305843009213693951\n"
        "x^5 + 3*x^2*y^3 - 7*y^5\n"
        "x^4*y - 2*x*y^4 + 11*y^5\n"
        "5*x^3*y^2 + x*y^4 - y^5\n"
    )
    path = write_instance(tmp_path, body)
    code, out, err = run(capsys, ["fiber", path, "--point", "1:1:1", "--deterministic"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "2**31" in err


def test_instance_file_past_the_size_bound_exits_1(tmp_path, capsys, monkeypatch):
    # three dense generators of degree MAX_DEGREE with ten-digit coefficients
    term = "2147483646*x^{}*y^{}"
    gens = " + ".join(term.format(MAX_DEGREE - i, i) for i in range(MAX_DEGREE + 1))
    assert 3 * len(gens) < cli.MAX_INSTANCE_BYTES // 10
    path = write_instance(tmp_path, QUARTIC)
    size = len(QUARTIC.encode())
    monkeypatch.setattr(cli, "MAX_INSTANCE_BYTES", size)
    assert run(capsys, ["analyze", path, "--deterministic"])[0] == 0
    # one blank line more: MAX_DEGREE bounds no blank or comment line
    padded = write_instance(tmp_path, "\n" + QUARTIC, "padded.txt")
    for cmd in (["analyze"], ["reparam"], ["core"], ["fiber", "--point", "1:1:1"]):
        code, out, err = run(capsys, [*cmd, padded])
        assert code == 1 and out == "", cmd
        assert err == f"error: instance file is larger than {size} bytes\n", cmd


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_instance_file_exits_1(capsys):
    code, out, err = run(capsys, ["analyze", "/dev/zero"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(cli.MAX_INSTANCE_BYTES) in err


def test_main_reuses_one_parser_per_process(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, QUARTIC)
    calls = [
        ["analyze", path, "--deterministic", "--seed", "11", "--plain"],
        ["analyze", path, "--deterministic"],
        ["fiber", path, "--point", "1:1:1", "--deterministic"],
        ["reparam", path, "--deterministic"],
        ["core", path, "--deterministic"],
        ["fiber", path],  # usage error: no --point
        ["--help"],
    ]
    fresh = []
    for argv in calls:
        importlib.reload(cli)
        fresh.append(run(capsys, argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 1, 0]

    importlib.reload(cli)
    run(capsys, ["core", path, "--deterministic"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    reused = [run(capsys, argv) for argv in calls]
    assert built == []
    for argv, again, first in zip(calls, reused, fresh):
        assert again == first, argv


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(json_values)
def test_report_encoder_matches_json_dumps_with_indent(value):
    assert cli._indented_json(value) == json.dumps(value, indent=2)


def test_report_encoder_on_fixed_values():
    value = {
        "empty": {"list": [], "dict": {}},
        "text": ["caf\u00e9", "\u2603", "tab\tquote\"", ""],
        "numbers": [0, -7, 2**70, 0.1, -0.0, 1e300, float("nan"), float("-inf")],
        "flags": [True, False, None],
        "tuple": (1, (2, 3)),
    }
    assert cli._indented_json(value) == json.dumps(value, indent=2)
    assert cli._indented_json([]) == "[]" and cli._indented_json({}) == "{}"
    for bad in ({"k": object()}, {1: 2}):
        with pytest.raises(TypeError):
            cli._indented_json(bad)
