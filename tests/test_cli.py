import json

import pytest

from curvemap import CertificationFailed, cli
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


def test_fiber_wrong_coordinate_count(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, _, err = run(capsys, ["fiber", path, "--point", "1:1", "--deterministic"])
    assert code == 1 and "coordinates" in err


def test_fiber_accepts_rational_coordinates(tmp_path, capsys):
    path = write_instance(tmp_path, QUARTIC)
    code, out, _ = run(capsys, ["fiber", path, "--point", "1:1/2:1/4", "--deterministic"])
    assert code == 0
    assert json.loads(out)["onImage"] is True


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
    ]
    for body in cases:
        path = write_instance(tmp_path, body)
        code, out, err = run(capsys, ["analyze", path])
        assert code == 1, body
        assert err.startswith("error:")


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
