"""Command-line front end: instance files in, JSON or plain-text reports out.

Exit codes: 0 success, 1 invalid input, 2 a computation failed one of its
certificates, 3 self-test failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .analysis import Analysis
from .corpus import MAX_CORPUS_SIZE, MAX_SWEEP_DEGREE
from .errors import (
    CertificationFailed,
    DegreeMismatch,
    InstanceError,
    InternalInvariantViolation,
    NotMonomial,
    SlopeNotStabilized,
    ZeroIdeal,
    ZeroRow,
)
from .field import DEFAULT_PRIME, QQ, PrimeField
from .fiber import fiber
from .forms import ProjPointN, parse_form
from .param import Parameterization
from .selftest import run_selftest

_INPUT_ERRORS = (InstanceError, ZeroIdeal, DegreeMismatch, NotMonomial)
_COMPUTE_ERRORS = (
    CertificationFailed,
    InternalInvariantViolation,
    ZeroRow,
    SlopeNotStabilized,
)
# largest instance file read; comment and blank lines are not bounded by
# forms.MAX_DEGREE, so without it a file such as /dev/zero is read to EOF
MAX_INSTANCE_BYTES = 1 << 20
_READ_CHUNK = 1 << 16


def _parse_field_spec(spec: str):
    parts = spec.split()
    if parts == ["rational"]:
        return QQ
    if parts and parts[0] == "prime":
        if len(parts) == 1:
            return PrimeField(DEFAULT_PRIME)
        if len(parts) == 2:
            try:
                p = int(parts[1])
            except ValueError:
                raise InstanceError(f"bad prime modulus {parts[1]!r}")
            return PrimeField(p)
    raise InstanceError(
        f"unknown field {spec!r}; use 'prime [p]' or 'rational'"
    )


def parse_instance(text: str):
    """Parse an instance file body into (field, seed, Parameterization)."""
    field = None
    seed = 0
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "field":
            if field is not None:
                raise InstanceError(f"line {lineno}: duplicate field line")
            field = _parse_field_spec(value.strip())
            continue
        if key == "seed":
            try:
                seed = int(value.strip())
            except ValueError:
                raise InstanceError(f"line {lineno}: seed must be an integer")
            continue
        if field is None:
            raise InstanceError(
                f"line {lineno}: the field line must come before the generators"
            )
        try:
            gens.append(parse_form(field, line))
        except InstanceError as exc:
            raise InstanceError(f"line {lineno}: {exc}")
    if field is None:
        raise InstanceError("missing 'field:' line")
    return field, seed, Parameterization.build(field, gens)


def load_instance(path: str):
    # in chunks: one read of MAX_INSTANCE_BYTES + 1 would allocate that much
    # on every call, however small the file
    data = bytearray()
    try:
        with Path(path).open("rb") as fh:
            while len(data) <= MAX_INSTANCE_BYTES:
                chunk = fh.read(min(_READ_CHUNK, MAX_INSTANCE_BYTES + 1 - len(data)))
                if not chunk:
                    break
                data += chunk
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}")
    if len(data) > MAX_INSTANCE_BYTES:
        raise InstanceError(f"instance file is larger than {MAX_INSTANCE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance file is not valid UTF-8: {exc}")
    return parse_instance(text)


# the scalars of instance files, [-]a or [-]a/b; Fraction alone would also
# take exponent notation, whose expansion costs time without bound
_SCALAR = re.compile(r"-?\d+(/\d+)?")


def _parse_scalar(field, text: str):
    if _SCALAR.fullmatch(text):
        try:
            return field.conv(Fraction(text))
        except (ValueError, ZeroDivisionError):
            pass
    raise InstanceError(f"bad coordinate {text!r}")


def _int_in(low: int, high: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


# The accepted range of --samples, which is only echoed in the reports: the
# map degree is proved on a fixed walk of points (certify_map_degree).
MAX_SAMPLES = 10_000
_samples = _int_in(1, MAX_SAMPLES)
_ECHOED = "echoed in the report; does not change the computation"


def _emit(args, report: dict, renderer) -> int:
    if not args.deterministic:
        report["generatedAt"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    if args.plain:
        renderer(report)
    else:
        print(_indented_json(report))
    return 0


_json_string = json.encoder.encode_basestring_ascii


def _indented_json(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte.

    With indent set, json.dumps takes its pure-Python encoder; here the
    nesting is recursion and every leaf goes through json's C encoders:
    strings through encode_basestring_ascii, floats through json.dumps.
    Reports have string keys only; any other key raises TypeError.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_indented_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_string(k)}: {_indented_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _field_str(cfg: dict) -> str:
    return f"prime p = {cfg['p']}" if cfg["mode"] == "prime" else "rational"


def _plain_analyze(rep: dict) -> None:
    print(f"analyze  (field {_field_str(rep['field'])}, seed {rep['seed']})")
    print(
        f"generators: {', '.join(rep['generators'])}   "
        f"(n = {rep['n']}, d = {rep['d']})"
    )
    print(f"column degrees: {', '.join(map(str, rep['colDegrees']))}")
    print("phi:")
    for row in rep["phi"]["matrix"]:
        print("  [" + ", ".join(row) + "]")
    print(
        f"r = {rep['r']}, e(A) = {rep['eA']}, j = {rep['j']}, "
        f"birational: {_flag(rep['birational'])}"
    )
    print("HF of A: " + ", ".join(map(str, rep["hfA"])))
    core = rep["core"]
    print(
        f"core: ({', '.join(core['coreGens'])})  "
        f"equals m^(2d-1): {_flag(core['equalsMPower'])}"
    )
    print("equivalence table:")
    for row in rep["c3"]["rows"]:
        mark = "holds" if row["holds"] else "fails"
        print(f"  ({row['id']}) {mark:<5}  [{row['provenance']}]  {row['statement']}")
    crit = rep["entryDegreeCriterion"]
    if crit["applies"]:
        print(
            f"prime entry-degree criterion: entries of degree {crit['entryDegree']}, "
            f"mu = {crit['mu']}, predicts birational: {_flag(crit['predictsBirational'])}"
        )


def _plain_fiber(rep: dict) -> None:
    print(f"fiber  (field {_field_str(rep['field'])}, seed {rep['seed']})")
    print(f"point: {rep['point']}")
    print(f"on image: {_flag(rep['onImage'])}")
    if rep["onImage"]:
        print(f"fiber form: {rep['fiberForm']}  (degree {rep['fiberDegree']})")
    elif "note" in rep:
        print(f"note: {rep['note']}")


def _plain_reparam(rep: dict) -> None:
    print(f"reparam  (field {_field_str(rep['field'])}, seed {rep['seed']})")
    print(f"r = {rep['r']}, f1 = {rep['f1']}, f2 = {rep['f2']}")
    print(f"new generators: {', '.join(rep['newGens'])}")
    phi = rep["rewrittenPhi"]
    print(f"rewritten phi ({phi['route']}):")
    for row in phi["matrix"]:
        print("  [" + ", ".join(row) + "]")
    checks = ", ".join(f"{k}: {_flag(v)}" for k, v in rep["verification"].items())
    print(f"verification: {checks}")
    if "note" in rep:
        print(f"note: {rep['note']}")


def _plain_core(rep: dict) -> None:
    print(f"core  (field {_field_str(rep['field'])}, seed {rep['seed']})")
    print(f"r = {rep['r']}, e = {rep['e']}, f1 = {rep['f1']}, f2 = {rep['f2']}")
    print(f"core generators: {', '.join(rep['coreGens'])}")
    print(f"equals m^(2d-1): {_flag(rep['equalsMPower'])}")
    closed = rep["integrallyClosed"]
    print(
        f"integrally closed: {_flag(closed['value'])}  ({closed['provenance']})"
    )
    print(f"canonical module: {rep['canonical']}")


def _analysis(args) -> Analysis:
    _, seed, P = load_instance(args.instance)
    seed = seed if args.seed is None else args.seed
    return Analysis(P, seed=seed, samples=args.samples)


def _header(a: Analysis, command: str) -> dict:
    P = a.param
    return {
        "command": command,
        "field": P.field.json_config(),
        "seed": a.seed,
        "generators": P.gen_strings(),
    }


def cmd_analyze(args) -> int:
    report = {"command": "analyze", **_analysis(args).report()}
    return _emit(args, report, _plain_analyze)


def cmd_fiber(args) -> int:
    a = _analysis(args)
    P = a.param
    coords = [_parse_scalar(P.field, s) for s in args.point.split(":")]
    if len(coords) != P.n:
        raise InstanceError(
            f"the point has {len(coords)} coordinates but the map has {P.n}"
        )
    p = ProjPointN.of(P.field, coords)
    report = {**_header(a, "fiber"), **fiber(P, a.phi, p).to_json()}
    return _emit(args, report, _plain_fiber)


def cmd_reparam(args) -> int:
    a = _analysis(args)
    report = {**_header(a, "reparam"), **a.reparam.to_json()}
    if a.r == 1:
        report["note"] = (
            "r = 1: the map is already birational; the new variables are "
            "a linear change of coordinates"
        )
    return _emit(args, report, _plain_reparam)


def cmd_core(args) -> int:
    a = _analysis(args)
    report = {**_header(a, "core"), **a.core.to_json()}
    return _emit(args, report, _plain_core)


def cmd_selftest(args) -> int:
    field = PrimeField(DEFAULT_PRIME)
    summary = run_selftest(
        field,
        d_max=args.d_max,
        corpus_size=args.corpus_size,
        seed=0 if args.seed is None else args.seed,
    )
    return 0 if summary.ok else 3


class _Parser(argparse.ArgumentParser):
    # bad usage is an input error, exit 1 like every other one
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Built on the first call of main and reused: nothing in it depends on argv,
# and parse_args gives every call a fresh Namespace.  The handlers look up
# their module names (Analysis, fiber, run_selftest) when they run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvemap",
        description=(
            "Exact analysis of rational maps P^1 -> P^(n-1) given by binary "
            "forms: syzygies, fibers, map degree, reparameterization, core."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False):
        p.add_argument("instance", help="instance file path")
        if point:
            p.add_argument(
                "--point",
                required=True,
                help="target point 'a:b:...' with n coordinates",
            )
        p.add_argument("--seed", type=int, default=None, help=_ECHOED)
        p.add_argument("--samples", type=_samples, default=7, help=_ECHOED)
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="omit the timestamp so output is byte-stable",
        )
        p.add_argument("--plain", action="store_true", help="human table instead of JSON")

    p = sub.add_parser("analyze", help="full report: phi, r, e(A), j, core, equivalences")
    common(p)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("fiber", help="fiber of the map over a point")
    common(p, point=True)
    p.set_defaults(run=cmd_fiber)

    p = sub.add_parser("reparam", help="reparameterize to a birational map")
    common(p)
    p.set_defaults(run=cmd_reparam)

    p = sub.add_parser("core", help="core of the ideal via the closed form")
    common(p)
    p.set_defaults(run=cmd_core)

    p = sub.add_parser("selftest", help="run the invariant suite over generated corpora")
    p.add_argument(
        "--d-max",
        type=_int_in(1, MAX_SWEEP_DEGREE),
        default=8,
        help="exhaustive monomial sweep bound",
    )
    p.add_argument(
        "--corpus-size", type=_int_in(0, MAX_CORPUS_SIZE), default=25, help="random corpus size"
    )
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad usage and on --help; keep main() total
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _COMPUTE_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
