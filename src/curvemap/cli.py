"""Command-line front end: instance files in, JSON or plain-text reports out.

Exit codes: 0 success, 1 invalid input, 2 a computation failed one of its
certificates (resampling with another seed or a larger prime usually fixes
it), 3 self-test failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .analysis import Analysis
from .errors import (
    CertificationFailed,
    DegreeMismatch,
    InstanceError,
    NotMonomial,
    ResamplingExhausted,
    SlopeNotStabilized,
    ZeroIdeal,
    ZeroRow,
)
from .field import DEFAULT_PRIME, QQ, PrimeField
from .fiber import fiber
from .forms import ProjPointN, parse_form
from .param import Parameterization
from .reparam import core_ideal, reparameterize
from .selftest import run_selftest
from .syzygy import hilbert_burch

_INPUT_ERRORS = (InstanceError, ZeroIdeal, DegreeMismatch, NotMonomial)
_COMPUTE_ERRORS = (CertificationFailed, ResamplingExhausted, ZeroRow, SlopeNotStabilized)


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
        key = line.split(":", 1)[0].strip().lower()
        if key == "field":
            if field is not None:
                raise InstanceError(f"line {lineno}: duplicate field line")
            field = _parse_field_spec(line.split(":", 1)[1].strip())
            continue
        if key == "seed":
            try:
                seed = int(line.split(":", 1)[1].strip())
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}")
    return parse_instance(text)


def _parse_scalar(field, text: str):
    try:
        return field.conv(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"bad coordinate {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _effective_seed(args, instance_seed: int) -> int:
    return instance_seed if args.seed is None else args.seed


def _emit(args, report: dict, renderer) -> int:
    if not args.deterministic:
        report["generatedAt"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    if args.plain:
        renderer(report)
    else:
        print(json.dumps(report, indent=2))
    return 0


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


def cmd_analyze(args) -> int:
    field, seed, P = load_instance(args.instance)
    seed = _effective_seed(args, seed)
    analysis = Analysis(P, seed=seed, samples=args.samples)
    report = {"command": "analyze", **analysis.report()}
    return _emit(args, report, _plain_analyze)


def cmd_fiber(args) -> int:
    field, seed, P = load_instance(args.instance)
    seed = _effective_seed(args, seed)
    coords = [_parse_scalar(field, s) for s in args.point.split(":")]
    if len(coords) != P.n:
        raise InstanceError(
            f"the point has {len(coords)} coordinates but the map has {P.n}"
        )
    p = ProjPointN.of(field, coords)
    report = {
        "command": "fiber",
        "field": field.json_config(),
        "seed": seed,
        "generators": P.gen_strings(),
        **fiber(P, hilbert_burch(P), p).to_json(),
    }
    return _emit(args, report, _plain_fiber)


def cmd_reparam(args) -> int:
    field, seed, P = load_instance(args.instance)
    seed = _effective_seed(args, seed)
    result = reparameterize(P, hilbert_burch(P), seed=seed, samples=args.samples)
    report = {
        "command": "reparam",
        "field": field.json_config(),
        "seed": seed,
        "generators": P.gen_strings(),
        **result.to_json(),
    }
    if result.r == 1:
        report["note"] = (
            "r = 1: the map is already birational; the new variables are "
            "a linear change of coordinates"
        )
    return _emit(args, report, _plain_reparam)


def cmd_core(args) -> int:
    field, seed, P = load_instance(args.instance)
    seed = _effective_seed(args, seed)
    result = core_ideal(P, hilbert_burch(P), seed=seed, samples=args.samples)
    report = {
        "command": "core",
        "field": field.json_config(),
        "seed": seed,
        "generators": P.gen_strings(),
        **result.to_json(),
    }
    return _emit(args, report, _plain_core)


def cmd_selftest(args) -> int:
    field = PrimeField(DEFAULT_PRIME)
    summary = run_selftest(
        field,
        d_max=args.d_max,
        corpus_size=args.corpus_size,
        seed=0 if args.seed is None else args.seed,
        samples=args.samples,
    )
    return 0 if summary.ok else 3


class _Parser(argparse.ArgumentParser):
    # bad usage is an input error, exit 1 like every other one
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


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
        p.add_argument("--seed", type=int, default=None, help="override the instance seed")
        p.add_argument(
            "--samples",
            type=_positive_int,
            default=7,
            help="random fiber samples behind map degree (default 7)",
        )
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
    p.add_argument("--d-max", type=int, default=8, help="exhaustive monomial sweep bound")
    p.add_argument("--corpus-size", type=int, default=25, help="random corpus size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_positive_int, default=7)
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
