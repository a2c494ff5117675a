"""Benchmark of curvemap commands, run in-process through curvemap.cli.main.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-prime --seed 1 --seconds 25 --trace 0

Set-up imports curvemap from src/, builds the seeded instances of the
workload, writes them as instance files (or reads back the ones an earlier
repeat wrote) and runs one warm-up command; it is repeated SETUP_REPEATS
times and its median is setup_s.  The timed pass then runs whole rounds of
the workload's command list until the next round would pass --seconds, and
at least MIN_COMMANDS commands.  Every output of the first round is checked
by checks.py; every later round must repeat it byte for byte.  With
--trace 0 the pass is untraced and the end-to-end metrics are reported; with
--trace 1 it runs under tracing.Tracer and the per-layer metrics are
reported.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 9
# enough commands per pass that at least ten lie beyond cmd_p90_ms
MIN_COMMANDS = 100
# Machine-speed gauge.  A shared 2-CPU box runs the same code 20-40 % faster
# or slower in spells of about ten seconds, which no affordable run length
# averages out.  So after every command the pass times probe(), a fixed piece
# of pure-Python integer work, and each command time is scaled by
# PROBE_MS / (median of the probes within PROBE_WINDOW commands of it): the
# reported times are those at the speed where probe() takes PROBE_MS, its
# typical time on a 2-CPU x86-64 sandbox.  The raw times are in the results
# file and printed beside.
PROBE_MS = 0.72
PROBE_WINDOW = 10
_PROBE_MODULUS = 2147483647


def fresh_import():
    """Import curvemap.cli from src/, dropping any earlier import of the package."""
    for name in [k for k in sys.modules if k == "curvemap" or k.startswith("curvemap.")]:
        del sys.modules[name]
    cli = importlib.import_module("curvemap.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"curvemap imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list):
    """(exit code or exception text, stdout) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except Exception:  # a crash is a failed command, not a benchmark error
            status = traceback.format_exc(limit=-3)
    return status, out.getvalue()


def set_up(workload: str, seed: int, work: Path):
    """Import, instance generation and files, and one warm-up command."""
    from workloads import WORKLOADS

    cli = fresh_import()
    commands = WORKLOADS[workload](seed)
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in commands:
        inst = cmd.inst
        if inst.name not in paths:
            path = work / f"{inst.name}.txt"
            text = inst.text()
            # only a changed file is rewritten, so the repeats of one run read
            # the files back; rewriting hundreds of files churns the file
            # system and made set-up times drift upward from run to run
            if not path.is_file() or path.read_text() != text:
                path.write_text(text)
            paths[inst.name] = str(path)
    argvs = [cmd.argv(paths[cmd.inst.name]) for cmd in commands]
    call(cli, argvs[0])
    return cli, commands, argvs


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python integer work."""
    t0 = perf_counter()
    a = list(range(1, 200))
    for _ in range(6):
        b = [x * 7919 % _PROBE_MODULUS for x in a]
        sum(x * y % _PROBE_MODULUS for x, y in zip(a, b))
        d = dict(enumerate(b))
        a = [d[i] + 1 for i in range(len(b))]
    return perf_counter() - t0


@dataclass
class Pass:
    times: list = field(default_factory=list)  # seconds per command, in run order
    probes: list = field(default_factory=list)  # seconds of the probe after each command
    failures: list = field(default_factory=list)  # (argv, status) of failed commands
    first: list = field(default_factory=list)  # (status, stdout) of the first round
    drift: int = 0  # later-round outputs that differ from the first round's
    rounds: int = 0
    elapsed: float = 0.0

    def scaled_times(self) -> list:
        """Command times at the reference machine speed (see PROBE_MS)."""
        out = []
        for i, t in enumerate(self.times):
            window = self.probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
            out.append(t * PROBE_MS / 1e3 / statistics.median(window))
        return out


def timed_pass(cli, argvs: list, seconds: float) -> Pass:
    """Whole rounds of the command list, stopped before a round would pass `seconds`.

    At least one round and at least MIN_COMMANDS commands are always run.
    """
    p = Pass()
    start = perf_counter()
    while True:
        for k, argv in enumerate(argvs):
            t0 = perf_counter()
            status, out = call(cli, argv)
            p.times.append(perf_counter() - t0)
            p.probes.append(probe())
            if status != 0:
                p.failures.append((argv, status))
            if p.rounds == 0:
                p.first.append((status, out))
            elif out != p.first[k][1]:
                p.drift += 1
        p.rounds += 1
        p.elapsed = perf_counter() - start
        if len(p.times) >= MIN_COMMANDS and p.elapsed * (p.rounds + 1) / p.rounds > seconds:
            return p


def check_outputs(workload: str, commands: list, first: list) -> list:
    """Problems found by the independent checks in the first round's outputs."""
    from checks import CHECKS

    problems = []
    for cmd, (status, out) in zip(commands, first):
        if status != 0:
            continue
        try:
            CHECKS[(workload, cmd.kind)](json.loads(out), cmd)
        except Exception as exc:  # a malformed report fails its check, it does not end the run
            problems.append(f"{cmd.kind} {cmd.inst.name}: {type(exc).__name__}: {exc}")
    return problems


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "curvemap" / "__init__.py").is_file():
        print(f"error: no curvemap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  -- a dependency, loaded once outside set-up

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH_DIR / "_work" / f"{tag}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            cli, commands, argvs = set_up(args.workload, args.seed, work)
            setups.append(perf_counter() - t0)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer.installed():
                p = timed_pass(cli, argvs, args.seconds)
        else:
            p = timed_pass(cli, argvs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    problems = check_outputs(args.workload, commands, p.first)
    if p.drift:
        problems.append(f"{p.drift} outputs of later rounds differ from the first round")
    raw_ms = sorted(t * 1e3 for t in p.times)
    ms = sorted(t * 1e3 for t in p.scaled_times())
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cmds_per_s": {"value": len(ms) / sum(ms) * 1e3, "unit": "1/s"},
            "cmd_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "cmd_p90_ms": {"value": statistics.quantiles(ms, n=10)[-1], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics()

    summary = {
        "correct": not problems,
        "attempted": len(p.times),
        "failed": len(p.failures),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": p.rounds,
        "commands_per_round": len(argvs),
        "seconds": p.elapsed,
        "setup_runs_s": setups,
        "command_ms": [t * 1e3 for t in p.times],
        "probe_ms": [t * 1e3 for t in p.probes],
        "problems": problems,
        "failures": [{"argv": a[:1] + a[2:], "status": str(s)} for a, s in p.failures],
        "spans": None if tracer is None else {k: dict(v) for k, v in sorted(tracer.stats.items())},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {p.rounds} rounds x "
        f"{len(argvs)} commands in {p.elapsed:.2f} s; attempted {len(p.times)}, "
        f"failed {len(p.failures)}; unscaled {len(raw_ms) / sum(raw_ms) * 1e3:.2f} cmds/s, "
        f"p50 {statistics.median(raw_ms):.2f} ms, p90 {statistics.quantiles(raw_ms, n=10)[-1]:.2f} ms; "
        f"median probe {statistics.median(p.probes) * 1e3:.3f} ms"
    )
    for line in problems[:10]:
        print(f"check failed: {line}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
