"""Tests of the benchmark itself: its checks catch wrong reports, tracing changes no output.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import algebra  # noqa: E402
import run  # noqa: E402
from checks import CHECKS, CheckFailed  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def sample(commands, per_kind=2, limit=8):
    """A few commands of each kind, small instances first."""
    out, seen = [], {}
    for cmd in sorted(commands, key=lambda c: (c.inst.d, c.inst.n)):
        if seen.get(cmd.kind, 0) < per_kind:
            seen[cmd.kind] = seen.get(cmd.kind, 0) + 1
            out.append(cmd)
    return out[:limit]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: [(command, argv, stdout)]} for a small sample of every workload."""
    got = {}
    for name in WORKLOADS:
        cli, commands, argvs = run.set_up(name, SEED, tmp_path_factory.mktemp(name))
        argv_of = {id(c): a for c, a in zip(commands, argvs)}
        rows = []
        for cmd in sample(commands):
            status, out = run.call(cli, argv_of[id(cmd)])
            assert status == 0, (cmd.kind, cmd.inst.name, status)
            rows.append((cmd, argv_of[id(cmd)], out))
        got[name] = rows
    return got


def report(outputs, workload, kind):
    for cmd, _, out in outputs[workload]:
        if cmd.kind == kind:
            return cmd, json.loads(out)
    raise LookupError(kind)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_accept_program_output(outputs, workload):
    for cmd, _, out in outputs[workload]:
        CHECKS[(workload, cmd.kind)](json.loads(out), cmd)


def _bump_phi_coefficient(rep, F):
    """Add one to a coefficient of the first nonzero entry of phi."""
    matrix = rep["phi"]["matrix"]
    i, j = next((i, j) for i, row in enumerate(matrix) for j, s in enumerate(row) if s != "0")
    f = algebra.parse_form(F, matrix[i][j])
    f[-1] = F.add(f[-1], F.one)
    matrix[i][j] = algebra.fmt(F, f)


@pytest.mark.parametrize("workload", ["dense-prime", "rational", "monomial-sweep"])
def test_checks_reject_changed_phi_coefficient(outputs, workload):
    cmd, rep = report(outputs, workload, "analyze")
    _bump_phi_coefficient(rep, cmd.inst.F)
    with pytest.raises(CheckFailed):
        CHECKS[(workload, "analyze")](rep, cmd)


@pytest.mark.parametrize("workload", ["dense-prime", "rational", "monomial-sweep"])
def test_checks_reject_r_off_by_one(outputs, workload):
    cmd, rep = report(outputs, workload, "analyze")
    rep["r"] += 1
    with pytest.raises(CheckFailed):
        CHECKS[(workload, "analyze")](rep, cmd)


def test_checks_reject_wrong_hilbert_function(outputs):
    cmd, rep = report(outputs, "monomial-sweep", "analyze")
    rep["hfA"][-1] += 1
    with pytest.raises(CheckFailed):
        CHECKS[("monomial-sweep", "analyze")](rep, cmd)


def test_checks_reject_fiber_times_a_linear_factor(outputs):
    cmd, rep = report(outputs, "composed", "fiber")
    F = cmd.inst.F
    f = algebra.parse_form(F, rep["fiberForm"])
    # x - (t + 1) y does not vanish at (t : 1): only the gcd comparison can catch it
    rep["fiberForm"] = algebra.fmt(F, algebra.mul(F, f, [F.one, F.sub(F.zero, F.add(cmd.t, F.one))]))
    rep["fiberDegree"] += 1
    with pytest.raises(CheckFailed):
        CHECKS[("composed", "fiber")](rep, cmd)


def test_checks_reject_wrong_reparameterization(outputs):
    cmd, rep = report(outputs, "composed", "reparam")
    F = cmd.inst.F
    g = algebra.parse_form(F, rep["newGens"][0], ("X", "Y"))
    g[0] = F.add(g[0], F.one)
    rep["newGens"][0] = algebra.fmt(F, g, ("X", "Y"))
    with pytest.raises(CheckFailed):
        CHECKS[("composed", "reparam")](rep, cmd)


def test_checks_reject_a_missing_core_generator(outputs):
    cmd, rep = report(outputs, "composed", "core")
    rep["coreGens"].pop()
    with pytest.raises(CheckFailed):
        CHECKS[("composed", "core")](rep, cmd)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_reports_are_byte_identical(outputs, workload):
    rows = outputs[workload]
    cli = sys.modules["curvemap.cli"]  # set_up re-imports; trace the current import
    tracer = Tracer()
    fiber_module = sys.modules["curvemap.fiber"]
    original = fiber_module.fiber
    with tracer.installed():
        assert sys.modules["curvemap.cli"].fiber is not original
        traced = [run.call(cli, argv) for _, argv, _ in rows]
    assert sys.modules["curvemap.cli"].fiber is original
    assert [out for _, out in traced] == [out for _, _, out in rows]
    assert all(status == 0 for status, _ in traced)
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["syzygy.hilbert_burch.calls"]["value"] >= len(rows)
    assert metrics["cli.main.self_ms"]["value"] > 0


def test_tracer_counts_rational_linear_algebra_only_over_qq(outputs):
    for workload, expect_rational in (("rational", True), ("dense-prime", False)):
        rows = outputs[workload]
        cli = sys.modules["curvemap.cli"]
        tracer = Tracer()
        with tracer.installed():
            run.call(cli, rows[0][1])
        assert (tracer.metrics()["linalg.rational.calls"]["value"] > 0) == expect_rational


def test_scaled_times_follow_the_speed_probe():
    ref = run.PROBE_MS / 1e3
    steady = run.Pass(times=[0.010, 0.020, 0.030], probes=[ref] * 3)
    assert steady.scaled_times() == pytest.approx([0.010, 0.020, 0.030])
    slow = run.Pass(times=[0.020, 0.040, 0.060], probes=[2 * ref] * 3)
    assert slow.scaled_times() == pytest.approx([0.010, 0.020, 0.030])


def test_run_prints_one_json_result(tmp_path):
    # a copy of the checkout, so that results written by the run stay out of the tree
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rational", "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "cmds_per_s", "cmd_p50_ms", "cmd_p90_ms", "peak_rss_mb"}
    assert not (tmp_path / "perfbench" / "_work").exists()


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rational", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
