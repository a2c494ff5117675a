"""Every --deterministic report of the benchmark workloads, byte for byte.

The four workloads of perfbench/workloads.py at seeds 1-3 make 1023
commands, 341 per seed.  Each runs in process through cli.main, and the
sha256 of its exit code and stdout must equal the one recorded in
tests/data/report_hashes.json, which maps each seed to its hashes.  A change
that alters any report, even by one byte, fails here.

The workloads module is only imported, never changed.  To record new hashes
after an intended report change, run from the repository root:

    PYTHONPATH=src python3 tests/test_report_contract.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HASHES = ROOT / "tests" / "data" / "report_hashes.json"
SEEDS = (1, 2, 3)
COMMANDS_PER_SEED = 341

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

from curvemap import cli  # noqa: E402


def report_hashes(work: Path, seed: int) -> dict:
    """{workload/index kind instance: sha256 of exit code and stdout}."""
    out = {}
    for name, build in WORKLOADS.items():
        folder = work / f"{seed}-{name}"
        folder.mkdir()
        for k, cmd in enumerate(build(seed)):
            path = folder / f"{cmd.inst.name}.txt"
            if not path.exists():
                path.write_text(cmd.inst.text())
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(cmd.argv(str(path)))
            text = f"{status}\n{buf.getvalue()}"
            out[f"{name}/{k:03d} {cmd.kind} {cmd.inst.name}"] = hashlib.sha256(
                text.encode()
            ).hexdigest()
    return out


def test_reports_match_recorded_hashes(tmp_path):
    recorded = json.loads(HASHES.read_text())
    assert sorted(recorded) == [str(seed) for seed in SEEDS]
    for seed in SEEDS:
        want = recorded[str(seed)]
        got = report_hashes(tmp_path, seed)
        assert len(got) == COMMANDS_PER_SEED
        assert sorted(got) == sorted(want)
        changed = [key for key in want if got[key] != want[key]]
        assert not changed, f"seed {seed}: {len(changed)} reports changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {str(seed): report_hashes(Path(tmp), seed) for seed in SEEDS}
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, hashes.values()))} hashes to {HASHES}")
