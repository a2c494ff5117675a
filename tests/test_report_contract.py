"""Every --deterministic report of the benchmark workloads, byte for byte.

The four workloads of perfbench/workloads.py at seed 1 make 341 commands.
Each runs in process through cli.main, and the sha256 of its exit code and
stdout must equal the one recorded in tests/data/report_hashes.json.  A
change that alters any report, even by one byte, fails here.

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
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

from curvemap import cli  # noqa: E402


def report_hashes(work: Path) -> dict:
    """{workload/index kind instance: sha256 of exit code and stdout}."""
    out = {}
    for name, build in WORKLOADS.items():
        folder = work / name
        folder.mkdir()
        for k, cmd in enumerate(build(SEED)):
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
    want = json.loads(HASHES.read_text())
    got = report_hashes(tmp_path)
    assert len(got) == 341
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = report_hashes(Path(tmp))
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {HASHES}")
