#!/usr/bin/env python3
"""Writes a `host` block into google-benchmark JSON files.

    python3 tools/stamp_bench_host.py BUILD_DIR FILE.json [FILE.json ...]

The block is the one `e2ebench/run.py` prints for its own runs, computed
by the same function: nproc, build_type and compiler (of BUILD_DIR, the
build that ran the rows), git_head and kernel. git_head gets "-dirty"
appended when tracked files differ from the commit, i.e. when the rows
were recorded on uncommitted changes. tools/compare_bench.py refuses to
compare two files whose blocks differ in anything but git_head. Run
from the root of the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Import without leaving a bytecode cache in the benchmark's directory.
sys.dont_write_bytecode = True
sys.path.insert(0, str(REPO / "e2ebench"))
from run import host_block  # noqa: E402


def tracked_files_changed() -> bool:
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return out.returncode == 0 and bool(out.stdout.strip())


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    host = host_block(str(REPO), sys.argv[1])
    if host["git_head"] != "unknown" and tracked_files_changed():
        host["git_head"] += "-dirty"
    for path in sys.argv[2:]:
        with open(path) as f:
            data = json.load(f)
        data["host"] = host
        with open(path, "w") as f:
            json.dump(data, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
