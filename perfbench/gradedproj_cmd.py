"""Run one `gradedproj` command line, as the installed console script does.

    python3 perfbench/gradedproj_cmd.py refine --dim 2 --out out/refine

With PERFBENCH_CLI_TIMES set, it also writes the seconds spent importing
gradedproj.cli and inside main() to that file (traced benchmark passes only).
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
from gradedproj.cli import main  # noqa: E402

t1 = time.perf_counter()
code = main()
t2 = time.perf_counter()
times_path = os.environ.get("PERFBENCH_CLI_TIMES")
if times_path:
    with open(times_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t2 - t1}, fh)
sys.exit(code)
