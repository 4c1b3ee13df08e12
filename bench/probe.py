"""Set-up probe: import mdee and parse the workload's config, then say so.

run.py times a fresh interpreter running this file up to its "ready" line;
that span is the set-up a user of `mdee run` or `mdee oracle` waits for
before the first trial or replication.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from mdee import cli, harness  # noqa: E402,F401  (cli imports every layer)

if len(sys.argv) > 1:
    harness.load_config(sys.argv[1])
print("ready", flush=True)
