#!/usr/bin/env python3
"""Record the sha256 of the sweep CSVs the benchmark checks against.

Each CSV comes from plain ``python3 -m speedsched.cli`` in a child process,
so the digests also pin that the benchmark's in-process jobs print the same
bytes as the user's command.  Run once, from the repository root, on a commit
whose CSVs are known good:

    python3 perfbench/record_digests.py

It writes ``perfbench/digests.json`` for every job of the sweep workloads'
corpora, so every sweep job the benchmark runs is checked byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from run import DIGESTS_FILE, ROOT, SRC, WORKLOADS


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    digests: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        if workload.shape is None:
            continue
        digests[name] = {}
        for k in range(workload.corpus):
            s = k * workload.seed_step
            argv = [sys.executable, "-m", "speedsched.cli", *workload.argv(s, ROOT)]
            out = subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True).stdout
            digests[name][str(s)] = hashlib.sha256(out).hexdigest()
            print(name, s, digests[name][str(s)], flush=True)
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
