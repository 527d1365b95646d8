"""Rewrite reference_digests.json from the current program's output.

    python3 perfbench/make_reference.py

Runs every cli-verify invocation of the default seed (0) as a subprocess
and stores the sha256 of its stdout (for `bench`, without the wall-time
columns).  Run it only when a change to the CLI's output is intended, and
say so in the change.
"""

import json
import sys

import workloads


def main() -> int:
    wl = workloads.CliVerify()
    digests = {}
    for argv in wl.decode(wl.generate(0)):
        rc, out, err = wl.run_subprocess(argv)
        if rc != 0:
            print(f"{' '.join(argv)} exited with {rc}: {err}", file=sys.stderr)
            return 1
        digests[json.dumps(argv)] = workloads.digest(argv, out)
    workloads.REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.REFERENCE_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
