"""Runs the ``cli-readme`` commands from a small process of its own.

Reads one JSON request per line on standard input, ``{"argv": [...], "cwd":
"..."}``, runs it to its end and answers one JSON line ``{"code", "stdout",
"stderr"}``.  An empty line or the end of input ends the loop; it then answers
``{"peak_child_mb": ...}``, the largest resident-set high-water mark among the
commands it ran.

On Linux a child keeps, through ``exec``, the high-water mark of the process
that started it.  This launcher imports nothing heavy, so that floor is a bare
interpreter's, far below a mosk process's; started from the benchmark process,
which has numpy and mosk loaded, every child would read at least its peak.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        if not line.strip():
            break
        req = json.loads(line)
        proc = subprocess.run(req["argv"], cwd=req["cwd"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        print(json.dumps({"code": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr}), flush=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"peak_child_mb": peak_mb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
