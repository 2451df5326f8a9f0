"""Small launcher that runs benchmark commands and reports their rusage.

On Linux a child's ``ru_maxrss`` starts from the RSS of the process that
forked it, so commands are forked from this process, which stays small,
rather than from the benchmark, which holds generated corpora and numpy.
Wall time and peak RSS come from ``os.wait4`` on each child.

Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": str, "stdout": path, "stderr": path}``, answered by
one JSON line ``{"status": int, "wall_s": float, "maxrss_kb": int}``. The
launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out,
                                     stderr=err, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"status": child.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
