"""One workload's long-lived worker process.

The harness starts one of these per workload, so each workload's state
(imported modules, translator caches, service roots) is isolated, and
talks to it in JSON lines: a request on stdin, one reply on stdout.
Set-up — imports, inputs, scratch directories and one untimed warm-up
operation — happens before the ``ready`` reply; the harness times it
from process start.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path

from spans import SpanRecorder
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited
    for (Linux reports kilobytes)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def failure(exc: BaseException) -> dict:
    """The reply for a request that raised: counted, never fatal."""
    traceback.print_exc()
    return {"ok": False, "why": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    # Replies go to a private copy of stdout; anything the program under
    # test prints lands on stderr instead of corrupting the protocol.
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    config = json.loads(sys.stdin.readline())
    tmp = Path(config["tmp"])
    try:
        workload = WORKLOADS[config["workload"]](
            config["seed"], tmp, config["smoke"])
    except Exception as exc:
        reply({**failure(exc), "fatal": True})
        return 1
    # The warm-up operation fills lazy caches; if it fails, so will the
    # measured ones, and those are the ones that get counted.
    try:
        workload.op(None)
    except Exception as exc:
        failure(exc)
    reply({"ok": True, "fatal": False})

    recorder = SpanRecorder()
    op_id = 0
    for line in sys.stdin:
        request = json.loads(line)
        command = request["cmd"]
        try:
            if command == "op":
                op_id += 1
                recorder.begin_op(op_id)
                reply(workload.op(recorder if request["traced"] else None))
            elif command == "anatomy":
                # Imported on demand so that an untraced worker's
                # set-up is only what its workload imports.
                from probes import anatomy
                op_id += 1
                recorder.begin_op(op_id)
                reply({"ok": True, "metrics": anatomy(workload, recorder)})
            elif command == "probes":
                from probes import run_probes
                reply({"ok": True, "metrics": run_probes(
                    config["seed"], tmp, config["smoke"])})
            elif command == "exit":
                reply({"ok": True, "rss_mb": peak_rss_mb(),
                       "spans": recorder.spans})
                return 0
            else:
                raise ValueError(f"unknown command {command!r}")
        except Exception as exc:
            reply(failure(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
