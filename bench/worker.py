"""A process that builds inputs and runs jobs on request, timing each.

    python3 bench/worker.py --package src|baseline

``src`` loads the program under test (this checkout's ``src/defcolor``);
``baseline`` loads the frozen copy in ``bench/baseline/defcolor``, the
reference that timed runs measure the machine's speed with (README.md,
"Machine-speed scaling").  Requests and replies are JSON lines on stdin
and stdout; the worker ends at end of input.

    {"op": "build", "workload": W, "seed": N, "out": DIR or null}
        -> {"build_s": seconds, "digest": sha256 of the documents}
        (with "out", also writes the documents there: inputs.build)
    {"op": "job", "argvs": [[...], ...]}
        -> {"latency": seconds, "codes": [...], "stdout": ..., "stderr": ...,
            "error": null or the exception}  (run_job)
    {"op": "rss"} -> {"peak_rss_mb": this process's peak resident memory}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import inputs

PACKAGES = {"src": inputs.ROOT / "src",
            "baseline": Path(__file__).resolve().parent / "baseline"}


def run_job(argvs: list[list[str]]) -> dict:
    """Run the command lines in turn, stopping after a non-zero exit."""
    from defcolor import cli  # looked up per job, so tracing can rebind main
    out = io.StringIO()
    err = io.StringIO()
    codes = []
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in argvs:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
    except Exception as exc:  # reported, so the job counts as failed
        error = f"{type(exc).__name__}: {exc}"
    return {"latency": time.perf_counter() - start, "codes": codes,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        if req["op"] == "build":
            out = Path(req["out"]) if req["out"] else None
            build_s, digest = inputs.build(req["workload"], req["seed"], out)
            reply = {"build_s": build_s, "digest": digest}
        elif req["op"] == "job":
            reply = run_job(req["argvs"])
        elif req["op"] == "rss":
            reply = {"peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        else:
            raise ValueError(f"unknown request {req['op']!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--package", required=True, choices=PACKAGES)
    args = parser.parse_args(argv)
    inputs.load_package(PACKAGES[args.package])
    serve(sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
