"""Run one germkit CLI command in this process, timing the host's speed around it.

    python3 perfbench/launch.py SPEED_FILE STATS_FILE ARGS...

ARGS are passed to germkit.cli.main; its stdout and exit code are this
process's, as with `python -m germkit.cli ARGS`.  The host-speed kernel
(hostspeed.py) is timed before germkit is imported, during the command
and after it returns, in this process and so on the CPU that runs the
job.  SPEED_FILE receives, as JSON, the kernel times and the time the
probes took, so that the caller can scale the job's latency and leave
the probes out of it.  STATS_FILE is "-" for an untraced run; otherwise
the per-layer tracer wraps the command and its raw counters are written
there.  The oracle-cold workload starts every child through this file.
"""

import json
import sys
import time
from pathlib import Path

import hostspeed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    speed, stats, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    before = hostspeed.probe()
    with hostspeed.Sampler() as sampler:
        t0 = hostspeed.now()
        import germkit.cli

        tracer = None
        if stats != "-":
            import layers

            tracer = layers.Tracer()
            tracer.install()
        try:
            code = germkit.cli.main(argv)
        finally:
            if tracer:
                tracer.uninstall()
                tracer.finish()
                Path(stats).write_text(json.dumps(tracer.raw))
            sys.stdout.flush()
            job_s = hostspeed.now() - t0
    after = hostspeed.probe()
    record = {"kernel": [before, *sampler.samples, after], "overhead_s": time.perf_counter() - start - job_s}
    Path(speed).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
