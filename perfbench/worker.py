"""One measured run in a fresh process: `python3 perfbench/worker.py JOB.json`.

The job file names the argv for `wavetank.cli.main` (null for an import-only
run), whether to trace, and where to write the result.  Timed regions:

    setup_s      import wavetank.cli (numpy included)
    run_s        wavetank.cli.main(argv), from call to return
    cpu_s        user + system CPU of the process (all threads) during main
    peak_rss_mb  the process's peak resident set (VmHWM), read as main returns

VmHWM belongs to the process's own address space.  ru_maxrss is not used: on
Linux it carries over the parent's peak through fork and exec.

Output checks happen in the parent, after this process has exited.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.perf_counter()
    import wavetank.cli as cli

    result = {"setup_s": time.perf_counter() - t0, "module": cli.__file__}
    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            import spans

            tracer = spans.Tracer(job["run_id"])
            tracer.install()
        c0 = _cpu()
        t0 = time.perf_counter()
        code = cli.main(list(job["argv"]))
        run_s = time.perf_counter() - t0
        cpu_s = _cpu() - c0
        result.update(exit_code=code, run_s=run_s, cpu_s=cpu_s, peak_rss_mb=_peak_rss_mb())
        if tracer is not None:
            result["spans"] = tracer.spans
    tmp = Path(job["result"] + ".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
