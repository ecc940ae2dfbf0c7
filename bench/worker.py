"""Run one pass of certmap CLI commands, each in a fresh forked process.

    python3 bench/worker.py PASS.json

PASS.json holds {"commands": [[label, argv], ...], "trace": 0 or 1,
"dir": output directory}. The worker imports the package once (timed), then
forks one child per command. A child starts from a process that has imported
certmap but run none of it, as a shell-launched command does, so no cache a
command builds can serve a later command or pass. The child times its call
into `certmap.cli.main` and, when tracing, records spans of the layers.

Results go to PASS.result.json: the import time and, per command, the exit code, wall time, peak resident memory (the child's own or
its fork-pool workers', whichever is larger) and counters. Spans go to
<dir>/<label>.spans.tsv.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_command(cli, argv, trace, spans_path, result_path):
    """Body of a forked child: run one CLI command and write its result."""
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    def call():
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1

    t0 = time.perf_counter()
    rc = tracer.span(f"cli.{argv[0]}", call) if tracer else call()
    wall_s = time.perf_counter() - t0
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer:
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall_s, "peak_rss_mb": kib / 1024.0,
                   "counts": dict(tracer.counts) if tracer else {}}, fh)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    out_dir = Path(spec["dir"])
    t0 = time.perf_counter()
    from certmap import cli
    import_s = time.perf_counter() - t0

    results = []
    for label, argv in spec["commands"]:
        spans_path = out_dir / f"{label}.spans.tsv"
        result_path = out_dir / f"{label}.result.json"
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                run_command(cli, argv, spec["trace"], spans_path, result_path)
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) == 0 and result_path.exists():
            with open(result_path) as fh:
                res = json.load(fh)
        else:
            res = {"rc": -1, "wall_s": 0.0, "peak_rss_mb": 0.0, "counts": {}}
        res["spans"] = str(spans_path) if spec["trace"] else None
        results.append(res)

    with open(Path(spec_path).with_suffix(".result.json"), "w") as fh:
        json.dump({"import_s": import_s, "commands": results}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
