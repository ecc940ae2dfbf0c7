"""certmap benchmark: one workload, timed through the CLI, outputs checked.

    python3 bench/run.py --workload e2e-default --seed 1 --seconds 34 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src`. The run

1. sets up the workload's inputs from the seed five times (the median of
   the five, plus the median import time of the package, is `setup_s`);
2. runs passes of the workload's certmap commands through
   `certmap.cli.main`, each command in a process of its own (see worker.py),
   until `--seconds` is spent (at least two passes, so outputs can be
   compared bit for bit);
3. checks every pass's outputs against the output contract;
4. prints one line per metric and, as the last line, a JSON object with
   `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With `--trace 1` untraced and traced passes
alternate; the metrics are the per-layer metrics, from the traced passes'
spans plus kernel probes, and `trace.overhead_frac` compares the two kinds.
Scratch files and the spans of the last run go to `.bench_work/` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 160.0  # for the passes; checks and probes follow
SETUP_REPS = 5
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(commands, out, traced, log, deadline):
    """One pass in its own worker process; returns (import seconds, one result
    dict per command). A worker that dies or runs past the deadline fails
    every command."""
    spec = out / "pass.json"
    with open(spec, "w") as fh:
        json.dump({"commands": commands, "trace": int(traced), "dir": str(out)}, fh)
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec)],
                            cwd=ROOT, stdout=log, stderr=log, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the forked commands and their pool workers share the session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    result = spec.with_suffix(".result.json")
    if proc.returncode != 0 or not result.exists():
        return 0.0, [{"rc": -1, "wall_s": 0.0, "peak_rss_mb": 0.0, "counts": {},
                      "spans": None}] * len(commands)
    with open(result) as fh:
        res = json.load(fh)
    return res["import_s"], res["commands"]


def median(values):
    return statistics.median(values) if values else 0.0


def probe(fn, reps):
    """Median wall time of reps calls of fn."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(seed):
    """special and thresholding kernels at fixed sizes, outside the CLI."""
    import numpy as np
    from certmap import special, thresholding
    from workloads import CertaintyMaps, NU

    x = np.linspace(-10.0, 60.0, 64)
    out = {f"special.nct_cdf_us.d{d}": 1e6 * probe(lambda: special.nct_cdf(x, NU, float(d)), 5)
           for d in (1, 3, 50)}
    out["special.moment_table_s"] = probe(lambda: special.LogMomentTable(NU), 3)

    # threshold_with_frontier without taus runs its own per-voxel tau loop;
    # probe it on the first voxels of the certainty-maps mix for this seed
    probe_dir = ROOT / ".bench_work" / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    w = CertaintyMaps(seed, probe_dir)
    w.setup()
    k = 40
    fits = types.SimpleNamespace(n_masked=k, lam=w.lam[:k], delta=w.delta[:k], dims=(k, 1, 1),
                                 mask=np.ones((1, 1, k), dtype=bool))
    t = probe(lambda: thresholding.threshold_with_frontier(fits, w.composite[:k], NU), 1)
    out["thresholding.frontier_decisions_us_per_voxel"] = 1e6 * t / k
    return out


def layer_metrics(passes, parent_spans, counts_by_pass, quality, probes):
    """Per-layer metrics from the traced passes: times and counts per pass,
    costs per unit of work, self time per layer."""
    from tracing import LAYERS, read_spans, self_times

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    k = max(1, len(traced))  # a run cut short by the deadline may lack one
    spans = []
    self_s = dict.fromkeys(LAYERS, 0.0)
    for p in traced:
        for r in p["workers"]:
            if r["spans"] is not None and os.path.exists(r["spans"]):
                # span ids are per command, so self times are too
                one = read_spans(r["spans"])
                for layer, s in self_times(one).items():
                    self_s[layer] += s
                spans.extend(one)

    def total(name, source=spans):
        return sum(e - s for _, _, n, s, e, _ in source if n == name)

    def work(name, source=spans):
        return sum(w for _, _, n, _, _, w in source if n == name)

    def per(name, source=spans):
        """Microseconds per unit of work of the named spans."""
        denom = work(name, source)
        return 1e6 * total(name, source) / denom if denom else 0.0

    counts = {}
    for p in traced:
        for r in p["workers"]:
            for key, v in r["counts"].items():
                counts[key] = counts.get(key, 0) + v
    cv = counts.get("certainty.voxels", 0)

    def per_certainty_voxel(*names):
        return 1e6 * sum(total(n) for n in names) / cv if cv else 0.0

    m = {
        **{f"cli.{c}_s": total(f"cli.{c}") / k
           for c in ("convert", "fit", "certainty", "simulate", "overlap")},
        "volume.read_s": total("volume.read_container") / k,
        "volume.write_s": total("volume.write_container") / k,
        "volume.bytes": counts.get("volume.bytes", 0) / k,
        "volume.t_to_p_s": total("volume.t_to_p") / k,
        "fit.us_per_voxel": per("fit.fit_volume"),
        "certainty.us_per_voxel": per("certainty.certainty_volume"),
        "certainty.threshold_us_per_voxel":
            per_certainty_voxel("certainty._optimal_threshold_impl"),
        "certainty.rho_us_per_voxel":
            per_certainty_voxel("certainty.rho_plus", "certainty.rho_minus"),
        "certainty.auc_us_per_voxel": per_certainty_voxel("certainty.auc"),
        "thresholding.bh_fdr_s": total("thresholding.bh_fdr") / k,
        "thresholding.overlap_s": total("thresholding.overlap_matrix") / k,
        "thresholding.n_active": median(counts_by_pass),
        # simulate runs in the commands of sim-recovery and, on every
        # workload, in the benchmark's own set-up and quality scoring
        "simulate.generate_us_per_cell":
            per("simulate.generate_replications", source=spans + parent_spans),
        "simulate.score_us_per_voxel": per("simulate.score_fit", source=spans + parent_spans),
        "simulate.composite_s": (total("simulate.make_composite", parent_spans)
                                 / max(1, sum(1 for s in parent_spans
                                              if s[2] == "simulate.make_composite"))),
        "fit.rmse_lambda": quality.get("rmse_lambda", 0.0),
        "fit.loglik_mean": quality.get("loglik_mean", 0.0),
        "simulate.shd": quality.get("shd", 0.0),
        "trace.overhead_frac": (median([p["pass_s"] for p in traced])
                                / max(1e-9, median([p["pass_s"] for p in untraced])) - 1.0),
        **probes,
    }
    for key in ("fit.voxels", "fit.not_converged", "fit.delta_floor", "fit.delta_cap",
                "fit.lam_zero", "certainty.degenerate_tau", "certainty.bad_tau"):
        m[key] = counts.get(key, 0) / k
    for layer, s in self_s.items():
        m[f"{layer}.self_s"] = s / k
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "certmap" / "__init__.py").is_file():
        print(f"bench: no certmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS, differs

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work / "in")

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    # in a traced run, one more set-up and the quality scoring are traced here
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.installed():
            workload.setup()

    passes = []
    t_measure = time.monotonic()
    with open(work / "log.txt", "w") as log:
        while True:
            k = len(passes)
            traced = bool(args.trace) and k % 2 == 1
            out = work / f"pass{k}"
            out.mkdir()
            t0 = time.monotonic()
            commands = workload.commands(out)
            import_s, workers = run_pass(commands, out, traced, log, deadline)
            passes.append({"dir": out, "traced": traced, "workers": workers,
                           "labels": [label for label, _ in commands], "import_s": import_s,
                           "pass_s": sum(r["wall_s"] for r in workers),
                           "wall": time.monotonic() - t0})
            now = time.monotonic()
            typical = max(p["wall"] for p in passes)
            if now + typical > deadline:
                break
            if len(passes) >= MIN_PASSES and now - t_measure + typical > args.seconds:
                break

    attempted = failed = 0
    first = None
    n_active = []
    for p in passes:
        rcs = {label: r["rc"] for label, r in zip(p["labels"], p["workers"])}
        fails, arrays = workload.check(p["dir"], rcs)
        # a command that exited non-zero fails every voxel, whatever it wrote
        for label, rc in rcs.items():
            if rc != 0:
                fails[label].mark(True)
        bad = sum(f.count for f in fails.values())
        if first is None:
            first = arrays
        else:
            bad += int(differs(first, arrays, workload.n).sum())
        attempted += workload.n * len(rcs)
        failed += min(bad, workload.n * len(rcs))
        n_active.append(sum(int(v.sum()) for key, v in arrays.items()
                            if key.endswith("decision")))
    correct = failed == 0
    quality = {}
    if correct:
        with tracer.installed() if tracer else contextlib.nullcontext():
            quality = workload.quality(passes[0]["dir"])

    untraced = [p for p in passes if not p["traced"]]
    end_to_end = {
        # failed commands time as 0 s; the run is then reported incorrect
        "voxels_per_s": (workload.n * len(untraced)
                         / max(1e-9, sum(p["pass_s"] for p in untraced))),
        "setup_s": median([p["import_s"] for p in untraced]) + median(setup_times),
        # a command's peak varies a little from pass to pass; take its median
        "peak_rss_mb": max(median([p["workers"][i]["peak_rss_mb"] for p in untraced])
                           for i in range(len(untraced[0]["workers"]))),
    }
    print(f"{workload.name}: seed {args.seed}, {workload.n} voxels per pass, "
          f"{len(passes)} passes ({len(untraced)} untraced)")
    print(f"  failed_frac = {failed / attempted!r} fraction ({failed} of {attempted})")
    for p in passes:
        times = ", ".join(f"{label} {r['wall_s']:.3f}"
                          for label, r in zip(p["labels"], p["workers"]))
        print(f"  pass{' (traced)' if p['traced'] else ''}: {times} s")
    for key, value in quality.items():
        print(f"  {key} = {value!r}")

    if args.trace:
        probes = kernel_probes(args.seed)
        values = layer_metrics(passes, tracer.spans, n_active, quality, probes)
        names = spec["per_layer"]
    else:
        values = end_to_end
        names = spec["end_to_end"]
    metrics = {}
    for entry in names:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"  {entry['name']} = {values[entry['name']]!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
