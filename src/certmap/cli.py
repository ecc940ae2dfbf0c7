"""Command-line surface for batch runs.

Subcommands:

  fit        fit the mixture per voxel and write lambda/delta/diagnostics
  certainty  per-voxel thresholds, certainties, AUC and decisions
  simulate   ground-truth simulation report (recovery RMSEs and SHD)
  overlap    pairwise percent-overlap matrix of decision volumes
  convert    t-statistic volume to one-sided p-values
  split      split a replication set into two random halves
  dump       per-slice delimited dump of any volume for external plotting

Every run writes a JSON manifest adjacent to its primary output with the
exact configuration and seed needed to reproduce it. Exit codes: 0 success,
1 usage, 2 validation, 3 numerical failure (partial outputs removed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, certainty, simulate, thresholding, volume
from .fit import VolumeFit, fit_volume

USAGE_ERROR = 1
VALIDATION_ERROR = 2
NUMERICAL_ERROR = 3

_ENV_THREADS = "CERTMAP_THREADS"
_THREADS_HELP = ("accepted for compatibility and recorded in the manifest; has no "
                 f"effect, the fit runs as one array pass (default: ${_ENV_THREADS} or 1)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# paths written by the current run, so a numerical failure can remove
# partial outputs before exiting
_written_paths = []


def _write_volume(container, path):
    volume.write_container(container, path)
    _written_paths.append(str(path))


def _default_threads():
    try:
        return max(1, int(os.environ.get(_ENV_THREADS, "1")))
    except ValueError:
        return 1


def _write_manifest(path, subcommand, inputs, outputs, config, seed, t0):
    manifest = {
        "tool": "certmap",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "config": config,
        "seed": seed,
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _written_paths.append(str(path))


def _param_container(kind, fits_or_maps, values, dof):
    return volume.VolumeContainer(
        kind=kind,
        dims=fits_or_maps.dims,
        mask=fits_or_maps.mask,
        dofs=np.array([float(dof)]),
        values=np.asarray(values, dtype=np.float64)[None, :],
    )


def _two_paths(text, option):
    if text.count(",") != 1:
        raise ValueError(f"{option} needs two comma-separated paths, got {text!r}")
    return text.split(",")


def cmd_fit(args):
    t0 = time.time()
    data = volume.ReplicationSet.from_container(volume.read_container(args.input))
    fits = fit_volume(data)
    dof_ref = float(data.dofs[0])
    outputs = {}
    for kind, values, suffix in (
        ("lambda", fits.lam, "lambda"),
        ("delta", fits.delta, "delta"),
        ("decision", fits.converged.astype(np.float64), "converged"),
    ):
        path = f"{args.out}.{suffix}.vol"
        _write_volume(_param_container(kind, fits, values, dof_ref), path)
        outputs[suffix] = path
    manifest_path = f"{args.out}.manifest.json"
    _write_manifest(
        manifest_path,
        "fit",
        {"input": args.input},
        outputs,
        {
            "threads": args.threads,
            "dof_reference": dof_ref,
            "n_not_converged": int(np.count_nonzero(~fits.converged)),
            "n_clamped_pvalues": int(fits.clamp_counts.sum()),
        },
        None,
        t0,
    )
    print(f"fit: {fits.n_masked} voxels, "
          f"{int(np.count_nonzero(~fits.converged))} not converged")
    return [*outputs.values(), manifest_path]


def cmd_certainty(args):
    t0 = time.time()
    lam_path, delta_path = _two_paths(args.fits, "--fits")
    lam_c = volume.read_container(lam_path)
    delta_c = volume.read_container(delta_path)
    comp_c = volume.read_container(args.composite)
    if lam_c.kind != "lambda" or delta_c.kind != "delta":
        raise volume.ContainerError("fit containers must be lambda and delta volumes")
    if lam_c.dims != delta_c.dims or not np.array_equal(lam_c.mask, delta_c.mask):
        raise volume.ContainerError("lambda and delta volumes disagree on geometry")
    if comp_c.dims != lam_c.dims or not np.array_equal(comp_c.mask, lam_c.mask):
        raise volume.ContainerError("composite volume disagrees with the fits")
    dof = args.dof if args.dof is not None else float(lam_c.dofs[0])

    fits = VolumeFit(
        dims=lam_c.dims,
        mask=lam_c.mask,
        lam=lam_c.values[0],
        delta=delta_c.values[0],
        loglik=np.full(lam_c.n_masked, np.nan),
        converged=np.ones(lam_c.n_masked, dtype=bool),
        clamp_counts=np.zeros(lam_c.n_masked, dtype=np.int64),
    )
    composite = comp_c.values[0]

    realized_cutoff = None
    if args.tau_source == "frontier":
        maps = certainty.certainty_volume(fits, dof, tau_source="frontier")
        decisions = thresholding.threshold_with_frontier(
            fits, composite, dof, taus=maps.tau
        )
    else:
        if not args.tau_source.startswith("fdr:"):
            raise volume.ContainerError(
                f"tau source must be 'frontier' or 'fdr:q', got {args.tau_source!r}"
            )
        q = float(args.tau_source.split(":", 1)[1])
        decisions = thresholding.bh_fdr(composite, q, dims=comp_c.dims, mask=comp_c.mask)
        realized_cutoff = decisions.realized_cutoff
        maps = certainty.certainty_volume(fits, dof, tau_source=realized_cutoff)

    outputs = {}
    for kind, values, suffix in (
        ("tau", maps.tau, "tau"),
        ("rho_plus", maps.rho_plus, "rho_plus"),
        ("rho_minus", maps.rho_minus, "rho_minus"),
        ("auc", maps.auc, "auc"),
        ("decision", decisions.decisions.astype(np.float64), "decision"),
    ):
        path = f"{args.out}.{suffix}.vol"
        _write_volume(_param_container(kind, fits, values, dof), path)
        outputs[suffix] = path
    manifest_path = f"{args.out}.manifest.json"
    _write_manifest(
        manifest_path,
        "certainty",
        {"fits": args.fits, "composite": args.composite},
        outputs,
        {
            "tau_source": args.tau_source,
            "dof": dof,
            "realized_fdr_cutoff": realized_cutoff,
            "n_active": decisions.n_active,
        },
        None,
        t0,
    )
    print(f"certainty: {maps.n_masked} voxels, {decisions.n_active} active "
          f"({args.tau_source})")
    return [*outputs.values(), manifest_path]


def _parse_m_range(text):
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad M range {text!r}")
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def cmd_simulate(args):
    t0 = time.time()
    truth = simulate.make_ground_truth(args.N, scenario=args.scenario, seed=args.seed)
    m_range = _parse_m_range(args.M_range)
    report = simulate.run_simulation(truth, m_range, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(report.to_tsv())
    manifest_path = f"{args.out}.manifest.json"
    _write_manifest(
        manifest_path,
        "simulate",
        {},
        {"report": args.out},
        {
            "scenario": args.scenario,
            "N": args.N,
            "M_range": m_range,
            "threads": args.threads,
            "nu": truth.nu,
        },
        args.seed,
        t0,
    )
    print(report.to_tsv(), end="")
    return [args.out, manifest_path]


def cmd_overlap(args):
    t0 = time.time()
    maps = []
    for path in args.maps:
        c = volume.read_container(path)
        if c.kind != "decision":
            raise volume.ContainerError(f"{path}: expected a decision volume, got {c.kind}")
        maps.append(
            thresholding.ActivationMap(
                dims=c.dims, mask=c.mask, decisions=c.values[0] > 0.5,
                method="loaded", realized_cutoff=None,
            )
        )
    matrix, summary = thresholding.overlap_matrix(maps)
    with open(args.out, "w") as fh:
        for row in matrix:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
        fh.write(
            f"# min={summary.min!r} max={summary.max!r} "
            f"median={summary.median!r} iqr={summary.iqr!r}\n"
        )
    manifest_path = f"{args.out}.manifest.json"
    _write_manifest(
        manifest_path,
        "overlap",
        {"maps": list(args.maps)},
        {"matrix": args.out},
        {
            "n_maps": len(maps),
            "min": summary.min,
            "max": summary.max,
            "median": summary.median,
            "iqr": summary.iqr,
        },
        None,
        t0,
    )
    print(
        f"overlap: {len(maps)} maps, {len(maps) * (len(maps) - 1) // 2} pairs, "
        f"min={summary.min:.3f} max={summary.max:.3f} median={summary.median:.3f} "
        f"iqr={summary.iqr:.3f}"
    )
    return [args.out, manifest_path]


def cmd_convert(args):
    t0 = time.time()
    c = volume.read_container(args.tstats)
    if c.kind != "tstat":
        raise volume.ContainerError(f"expected a tstat volume, got {c.kind}")
    dofs = np.full(c.m, args.dof) if args.dof is not None else c.dofs
    pvals = np.vstack([volume.t_to_p(v, dof) for v, dof in zip(c.values, dofs)])
    out_c = volume.VolumeContainer(
        kind="pvalue", dims=c.dims, mask=c.mask, dofs=dofs, values=pvals
    )
    _write_volume(out_c, args.out)
    manifest_path = f"{args.out}.manifest.json"
    _write_manifest(
        manifest_path, "convert", {"tstats": args.tstats}, {"pvals": args.out},
        {"dof": args.dof}, None, t0,
    )
    print(f"convert: {c.m} planes, {out_c.n_masked} voxels")
    return [args.out, manifest_path]


def cmd_split(args):
    t0 = time.time()
    out_a, out_b = _two_paths(args.out, "--out")
    data = volume.ReplicationSet.from_container(volume.read_container(args.input))
    idx_a, idx_b = simulate.split_replications(data.m, args.seed)
    _write_volume(data.subset(idx_a).to_container(), out_a)
    _write_volume(data.subset(idx_b).to_container(), out_b)
    manifest_path = f"{out_a}.manifest.json"
    _write_manifest(
        manifest_path,
        "split",
        {"input": args.input},
        {"half_a": out_a, "half_b": out_b},
        {"indices_a": idx_a.tolist(), "indices_b": idx_b.tolist()},
        args.seed,
        t0,
    )
    print(f"split: reps {idx_a.tolist()} | {idx_b.tolist()}")
    return [out_a, out_b, manifest_path]


def cmd_dump(args):
    t0 = time.time()
    c = volume.read_container(args.input)
    nx, ny, nz = c.dims
    if not (0 <= args.slice < nz):
        raise volume.ContainerError(f"slice {args.slice} outside 0..{nz - 1}")
    if not (0 <= args.rep < c.m):
        raise volume.ContainerError(f"rep {args.rep} outside 0..{c.m - 1}")
    full = np.full((nz, ny, nx), np.nan)
    full[c.mask] = c.values[args.rep]
    with open(args.out, "w") as fh:
        fh.write("x\ty\tvalue\n")
        for y, x in zip(*np.nonzero(c.mask[args.slice])):
            fh.write(f"{x}\t{y}\t{float(full[args.slice, y, x])!r}\n")
    manifest_path = f"{args.out}.manifest.json"
    _write_manifest(
        manifest_path, "dump", {"input": args.input}, {"table": args.out},
        {"slice": args.slice, "rep": args.rep, "kind": c.kind}, None, t0,
    )
    print(f"dump: slice {args.slice} of {args.input} ({c.kind})")
    return [args.out, manifest_path]


def _build_parser():
    parser = _Parser(prog="certmap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"certmap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fit", help="fit the p-value mixture per voxel")
    p.add_argument("--input", required=True, help="p-value replication container")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--threads", type=int, default=_default_threads(), help=_THREADS_HELP)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("certainty", help="thresholds, certainties and decisions")
    p.add_argument("--fits", required=True, help="lambda,delta container paths")
    p.add_argument("--composite", required=True, help="composite p-value container")
    p.add_argument("--tau-source", default="frontier", help="frontier or fdr:q")
    p.add_argument("--dof", type=float, default=None,
                   help="dof for the certainty formulas (default: from fits)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_certainty)

    p = sub.add_parser("simulate", help="ground-truth recovery experiment")
    p.add_argument("--scenario", default="default", choices=sorted(simulate.SCENARIOS))
    p.add_argument("--M-range", default="2..12", help="e.g. 2..12 or 2,6,12")
    p.add_argument("--N", type=int, required=True, help="number of voxels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="report TSV path")
    p.add_argument("--threads", type=int, default=_default_threads(), help=_THREADS_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("overlap", help="percent-overlap matrix of decision maps")
    p.add_argument("--maps", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("convert", help="t-statistics to one-sided p-values")
    p.add_argument("--tstats", required=True)
    p.add_argument("--dof", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("split", help="random half-split of a replication set")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="two output paths: a.vol,b.vol")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("dump", help="per-slice delimited dump of a volume")
    p.add_argument("--input", required=True)
    p.add_argument("--slice", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    del _written_paths[:]
    try:
        args.func(args)
        return 0
    except (volume.ContainerError, volume.SchemaError, ValueError) as exc:
        print(f"certmap {args.subcommand}: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except OSError as exc:
        print(f"certmap {args.subcommand}: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        for path in _written_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        print(f"certmap {args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
