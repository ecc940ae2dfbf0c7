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
1 usage, 2 validation, 3 numerical failure. A run that exits 2 or 3 removes
every file it wrote, and only those. Parameter, composite and decision
inputs must hold exactly one plane, the inputs of one certainty or
overlap run one grid, and every input's values the range of its kind
(p-values in [0, 1], finite t statistics, decisions 0 or 1, lambda in
[0, 1], delta >= 0); any other input exits 2 with its path and the reason.
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
from .model import _check_delta, _check_lam, _check_pvalues

USAGE_ERROR = 1
VALIDATION_ERROR = 2
NUMERICAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# paths written by the current run, removed if the run fails; a path is
# recorded only after its write succeeds, so no other file is ever removed
_written_paths = []


def _write_volume(container, path):
    volume.write_container(container, path)
    _written_paths.append(str(path))


def _write_text(text, path):
    with open(path, "w") as fh:
        fh.write(text)
    _written_paths.append(str(path))


def _check_decisions(values):
    bad = (values != 0.0) & (values != 1.0)
    if bad.any():
        raise ValueError(f"decisions must be 0 or 1, got {float(values[bad].flat[0])!r}")


# the range check of each value kind read as an input
_VALUE_CHECKS = {"lambda": _check_lam, "delta": _check_delta, "pvalue": _check_pvalues,
                 "tstat": volume._check_tstats, "decision": _check_decisions}


def _read(path, kind, like=None):
    """The container at path, checked: its value kind is `kind` (None takes
    any), it holds one plane unless it is a pvalue or tstat replication set
    read on its own, it shares the grid of the container `like`, and its
    values lie in their kind's range (_VALUE_CHECKS)."""
    try:
        c = volume.read_container(path)
    except volume.ContainerError as exc:
        raise volume.ContainerError(f"{path}: {exc}") from exc
    if kind is not None and c.kind != kind:
        raise volume.ContainerError(f"{path}: expected a {kind} volume, got {c.kind}")
    if kind is not None and c.m != 1 and (like is not None or kind not in ("pvalue", "tstat")):
        raise volume.ContainerError(f"{path}: expected one plane, got {c.m}")
    if like is not None and (c.dims != like.dims or not np.array_equal(c.mask, like.mask)):
        raise volume.ContainerError(f"{path}: dims or mask differ from the other inputs")
    if kind in _VALUE_CHECKS:
        try:
            _VALUE_CHECKS[kind](c.values)
        except ValueError as exc:
            raise volume.ContainerError(f"{path}: {exc}") from None
    return c


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


def _write_maps(prefix, fits, dof, maps):
    """Write each (kind, values, suffix) of maps to prefix.suffix.vol; {suffix: path}."""
    outputs = {}
    for kind, values, suffix in maps:
        path = f"{prefix}.{suffix}.vol"
        _write_volume(_param_container(kind, fits, values, dof), path)
        outputs[suffix] = path
    return outputs


def cmd_fit(args):
    data = volume.ReplicationSet.from_container(_read(args.input, "pvalue"))
    fits = fit_volume(data)
    dof_ref = float(data.dofs[0])
    outputs = _write_maps(args.out, fits, dof_ref, (
        ("lambda", fits.lam, "lambda"),
        ("delta", fits.delta, "delta"),
        ("decision", fits.converged.astype(np.float64), "converged"),
    ))
    n_null = int(np.count_nonzero(fits.null_proved))
    print(f"fit: {fits.n_masked} voxels, "
          f"{int(np.count_nonzero(~fits.converged))} not converged, {n_null} proved null")
    return (
        f"{args.out}.manifest.json",
        {"input": args.input},
        outputs,
        {
            "threads": args.threads,
            "dof_reference": dof_ref,
            "n_not_converged": int(np.count_nonzero(~fits.converged)),
            "n_clamped_pvalues": int(fits.clamp_counts.sum()),
            "n_null_proved": n_null,
            "refine_evaluations": fits.refine_evaluations,
        },
        None,
    )


def cmd_certainty(args):
    lam_path, delta_path = _two_paths(args.fits, "--fits")
    lam_c = _read(lam_path, "lambda")
    delta_c = _read(delta_path, "delta", like=lam_c)
    comp_c = _read(args.composite, "pvalue", like=lam_c)
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
        head, _, level = args.tau_source.partition(":")
        try:
            q = float(level) if head == "fdr" else float("nan")
        except ValueError:
            q = float("nan")
        if not 0.0 < q < 1.0:
            raise ValueError(f"--tau-source: {args.tau_source!r} is not frontier or fdr:q, 0 < q < 1")
        decisions = thresholding.bh_fdr(composite, q, dims=comp_c.dims, mask=comp_c.mask)
        realized_cutoff = decisions.realized_cutoff
        maps = certainty.certainty_volume(fits, dof, tau_source=realized_cutoff)

    outputs = _write_maps(args.out, fits, dof, (
        ("tau", maps.tau, "tau"),
        ("rho_plus", maps.rho_plus, "rho_plus"),
        ("rho_minus", maps.rho_minus, "rho_minus"),
        ("auc", maps.auc, "auc"),
        ("decision", decisions.decisions.astype(np.float64), "decision"),
    ))
    print(f"certainty: {maps.n_masked} voxels, {decisions.n_active} active "
          f"({args.tau_source})")
    return (
        f"{args.out}.manifest.json",
        {"fits": args.fits, "composite": args.composite},
        outputs,
        {
            "tau_source": args.tau_source,
            "dof": dof,
            "realized_fdr_cutoff": realized_cutoff,
            "n_active": decisions.n_active,
        },
        None,
    )


def _parse_m_range(text):
    lo, dots, hi = text.partition("..")
    try:
        ms = list(range(int(lo), int(hi) + 1)) if dots else [int(v) for v in text.split(",")]
    except ValueError:
        ms = []
    if not ms or min(ms) < 1:
        raise ValueError(f"--M-range: bad M range {text!r}")
    return ms


def cmd_simulate(args):
    truth = simulate.make_ground_truth(args.N, scenario=args.scenario, seed=args.seed)
    m_range = _parse_m_range(args.M_range)
    report = simulate.run_simulation(truth, m_range, seed=args.seed)
    _write_text(report.to_tsv(), args.out)
    print(report.to_tsv(), end="")
    return (
        f"{args.out}.manifest.json",
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
    )


def cmd_overlap(args):
    maps = []
    for path in args.maps:
        c = _read(path, "decision", like=maps[0] if maps else None)
        maps.append(
            thresholding.ActivationMap(
                dims=c.dims, mask=c.mask, decisions=c.values[0] > 0.5,
                method="loaded", realized_cutoff=None,
            )
        )
    matrix, summary = thresholding.overlap_matrix(maps)
    _write_text(
        "".join("\t".join(repr(float(v)) for v in row) + "\n" for row in matrix)
        + f"# min={summary.min!r} max={summary.max!r} "
        f"median={summary.median!r} iqr={summary.iqr!r}\n",
        args.out,
    )
    print(
        f"overlap: {len(maps)} maps, {len(maps) * (len(maps) - 1) // 2} pairs, "
        f"min={summary.min:.3f} max={summary.max:.3f} median={summary.median:.3f} "
        f"iqr={summary.iqr:.3f}"
    )
    return (
        f"{args.out}.manifest.json",
        {"maps": list(args.maps)},
        {"matrix": args.out},
        {"n_maps": len(maps), **vars(summary)},
        None,
    )


def cmd_convert(args):
    c = _read(args.tstats, "tstat")
    dofs = np.full(c.m, args.dof) if args.dof is not None else c.dofs
    out_c = volume.VolumeContainer(kind="pvalue", dims=c.dims, mask=c.mask, dofs=dofs,
                                   values=volume.t_to_p(c.values, dofs))
    _write_volume(out_c, args.out)
    print(f"convert: {c.m} planes, {out_c.n_masked} voxels")
    return (f"{args.out}.manifest.json", {"tstats": args.tstats}, {"pvals": args.out},
            {"dof": args.dof}, None)


def cmd_split(args):
    out_a, out_b = _two_paths(args.out, "--out")
    c = _read(args.input, "pvalue")
    idx_a, idx_b = simulate.split_replications(c.m, args.seed)
    # each half holds its planes as read: no p-value is clamped on the way
    for idx, path in ((idx_a, out_a), (idx_b, out_b)):
        _write_volume(volume.VolumeContainer(kind="pvalue", dims=c.dims, mask=c.mask,
                                             dofs=c.dofs[idx], values=c.values[idx]), path)
    print(f"split: reps {idx_a.tolist()} | {idx_b.tolist()}")
    return (
        f"{out_a}.manifest.json",
        {"input": args.input},
        {"half_a": out_a, "half_b": out_b},
        {"indices_a": idx_a.tolist(), "indices_b": idx_b.tolist()},
        args.seed,
    )


def cmd_dump(args):
    c = _read(args.input, None)
    nx, ny, nz = c.dims
    if not (0 <= args.slice < nz):
        raise volume.ContainerError(f"slice {args.slice} outside 0..{nz - 1}")
    if not (0 <= args.rep < c.m):
        raise volume.ContainerError(f"rep {args.rep} outside 0..{c.m - 1}")
    full = np.full((nz, ny, nx), np.nan)
    full[c.mask] = c.values[args.rep]
    _write_text(
        "x\ty\tvalue\n" + "".join(
            f"{x}\t{y}\t{float(full[args.slice, y, x])!r}\n"
            for y, x in zip(*np.nonzero(c.mask[args.slice]))
        ),
        args.out,
    )
    print(f"dump: slice {args.slice} of {args.input} ({c.kind})")
    return (f"{args.out}.manifest.json", {"input": args.input}, {"table": args.out},
            {"slice": args.slice, "rep": args.rep, "kind": c.kind}, None)


# every subcommand: name -> (help, handler, [(option, add_argument keywords)])
_COMMANDS = {
    "fit": ("fit the p-value mixture per voxel", cmd_fit, [
        ("--input", dict(required=True, help="p-value replication container")),
        ("--out", dict(required=True, help="output path prefix")),
        ("--threads", dict(type=int, default=1, help="recorded in the manifest; no effect")),
    ]),
    "certainty": ("thresholds, certainties and decisions", cmd_certainty, [
        ("--fits", dict(required=True, help="lambda,delta container paths")),
        ("--composite", dict(required=True, help="composite p-value container")),
        ("--tau-source", dict(default="frontier", help="frontier or fdr:q")),
        ("--dof", dict(type=float, default=None,
                       help="dof for the certainty formulas (default: from fits)")),
        ("--out", dict(required=True, help="output path prefix")),
    ]),
    "simulate": ("ground-truth recovery experiment", cmd_simulate, [
        ("--scenario", dict(default="default", choices=sorted(simulate.SCENARIOS))),
        ("--M-range", dict(default="2..12", help="e.g. 2..12 or 2,6,12")),
        ("--N", dict(type=int, required=True, help="number of voxels")),
        ("--seed", dict(type=int, required=True)),
        ("--out", dict(required=True, help="report TSV path")),
        ("--threads", dict(type=int, default=1, help="recorded in the manifest; no effect")),
    ]),
    "overlap": ("percent-overlap matrix of decision maps", cmd_overlap, [
        ("--maps", dict(nargs="+", required=True)),
        ("--out", dict(required=True)),
    ]),
    "convert": ("t-statistics to one-sided p-values", cmd_convert, [
        ("--tstats", dict(required=True)),
        ("--dof", dict(type=float, default=None)),
        ("--out", dict(required=True)),
    ]),
    "split": ("random half-split of a replication set", cmd_split, [
        ("--input", dict(required=True)),
        ("--seed", dict(type=int, required=True)),
        ("--out", dict(required=True, help="two output paths: a.vol,b.vol")),
    ]),
    "dump": ("per-slice delimited dump of a volume", cmd_dump, [
        ("--input", dict(required=True)),
        ("--slice", dict(type=int, required=True)),
        ("--rep", dict(type=int, default=0)),
        ("--out", dict(required=True)),
    ]),
}


def _build_parser(name=None):
    """The certmap parser: with only the subparser of `name` when it is a
    subcommand, with all of them otherwise. Either way every message prints
    as from the full parser: a run of one subcommand shows no other's help,
    and the usage line names all of them through the metavar."""
    parser = _Parser(prog="certmap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"certmap {__version__}")
    one = name in _COMMANDS
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for cmd in [name] if one else _COMMANDS:
        help_text, func, options = _COMMANDS[cmd]
        p = sub.add_parser(cmd, help=help_text)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    del _written_paths[:]
    t0 = time.time()
    try:
        manifest_path, inputs, outputs, config, seed = args.func(args)
        manifest = {
            "tool": "certmap",
            "version": __version__,
            "subcommand": args.subcommand,
            "inputs": inputs,
            "outputs": outputs,
            "config": config,
            "seed": seed,
            "wall_time_s": round(time.time() - t0, 3),
        }
        _write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", manifest_path)
        return 0
    except (ValueError, OSError) as exc:
        code, message = VALIDATION_ERROR, str(exc)
    except ArithmeticError as exc:
        code, message = NUMERICAL_ERROR, f"numerical failure: {exc}"
    for path in _written_paths:
        try:
            os.unlink(path)
        except OSError:
            pass
    print(f"certmap {args.subcommand}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
