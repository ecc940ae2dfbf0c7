"""The three benchmark workloads: inputs, CLI commands and output checks.

Each workload makes its inputs from the seed in `setup`, lists the certmap
commands of one timed pass in `commands`, and checks one pass's outputs in
`check`. The program sees only the generated containers (and, for
sim-recovery, the seed on its command line).

`check` returns, per command, how many voxels broke the output contract,
plus the arrays it read so that later passes can be compared bit for bit
with the first.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import stats

from certmap import model, simulate, special, volume
from certmap.fit import DELTA_CAP

NU = 122.0
M = 12
Q_FDR = 0.05
# the simulate command's voxel count; sized so that one pass takes about as
# long as one pass of certainty-maps
SIM_N = 120
SIM_M_RANGE = "2,6,12"
SIM_THREADS = 2
# voxels of the first pass scored by Hellinger distance: scoring costs about
# half as much per voxel as fitting, so it is kept to a sample
SHD_VOXELS = 64


def brain_mask(dims, radii):
    """An ellipsoid centred in a grid of the given dims: one run of voxels per
    row, so the mask's run-length encoding has the shape it has on real data."""
    nx, ny, nz = dims
    z, y, x = np.mgrid[0:nz, 0:ny, 0:nx]
    r = sum(((c - (n - 1) / 2) / a) ** 2 for c, n, a in zip((x, y, z), dims, radii))
    return tuple(dims), r <= 1.0


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _truth(lam, delta, seed):
    n = lam.size
    return simulate.GroundTruthField(
        dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool), lam=lam, delta=delta,
        scenario="benchmark", seed=int(seed), nu=NU,
    )


def _write(kind, dims, mask, values, path):
    values = np.atleast_2d(values)
    volume.write_container(
        volume.VolumeContainer(kind=kind, dims=dims, mask=mask,
                               dofs=np.full(values.shape[0], NU), values=values),
        path,
    )


def _bits(a):
    """View of a float array that compares NaN payloads bit for bit."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class Failures:
    """Per-voxel failure marks of one command's outputs."""

    def __init__(self, n):
        self.bad = np.zeros(n, dtype=bool)

    def mark(self, where):
        self.bad |= np.broadcast_to(where, self.bad.shape)

    @property
    def count(self):
        return int(self.bad.sum())


def _read(path, kind, dims, mask, fails, m=1):
    """Read an output container; a missing or mis-shaped one fails every voxel."""
    try:
        c = volume.read_container(path)
    except (OSError, ValueError):
        fails.mark(True)
        return None
    if (c.kind != kind or c.dims != tuple(dims) or not np.array_equal(c.mask, mask)
            or c.m != m):
        fails.mark(True)
        return None
    return c.values


def _in_unit(a):
    return np.isfinite(a) & (a >= 0.0) & (a <= 1.0)


def check_certainty(prefix, dims, mask, composite, fails, external):
    """tau, rho+-, AUC and decisions of one `certmap certainty` run.

    NaN rho is allowed only where an external tau lies outside (0, 1); each
    decision must equal composite <= tau.
    """
    out = {}
    for kind in ("tau", "rho_plus", "rho_minus", "auc", "decision"):
        v = _read(f"{prefix}.{kind}.vol", kind, dims, mask, fails)
        if v is None:
            return out
        out[kind] = v[0]
    tau = out["tau"]
    fails.mark(~_in_unit(tau))
    fails.mark(~_in_unit(out["auc"]))
    vacuous = ~((tau > 0.0) & (tau < 1.0)) if external else np.zeros(tau.size, bool)
    for rho in (out["rho_plus"], out["rho_minus"]):
        fails.mark(~(_in_unit(rho) | (vacuous & np.isnan(rho))))
    dec = out["decision"]
    fails.mark(~((dec == 0.0) | (dec == 1.0)))
    fails.mark((dec == 1.0) != (composite <= tau))
    return out


class Workload:
    name = ""
    # a 256-voxel mask
    GRID = (12, 10, 8)
    RADII = (5.0, 4.0, 3.0)

    def __init__(self, seed, in_dir):
        self.seed = int(seed)
        self.in_dir = Path(in_dir)
        if self.GRID:
            self.dims, self.mask = brain_mask(self.GRID, self.RADII)
            self.n = int(self.mask.sum())

    def setup(self):
        """Generate and write the inputs; returns nothing."""

    def commands(self, out_dir):
        """[(label, certmap argv)] of one timed pass."""
        raise NotImplementedError

    def check(self, out_dir, results):
        """({label: failed voxels}, {name: array}) for one pass; results maps
        each label to the command's exit code."""
        raise NotImplementedError

    def quality(self, out_dir):
        """{metric: value} of the first pass against ground truth."""
        return {}


class E2EDefault(Workload):
    """The headline use: a t-statistic container of the mostly-null default
    scenario through convert, fit and frontier certainty. About 40% of fits
    land at the delta cap, where nct_cdf is slowest, so fit and certainty
    each do about half the work."""

    name = "e2e-default"
    # 384 voxels: the share of fits at the delta cap, which sets much of the
    # cost, varies less from seed to seed than on a smaller mask
    GRID = (14, 12, 10)
    RADII = (5.9, 4.7, 3.3)

    def setup(self):
        truth = simulate.make_ground_truth(self.n, scenario="default", seed=self.seed)
        data = simulate.generate_replications(truth, M, self.seed)
        # one plane at a time: t_upper_quantile's bisection fallback indexes
        # its input as 1-D and fails on a 2-D array
        t = np.vstack([special.t_upper_quantile(p, NU) for p in data.pvalues])
        _write("tstat", self.dims, self.mask, t, self.in_dir / "tstats.vol")
        self.truth = truth
        self.tstats = t
        self.composite = simulate.make_composite(data)
        _write("pvalue", self.dims, self.mask, self.composite, self.in_dir / "composite.vol")

    def commands(self, out):
        return [
            ("convert", ["convert", "--tstats", str(self.in_dir / "tstats.vol"),
                         "--out", str(out / "pvals.vol")]),
            ("fit", ["fit", "--input", str(out / "pvals.vol"), "--out", str(out / "fit"),
                     "--threads", "1"]),
            ("certainty", ["certainty", "--fits",
                           f"{out / 'fit.lambda.vol'},{out / 'fit.delta.vol'}",
                           "--composite", str(self.in_dir / "composite.vol"),
                           "--tau-source", "frontier", "--out", str(out / "maps")]),
        ]

    def check(self, out, rcs):
        n, dims, mask = self.n, self.dims, self.mask
        fails = {label: Failures(n) for label in rcs}
        arrays = {}
        if rcs["convert"] == 0:
            f = fails["convert"]
            p = _read(out / "pvals.vol", "pvalue", dims, mask, f, m=M)
            if p is not None:
                # independent reference: scipy's central t survival function
                ref = stats.t.sf(self.tstats, NU)
                ok = _in_unit(p) & (np.abs(p - ref) <= 1e-9 * ref + 1e-300)
                f.mark(~ok.all(axis=0))
                arrays["pvals"] = p
        if rcs["fit"] == 0:
            f = fails["fit"]
            lam = _read(out / "fit.lambda.vol", "lambda", dims, mask, f)
            delta = _read(out / "fit.delta.vol", "delta", dims, mask, f)
            conv = _read(out / "fit.converged.vol", "decision", dims, mask, f)
            if lam is not None and delta is not None and conv is not None:
                lam, delta, conv = lam[0], delta[0], conv[0]
                f.mark(~_in_unit(lam))
                f.mark(~(np.isfinite(delta) & (delta >= 1.0) & (delta <= DELTA_CAP)))
                f.mark(~((conv == 0.0) | (conv == 1.0)))
                arrays.update(lam=lam, delta=delta, converged=conv)
        if rcs["certainty"] == 0:
            maps = check_certainty(out / "maps", dims, mask, self.composite,
                                   fails["certainty"], external=False)
            arrays.update({f"maps.{k}": v for k, v in maps.items()})
        return fails, arrays

    def quality(self, out):
        lam = volume.read_container(out / "fit.lambda.vol").values[0]
        delta = volume.read_container(out / "fit.delta.vol").values[0]
        pc = volume.read_container(out / "pvals.vol")
        loglik = [
            model.voxel_loglik(model.PValueVector(pc.values[:, i], pc.dofs),
                               model.MixtureParams(float(lam[i]), float(delta[i])))
            for i in range(self.n)
        ]
        k = SHD_VOXELS
        sample = _truth(self.truth.lam[:k], self.truth.delta[:k], self.seed)
        _, _, shd = simulate.score_fit(lam[:k], delta[:k], sample)
        return {
            "rmse_lambda": float(np.sqrt(np.mean((lam - self.truth.lam) ** 2))),
            "loglik_mean": float(np.mean(loglik)),
            "shd": shd,
        }


class SimRecovery(Workload):
    """Generation, refits at three M through the fork pool and Hellinger
    scoring on the dense scenario. No certainty work, so a certainty change
    should not move it."""

    name = "sim-recovery"
    GRID = None
    n = SIM_N

    def commands(self, out):
        return [("simulate", ["simulate", "--scenario", "dense", "--M-range", SIM_M_RANGE,
                              "--N", str(self.n), "--seed", str(self.seed),
                              "--out", str(out / "report.tsv"),
                              "--threads", str(SIM_THREADS)])]

    def _rows(self, out):
        with open(out / "report.tsv") as fh:
            lines = fh.read().splitlines()
        if lines[0].split("\t") != ["M", "rmse_lambda", "rmse_delta", "avg_shd"]:
            raise ValueError("unexpected report header")
        return np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])

    def check(self, out, rcs):
        fails = {"simulate": Failures(self.n)}
        arrays = {}
        if rcs["simulate"] == 0:
            try:
                rows = self._rows(out)
            except (OSError, ValueError, IndexError):
                rows = None
            expect = [float(m) for m in SIM_M_RANGE.split(",")]
            if (rows is None or rows.shape != (len(expect), 4)
                    or not np.isfinite(rows).all() or list(rows[:, 0]) != expect
                    or (rows[:, 1:] < 0.0).any() or (rows[:, 3] > 2.0).any()):
                fails["simulate"].mark(True)
            else:
                arrays["report"] = rows
        return fails, arrays

    def quality(self, out):
        rows = self._rows(out)
        last = rows[rows[:, 0] == float(M)][0]
        return {"rmse_lambda": float(last[1]), "shd": float(last[3])}


class CertaintyMaps(Workload):
    """Certainty with the bisection tau and with the FDR tau, then overlap, on
    fixed lambda/delta maps. No fitting, so a fitter change should not move
    it, and a gain for one tau source that costs the other shows."""

    name = "certainty-maps"

    # shares of voxels at the boundaries fits produce on the default scenario
    # (delta at the cap of 50 with lambda ~ 0, delta at the floor of 1) and in
    # the interior; counts are exact, values drawn from the seed
    MIX = (("cap", 0.4), ("floor", 0.2), ("interior", 0.4))

    def setup(self):
        n = self.n
        rng = _rng(self.seed, 1)
        counts = [int(round(share * n)) for _, share in self.MIX]
        counts[-1] = n - sum(counts[:-1])
        kind = np.repeat(np.arange(len(counts)), counts)[rng.permutation(n)]
        lam = np.where(kind == 0, 1e-12, rng.uniform(0.01, 0.99, n))
        lam = np.where((kind == 1) & (rng.random(n) < 0.25), 1e-12, lam)
        delta = np.select([kind == 0, kind == 1],
                          [DELTA_CAP, 1.0 + 1e-12], rng.uniform(1.05, 6.5, n))
        data = simulate.generate_replications(_truth(lam, delta, self.seed), M, self.seed)
        self.lam, self.delta = lam, delta
        self.composite = simulate.make_composite(data)
        _write("lambda", self.dims, self.mask, lam, self.in_dir / "lambda.vol")
        _write("delta", self.dims, self.mask, delta, self.in_dir / "delta.vol")
        _write("pvalue", self.dims, self.mask, self.composite, self.in_dir / "composite.vol")

    def commands(self, out):
        fits = f"{self.in_dir / 'lambda.vol'},{self.in_dir / 'delta.vol'}"
        comp = str(self.in_dir / "composite.vol")
        return [
            ("certainty-frontier", ["certainty", "--fits", fits, "--composite", comp,
                                    "--tau-source", "frontier", "--out", str(out / "front")]),
            ("certainty-fdr", ["certainty", "--fits", fits, "--composite", comp,
                               "--tau-source", f"fdr:{Q_FDR}", "--out", str(out / "fdr")]),
            ("overlap", ["overlap", "--maps", str(out / "front.decision.vol"),
                         str(out / "fdr.decision.vol"), "--out", str(out / "overlap.tsv")]),
        ]

    def check(self, out, rcs):
        dims, mask = self.dims, self.mask
        fails = {label: Failures(self.n) for label in rcs}
        arrays = {}
        for label, prefix, external in (("certainty-frontier", "front", False),
                                        ("certainty-fdr", "fdr", True)):
            if rcs[label] == 0:
                maps = check_certainty(out / prefix, dims, mask, self.composite,
                                       fails[label], external)
                arrays.update({f"{prefix}.{k}": v for k, v in maps.items()})
        if rcs["overlap"] == 0:
            a, b = arrays.get("front.decision"), arrays.get("fdr.decision")
            try:
                with open(out / "overlap.tsv") as fh:
                    rows = [line.split("\t") for line in fh if not line.startswith("#")]
                matrix = np.array(rows, dtype=np.float64)
            except (OSError, ValueError):
                matrix = None
            if a is None or b is None or matrix is None or matrix.shape != (2, 2):
                fails["overlap"].mark(True)
            else:
                na, nb = int(a.sum()), int(b.sum())
                o = 1.0 if na + nb == 0 else 2.0 * float(((a == 1) & (b == 1)).sum()) / (na + nb)
                want = np.array([[1.0, o], [o, 1.0]])
                if not np.allclose(matrix, want, rtol=0.0, atol=1e-12):
                    fails["overlap"].mark(True)
                arrays["overlap"] = matrix
        return fails, arrays


WORKLOADS = {w.name: w for w in (E2EDefault, SimRecovery, CertaintyMaps)}


def differs(first, later, n):
    """Voxels whose arrays differ bit for bit between two passes; an array
    missing from one pass, or one without a voxel axis, marks every voxel."""
    bad = np.zeros(n, dtype=bool)
    for key in first.keys() | later.keys():
        a, b = first.get(key), later.get(key)
        if a is None or b is None or a.shape != b.shape:
            bad[:] = True
        elif a.shape[-1] == n:
            bad |= (_bits(a) != _bits(b)).reshape(-1, n).any(axis=0)
        elif (_bits(a) != _bits(b)).any():
            bad[:] = True
    return bad

