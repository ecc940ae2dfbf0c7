"""End-to-end tests of the command-line surface."""

import json
from pathlib import Path

import numpy as np
import pytest

from certmap import simulate as sim
from certmap import volume as vol
from certmap.cli import main


@pytest.fixture
def fixture_volumes(tmp_path):
    """Tiny 4x4x1 bundle: 3-replication p-values plus a pooled composite."""
    truth = sim.make_ground_truth(16, seed=31)
    truth = sim.GroundTruthField(
        dims=(4, 4, 1), mask=np.ones((1, 4, 4), dtype=bool),
        lam=truth.lam, delta=truth.delta,
        scenario=truth.scenario, seed=truth.seed, nu=truth.nu,
    )
    data = sim.generate_replications(truth, 3, seed=31)
    comp = sim.make_composite(data)
    reps_path = tmp_path / "reps.vol"
    comp_path = tmp_path / "comp.vol"
    vol.write_container(data.to_container(), reps_path)
    vol.write_container(
        vol.VolumeContainer(
            kind="pvalue", dims=data.dims, mask=data.mask,
            dofs=np.array([data.dofs[0] * data.m]), values=comp[None, :],
        ),
        comp_path,
    )
    return reps_path, comp_path


def test_fit_smoke_and_outputs_parse(fixture_volumes, tmp_path):
    reps, _ = fixture_volumes
    out = tmp_path / "fits"
    assert main(["fit", "--input", str(reps), "--out", str(out)]) == 0
    lam = vol.read_container(f"{out}.lambda.vol")
    delta = vol.read_container(f"{out}.delta.vol")
    assert lam.kind == "lambda" and delta.kind == "delta"
    assert lam.n_masked == 16
    assert np.all((lam.values > 0) & (lam.values < 1))
    assert np.all(delta.values > 1)
    manifest = json.loads((tmp_path / "fits.manifest.json").read_text())
    assert manifest["subcommand"] == "fit"
    config = manifest["config"]
    assert config["dof_reference"] == 122.0
    assert config["n_not_converged"] == 0
    assert config["threads"] == 1
    assert set(manifest["outputs"]) == {"lambda", "delta", "converged"}
    converged = vol.read_container(f"{out}.converged.vol")
    assert converged.kind == "decision"
    assert np.all(converged.values == 1.0)


def test_fit_threads_bit_identical(fixture_volumes, tmp_path):
    reps, _ = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "s"), "--threads", "1"])
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "p"), "--threads", "8"])
    for suffix in ("lambda", "delta", "converged"):
        a = (tmp_path / f"s.{suffix}.vol").read_bytes()
        b = (tmp_path / f"p.{suffix}.vol").read_bytes()
        assert a == b


def test_certainty_frontier_matches_library(fixture_volumes, tmp_path):
    reps, comp = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
    rc = main([
        "certainty", "--fits",
        f"{tmp_path / 'f'}.lambda.vol,{tmp_path / 'f'}.delta.vol",
        "--composite", str(comp), "--out", str(tmp_path / "c"),
    ])
    assert rc == 0
    from certmap import certainty as ct
    from certmap.fit import fit_volume

    data = vol.ReplicationSet.from_container(vol.read_container(reps))
    fits = fit_volume(data)
    maps = ct.certainty_volume(fits, 122.0, tau_source="frontier")
    taus = vol.read_container(f"{tmp_path / 'c'}.tau.vol").values[0]
    np.testing.assert_array_equal(taus, maps.tau)
    decisions = vol.read_container(f"{tmp_path / 'c'}.decision.vol").values[0] > 0.5
    comp_vals = vol.read_container(comp).values[0]
    np.testing.assert_array_equal(decisions, comp_vals <= maps.tau)


def test_certainty_fdr_source_records_cutoff(fixture_volumes, tmp_path):
    reps, comp = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
    rc = main([
        "certainty", "--fits",
        f"{tmp_path / 'f'}.lambda.vol,{tmp_path / 'f'}.delta.vol",
        "--composite", str(comp), "--tau-source", "fdr:0.05",
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "c.manifest.json").read_text())
    assert manifest["config"]["tau_source"] == "fdr:0.05"
    cutoff = manifest["config"]["realized_fdr_cutoff"]
    from certmap.thresholding import bh_fdr
    comp_vals = vol.read_container(comp).values[0]
    want = bh_fdr(comp_vals, 0.05).realized_cutoff
    assert cutoff == want


def test_certainty_fdr_without_rejections(fixture_volumes, tmp_path):
    # no composite p passes BH: the realized cutoff is 0, a threshold that
    # declares nothing, so every voxel gets tau 0, NaN certainties and no
    # activation, and the command still succeeds
    reps, comp = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
    c = vol.read_container(comp)
    null_comp = tmp_path / "null.vol"
    vol.write_container(
        vol.VolumeContainer(kind="pvalue", dims=c.dims, mask=c.mask, dofs=c.dofs,
                            values=np.full_like(c.values, 0.9)),
        null_comp,
    )
    rc = main([
        "certainty", "--fits",
        f"{tmp_path / 'f'}.lambda.vol,{tmp_path / 'f'}.delta.vol",
        "--composite", str(null_comp), "--tau-source", "fdr:0.05",
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "c.manifest.json").read_text())
    assert manifest["config"]["realized_fdr_cutoff"] == 0.0
    assert manifest["config"]["n_active"] == 0
    out = {k: vol.read_container(tmp_path / f"c.{k}.vol").values[0]
           for k in ("tau", "rho_plus", "rho_minus", "decision")}
    assert np.all(out["tau"] == 0.0)
    assert np.isnan(out["rho_plus"]).all() and np.isnan(out["rho_minus"]).all()
    assert np.all(out["decision"] == 0.0)


def test_frontier_contains_fdr_on_fixture(tmp_path):
    # single documented seed; the statistical multi-seed version lives in
    # test_thresholding
    truth = sim.make_ground_truth(250, seed=3001)
    data = sim.generate_replications(truth, 12, seed=3001)
    comp = sim.make_composite(data)
    reps_path = tmp_path / "r.vol"
    comp_path = tmp_path / "c.vol"
    vol.write_container(data.to_container(), reps_path)
    vol.write_container(
        vol.VolumeContainer(kind="pvalue", dims=data.dims, mask=data.mask,
                            dofs=np.array([122.0]), values=comp[None, :]),
        comp_path,
    )
    main(["fit", "--input", str(reps_path), "--out", str(tmp_path / "f"),
          "--threads", "4"])
    fits = f"{tmp_path / 'f'}.lambda.vol,{tmp_path / 'f'}.delta.vol"
    main(["certainty", "--fits", fits, "--composite", str(comp_path),
          "--out", str(tmp_path / "front")])
    main(["certainty", "--fits", fits, "--composite", str(comp_path),
          "--tau-source", "fdr:0.05", "--out", str(tmp_path / "fdr")])
    d_front = vol.read_container(f"{tmp_path / 'front'}.decision.vol").values[0] > 0.5
    d_fdr = vol.read_container(f"{tmp_path / 'fdr'}.decision.vol").values[0] > 0.5
    assert np.all(d_front | ~d_fdr)


def test_simulate_deterministic_and_table_shape(tmp_path):
    args = ["simulate", "--N", "50", "--M-range", "2,12", "--seed", "99",
            "--out", str(tmp_path / "rep.tsv")]
    assert main(args) == 0
    first = (tmp_path / "rep.tsv").read_text()
    lines = first.strip().splitlines()
    assert lines[0] == "M\trmse_lambda\trmse_delta\tavg_shd"
    assert len(lines) == 3
    assert main(["simulate", "--N", "50", "--M-range", "2,12", "--seed", "99",
                 "--out", str(tmp_path / "rep2.tsv")]) == 0
    assert (tmp_path / "rep2.tsv").read_text() == first


def test_simulate_workers_bit_identical(tmp_path):
    base = ["simulate", "--N", "30", "--M-range", "3", "--seed", "5", "--out"]
    main(base + [str(tmp_path / "a.tsv"), "--threads", "1"])
    main(base + [str(tmp_path / "b.tsv"), "--threads", "8"])
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_overlap_identical_maps(tmp_path):
    mask = np.ones((1, 1, 6), dtype=bool)
    dec = np.array([1.0, 0, 1, 0, 0, 1])
    for name in ("m1", "m2"):
        vol.write_container(
            vol.VolumeContainer(kind="decision", dims=(6, 1, 1), mask=mask,
                                dofs=np.array([122.0]), values=dec[None, :]),
            tmp_path / f"{name}.vol",
        )
    rc = main(["overlap", "--maps", str(tmp_path / "m1.vol"),
               str(tmp_path / "m2.vol"), "--out", str(tmp_path / "r.tsv")])
    assert rc == 0
    rows = (tmp_path / "r.tsv").read_text().strip().splitlines()
    assert rows[0].split("\t") == ["1.0", "1.0"]
    assert rows[1].split("\t") == ["1.0", "1.0"]


def test_overlap_twelve_maps_summary(tmp_path):
    rng = np.random.default_rng(2)
    mask = np.ones((1, 1, 40), dtype=bool)
    paths = []
    for k in range(12):
        dec = (rng.random(40) < 0.3).astype(float)
        p = tmp_path / f"m{k}.vol"
        vol.write_container(
            vol.VolumeContainer(kind="decision", dims=(40, 1, 1), mask=mask,
                                dofs=np.array([122.0]), values=dec[None, :]),
            p,
        )
        paths.append(str(p))
    assert main(["overlap", "--maps", *paths, "--out", str(tmp_path / "r.tsv")]) == 0
    manifest = json.loads((tmp_path / "r.tsv.manifest.json").read_text())
    assert manifest["config"]["n_maps"] == 12
    for key in ("min", "max", "median", "iqr"):
        assert key in manifest["config"]


def test_overlap_hand_case(tmp_path):
    mask = np.ones((1, 1, 4), dtype=bool)
    decs = [np.array([1.0, 1, 0, 0]), np.array([1.0, 0, 1, 0]), np.array([0.0, 1, 1, 1])]
    paths = []
    for k, dec in enumerate(decs):
        p = tmp_path / f"m{k}.vol"
        vol.write_container(
            vol.VolumeContainer(kind="decision", dims=(4, 1, 1), mask=mask,
                                dofs=np.array([122.0]), values=dec[None, :]), p)
        paths.append(str(p))
    main(["overlap", "--maps", *paths, "--out", str(tmp_path / "r.tsv")])
    rows = (tmp_path / "r.tsv").read_text().strip().splitlines()
    got = [[float(v) for v in row.split("\t")] for row in rows[:3]]
    assert got[0][1] == pytest.approx(0.5)
    assert got[0][2] == pytest.approx(0.4)
    assert got[1][2] == pytest.approx(0.4)


def test_convert_zero_tstats(tmp_path):
    mask = np.ones((1, 1, 5), dtype=bool)
    vol.write_container(
        vol.VolumeContainer(kind="tstat", dims=(5, 1, 1), mask=mask,
                            dofs=np.array([122.0]), values=np.zeros((1, 5))),
        tmp_path / "t.vol",
    )
    assert main(["convert", "--tstats", str(tmp_path / "t.vol"), "--dof", "122",
                 "--out", str(tmp_path / "p.vol")]) == 0
    p = vol.read_container(tmp_path / "p.vol")
    assert p.kind == "pvalue"
    assert np.all(p.values == 0.5)


def test_split_reproducible_and_complementary(fixture_volumes, tmp_path):
    truth = sim.make_ground_truth(10, seed=44)
    data = sim.generate_replications(truth, 6, seed=44)
    src = tmp_path / "r6.vol"
    vol.write_container(data.to_container(), src)
    out = f"{tmp_path / 'a.vol'},{tmp_path / 'b.vol'}"
    assert main(["split", "--input", str(src), "--seed", "8", "--out", out]) == 0
    a = vol.read_container(tmp_path / "a.vol")
    b = vol.read_container(tmp_path / "b.vol")
    assert a.m == b.m == 3
    manifest = json.loads((tmp_path / "a.vol.manifest.json").read_text())
    idx = sorted(manifest["config"]["indices_a"] + manifest["config"]["indices_b"])
    assert idx == list(range(6))
    # re-merge recovers the original planes up to ordering
    merged = np.vstack([a.values, b.values])
    order = np.argsort(manifest["config"]["indices_a"] + manifest["config"]["indices_b"])
    np.testing.assert_array_equal(merged[order], data.pvalues)
    # same seed, same partition
    main(["split", "--input", str(src), "--seed", "8",
          "--out", f"{tmp_path / 'a2.vol'},{tmp_path / 'b2.vol'}"])
    assert (tmp_path / "a.vol").read_bytes() == (tmp_path / "a2.vol").read_bytes()


def test_dump_slice(fixture_volumes, tmp_path):
    reps, _ = fixture_volumes
    assert main(["dump", "--input", str(reps), "--slice", "0", "--rep", "2",
                 "--out", str(tmp_path / "d.tsv")]) == 0
    lines = (tmp_path / "d.tsv").read_text().strip().splitlines()
    assert lines[0] == "x\ty\tvalue"
    assert len(lines) == 17
    # every value is a plain float literal equal to the container's value
    c = vol.read_container(reps)
    full = np.full((1, 4, 4), np.nan)
    full[c.mask] = c.values[2]
    for line in lines[1:]:
        x, y, value = line.split("\t")
        assert float(value) == full[0, int(y), int(x)]


@pytest.mark.parametrize("rep", ["3", "-1"])
def test_dump_rejects_rep_outside_range(fixture_volumes, tmp_path, capsys, rep):
    reps, _ = fixture_volumes
    assert main(["dump", "--input", str(reps), "--slice", "0", "--rep", rep,
                 "--out", str(tmp_path / "d.tsv")]) == 2
    assert "outside 0..2" in capsys.readouterr().err
    assert not (tmp_path / "d.tsv").exists()


def test_path_pairs_need_two_paths(fixture_volumes, tmp_path, capsys):
    reps, comp = fixture_volumes
    assert main(["certainty", "--fits", str(reps), "--composite", str(comp),
                 "--out", str(tmp_path / "c")]) == 2
    assert "--fits needs two comma-separated paths" in capsys.readouterr().err
    assert main(["split", "--input", str(reps), "--seed", "1",
                 "--out", str(tmp_path / "a.vol")]) == 2
    assert "--out needs two comma-separated paths" in capsys.readouterr().err


@pytest.mark.parametrize("option, text", [
    ("--M-range", "2,,6"), ("--M-range", "3..2"), ("--M-range", "2..x"),
    ("--tau-source", "fdr:abc"), ("--tau-source", "fdr"), ("--tau-source", "bogus:0.05"),
    ("--tau-source", "fdr:1.5"), ("--M-range", "0,2"),
])
def test_malformed_option_names_itself(fixture_volumes, tmp_path, capsys, option, text):
    reps, comp = fixture_volumes
    if option == "--M-range":
        argv = ["simulate", "--N", "5", "--seed", "1"]
    else:
        main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
        argv = ["certainty", "--fits", f"{tmp_path}/f.lambda.vol,{tmp_path}/f.delta.vol",
                "--composite", str(comp)]
    capsys.readouterr()
    assert main([*argv, option, text, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{option}: " in err and repr(text) in err
    assert not list(tmp_path.glob("o*"))


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required flags
    assert exc.value.code == 1


@pytest.mark.parametrize("option", [["--restarts", "9"], ["--tol", "1e-9"]],
                         ids=["restarts", "tol"])
def test_fit_rejects_removed_options(fixture_volumes, tmp_path, option):
    # the profile-likelihood search has no restarts or tolerance to set
    reps, _ = fixture_volumes
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(reps), "--out", str(tmp_path / "f"), *option])
    assert exc.value.code == 1
    assert not (tmp_path / "f.lambda.vol").exists()


def test_threads_option_has_no_effect(fixture_volumes, tmp_path):
    reps, _ = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "a")])
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "b"), "--threads", "3"])
    manifest = json.loads((tmp_path / "b.manifest.json").read_text())
    assert manifest["config"]["threads"] == 3
    for suffix in ("lambda", "delta", "converged"):
        assert ((tmp_path / f"a.{suffix}.vol").read_bytes()
                == (tmp_path / f"b.{suffix}.vol").read_bytes())


def test_validation_error_exit_code(tmp_path):
    (tmp_path / "junk.vol").write_bytes(b"not a container")
    rc = main(["fit", "--input", str(tmp_path / "junk.vol"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_zero_replications_rejected(tmp_path, capsys):
    # a container that parses but holds no replication plane used to reach
    # the fit and fail there with numpy's message about an empty concatenate
    header = ("certmap-volume 1\nkind: pvalue\ndims: 2 1 1\nm: 0\ndofs: \n"
              "mask: rle 0 2\nendian: little\npayload-bytes: 0\npayload:\n")
    (tmp_path / "empty.vol").write_text(header)
    capsys.readouterr()
    assert main(["fit", "--input", str(tmp_path / "empty.vol"),
                 "--out", str(tmp_path / "f")]) == 2
    assert "m=0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.vol"]


@pytest.mark.parametrize("command, option, kind", [("fit", "--input", "pvalue"),
                                             ("convert", "--tstats", "tstat")])
@pytest.mark.parametrize("dof", ["0", "-3", "nan", "inf"])
def test_bad_container_dof_names_the_input(tmp_path, capsys, command, option, kind, dof):
    # a bad dof used to surface from the special functions, naming no file
    header = (f"certmap-volume 1\nkind: {kind}\ndims: 2 1 1\nm: 1\ndofs: {dof}\n"
              "mask: rle 0 2\nendian: little\npayload-bytes: 16\npayload:\n")
    path = tmp_path / "in.vol"
    path.write_bytes(header.encode() + np.array([0.25, 0.5], dtype="<f8").tobytes())
    capsys.readouterr()
    assert main([command, option, str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{path}: degrees of freedom must be finite and positive" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.vol"]


def test_numerical_error_removes_partial_outputs(fixture_volumes, tmp_path, monkeypatch):
    reps, _ = fixture_volumes
    import certmap.cli as cli_mod

    real = cli_mod._param_container
    calls = {"n": 0}

    def explode_on_second(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise FloatingPointError("forced")
        return real(*a, **kw)

    monkeypatch.setattr(cli_mod, "_param_container", explode_on_second)
    rc = main(["fit", "--input", str(reps), "--out", str(tmp_path / "boom")])
    assert rc == 3
    # the volume written before the failure was cleaned up
    assert not (tmp_path / "boom.lambda.vol").exists()


def test_failed_manifest_write_removes_outputs(fixture_volumes, tmp_path):
    # the manifest is written last; when it cannot be, the volumes written
    # before it go, and the inputs and the directory in the way stay
    reps, _ = fixture_volumes
    (tmp_path / "f.manifest.json").mkdir()
    assert main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "comp.vol", "f.manifest.json", "reps.vol"]


@pytest.mark.parametrize("command, bad, reason", [
    ("certainty", "{reps}", "expected one plane, got 3"),
    ("certainty", "{t}/f.lambda.vol", "expected a pvalue volume, got lambda"),
    ("overlap", "{t}/two.vol", "expected one plane, got 2"),
    ("certainty", "{t}/other_p.vol", "dims or mask differ from the other inputs"),
    ("overlap", "{t}/other_d.vol", "dims or mask differ from the other inputs"),
], ids=["composite_replications", "composite_lambda", "overlap_two_planes",
        "composite_other_grid", "overlap_other_grid"])
def test_inputs_are_not_collapsed(fixture_volumes, tmp_path, capsys, command, bad, reason):
    # the first three used to exit 0 reading plane 0, or lambda as p-values
    reps, comp = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
    c = vol.read_container(comp)
    other = c.mask.copy()
    other[0, 0, 0] = False
    for name, kind, mask, values in (
        ("two.vol", "decision", c.mask, np.zeros((2, c.n_masked))),
        ("other_p.vol", "pvalue", other, c.values[:, 1:]),
        ("other_d.vol", "decision", other, c.values[:, 1:]),
    ):
        vol.write_container(vol.VolumeContainer(kind=kind, dims=c.dims, mask=mask,
                                                dofs=np.full(len(values), 122.0),
                                                values=values), tmp_path / name)
    bad = bad.format(t=tmp_path, reps=reps)
    if command == "certainty":
        argv = ["certainty", "--fits", f"{tmp_path}/f.lambda.vol,{tmp_path}/f.delta.vol",
                "--composite", bad]
    else:
        argv = ["overlap", "--maps", f"{tmp_path}/f.converged.vol", bad]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert f"{bad}: {reason}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "{reps}", "--out", "{t}/o"],
    ["certainty", "--fits", "{t}/f.lambda.vol,{t}/f.delta.vol", "--composite", "{comp}",
     "--out", "{t}/o"],
    ["simulate", "--N", "20", "--M-range", "2", "--seed", "1", "--out", "{t}/o"],
    ["overlap", "--maps", "{t}/f.converged.vol", "{t}/f.converged.vol", "--out", "{t}/o"],
    ["convert", "--tstats", "{t}/t.vol", "--out", "{t}/o"],
    ["split", "--input", "{t}/r4.vol", "--seed", "1", "--out", "{t}/o,{t}/o2"],
    ["dump", "--input", "{reps}", "--slice", "0", "--out", "{t}/o"],
], ids=lambda argv: argv[0])
def test_manifest_keys_and_outputs(fixture_volumes, tmp_path, argv):
    reps, comp = fixture_volumes
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
    c = vol.read_container(reps)
    for name, kind, m in (("t.vol", "tstat", 3), ("r4.vol", "pvalue", 4)):
        vol.write_container(
            vol.VolumeContainer(kind=kind, dims=c.dims, mask=c.mask, dofs=np.full(m, 122.0),
                                values=c.values[np.arange(m) % 3]), tmp_path / name)
    assert main([a.format(t=tmp_path, reps=reps, comp=comp) for a in argv]) == 0
    manifest = json.loads((tmp_path / "o.manifest.json").read_text())
    assert set(manifest) == {"tool", "version", "subcommand", "inputs", "outputs",
                             "config", "seed", "wall_time_s"}
    assert manifest["subcommand"] == argv[0]
    assert manifest["outputs"]
    for path in manifest["outputs"].values():
        assert Path(path).is_file()


def test_inputs_never_mutated(fixture_volumes, tmp_path):
    reps, comp = fixture_volumes
    before = reps.read_bytes()
    main(["fit", "--input", str(reps), "--out", str(tmp_path / "f")])
    assert reps.read_bytes() == before


def test_commands_import_no_interpolate_or_linalg():
    # importing scipy.interpolate or scipy.linalg costs more than a small
    # volume's whole fit; no certmap code path needs either
    import os
    import subprocess
    import sys
    from pathlib import Path

    import certmap

    script = (
        "import sys\n"
        "from certmap import certainty, cli, fit, simulate\n"
        "truth = simulate.make_ground_truth(8, seed=3)\n"
        "fits = fit.fit_volume(simulate.generate_replications(truth, 4, seed=3))\n"
        "certainty.certainty_volume(fits, truth.nu)\n"
        "print(sorted(m for m in ('scipy.interpolate', 'scipy.linalg') if m in sys.modules))\n"
    )
    src = str(Path(certmap.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
