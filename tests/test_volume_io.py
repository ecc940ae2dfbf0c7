"""Tests for the volume container format, conversions and CSV import."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from certmap import volume as vol
from certmap import model as md
from certmap import special as sp
from certmap.model import PValueVector

from oracles import t_cdf_quad

T_TO_P_19799_122 = 0.0249829098034501082  # 1 - t_cdf oracle at 1.9799


def _container(seed=0, dims=(2, 2, 2), m=12, kind="pvalue", mask_frac=1.0):
    rng = np.random.default_rng(seed)
    nx, ny, nz = dims
    mask = rng.random((nz, ny, nx)) < mask_frac
    if not mask.any():
        mask[0, 0, 0] = True
    n = int(mask.sum())
    values = rng.uniform(1e-10, 1 - 1e-10, (m, n))
    return vol.VolumeContainer(
        kind=kind, dims=dims, mask=mask, dofs=np.full(m, 122.0), values=values
    )


def test_roundtrip_bit_identical(tmp_path):
    c = _container()
    path = tmp_path / "vol.bin"
    vol.write_container(c, path)
    r = vol.read_container(path)
    assert r.kind == c.kind
    assert r.dims == c.dims
    np.testing.assert_array_equal(r.mask, c.mask)
    np.testing.assert_array_equal(r.dofs, c.dofs)
    assert r.values.tobytes() == c.values.tobytes()
    # writing the read container reproduces the file byte for byte
    path2 = tmp_path / "vol2.bin"
    vol.write_container(r, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("kind", vol.VALUE_KINDS)
def test_roundtrip_every_value_kind(tmp_path, kind):
    c = _container(kind=kind, m=1 if kind != "pvalue" else 3)
    path = tmp_path / f"{kind}.vol"
    vol.write_container(c, path)
    r = vol.read_container(path)
    assert r.values.tobytes() == c.values.tobytes()


def test_truncated_payload_reports_lengths(tmp_path):
    c = _container()
    path = tmp_path / "vol.bin"
    vol.write_container(c, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(vol.TruncatedPayloadError) as err:
        vol.read_container(path)
    assert err.value.expected == 8 * c.m * c.n_masked
    assert err.value.actual == err.value.expected - 8
    assert "offset" in str(err.value)


def test_payload_length_mismatch_names_its_direction(tmp_path):
    # a short payload is truncated; a long one carries trailing bytes, named
    # by their count and offset, and is not reported as truncated
    c = _container(dims=(2, 1, 1), m=1)
    path = tmp_path / "vol.bin"
    vol.write_container(c, path)
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(8))
    with pytest.raises(vol.ContainerError) as err:
        vol.read_container(path)
    assert not isinstance(err.value, vol.TruncatedPayloadError)
    assert "8 trailing bytes after the declared payload-bytes 16" in str(err.value)
    assert err.value.offset == len(raw)
    path.write_bytes(raw[:-8])
    with pytest.raises(vol.TruncatedPayloadError, match="expected 16 bytes, found 8") as err:
        vol.read_container(path)
    assert err.value.offset == len(raw) - 8


@pytest.mark.parametrize("kind_name", ["pvalue", "rho_plus", "tau"])
def test_read_values_view_the_one_buffer_read(tmp_path, kind_name):
    # the file is read once, into a buffer the values view without a copy,
    # so reading traces one payload-sized allocation, not two. The header's
    # length differs with the kind's name, yet the view is 8-byte aligned,
    # so numpy sums it as it sums an owned array, and it can be written
    c = _container(seed=9, dims=(100, 100, 1), m=3 if kind_name == "pvalue" else 1,
                   kind=kind_name)
    path = tmp_path / "vol.bin"
    vol.write_container(c, path)
    vol.read_container(path)
    tracemalloc.start()
    try:
        r = vol.read_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * c.values.nbytes + 65536
    assert r.values.flags.aligned and r.values.flags.writeable
    assert r.values.sum(axis=1).tobytes() == c.values.sum(axis=1).tobytes()
    r.values[0, 0] = 0.5
    assert r.values[0, 0] == 0.5


def test_read_container_from_a_pipe(tmp_path):
    # a file without a size, as a named pipe, reads as the regular file does
    c = _container(seed=4, dims=(5, 3, 2), m=2)
    path, pipe = tmp_path / "vol.bin", tmp_path / "vol.fifo"
    vol.write_container(c, path)
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
    writer.start()
    try:
        r = vol.read_container(pipe)
    finally:
        writer.join(timeout=10.0)
    assert not writer.is_alive()
    assert r.values.tobytes() == c.values.tobytes()
    np.testing.assert_array_equal(r.mask, c.mask)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"who-knows 1\npayload:\n")
    with pytest.raises(vol.ContainerError):
        vol.read_container(path)


def test_mask_dims_consistency_checked(tmp_path):
    c = _container()
    path = tmp_path / "vol.bin"
    vol.write_container(c, path)
    raw = path.read_bytes().replace(b"dims: 2 2 2", b"dims: 3 2 2")
    path.write_bytes(raw)
    with pytest.raises(vol.ContainerError):
        vol.read_container(path)


def test_damaged_container_reads_or_raises_container_error(tmp_path):
    # every cut of the file and every single-bit flip of its header either
    # reads or fails with a ContainerError, never with another exception
    c = _container(seed=3, dims=(4, 3, 2), m=3, mask_frac=0.6)
    path = tmp_path / "vol.bin"
    vol.write_container(c, path)
    raw = path.read_bytes()
    damaged = [raw[:k] for k in range(len(raw))]
    for i in range(raw.index(b"payload:\n") + len(b"payload:\n")):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            damaged.append(bytes(flipped))
    for data in damaged:
        path.write_bytes(data)
        try:
            vol.read_container(path)
        except vol.ContainerError:
            pass


def test_masked_payload_length():
    c = _container(dims=(3, 1, 1), m=12, mask_frac=1.0)
    assert c.values.size == 36


def test_mask_rle_roundtrip():
    rng = np.random.default_rng(5)
    flat = rng.random(97) < 0.3
    runs = vol._mask_to_rle(flat)
    back = vol._rle_to_mask(runs, flat.size)
    np.testing.assert_array_equal(back, flat)
    # a negative run, runs that overrun dims, runs that fall short of them
    for bad in ([-1, 98], [97, 5, -5], [50, 48], [50, 46], []):
        with pytest.raises(vol.ContainerError, match="inconsistent with dims"):
            vol._rle_to_mask(bad, flat.size)


def test_t_to_p_basics():
    assert vol.t_to_p(0.0, 122) == 0.5
    assert vol.t_to_p(40.0, 122) < 1e-30
    got = vol.t_to_p(1.9799, 122)
    assert got == pytest.approx(T_TO_P_19799_122, abs=1e-12)
    assert got == pytest.approx(1.0 - t_cdf_quad(1.9799, 122), abs=1e-12)


def test_t_to_p_monotone():
    t = np.linspace(-8, 8, 201)  # beyond |t|~9 at nu=122, p saturates in float
    p = vol.t_to_p(t, 122)
    assert np.all(np.diff(p) < 0)
    wide = vol.t_to_p(np.linspace(-30, 30, 121), 122)
    assert np.all(np.diff(wide) <= 0)


@pytest.mark.parametrize("size", [1, 7])
def test_t_to_p_bit_identical_under_any_voxel_slice(monkeypatch, size):
    # t_to_p converts slice by slice along the voxel axis
    # (model._voxel_slices), which moves no bit
    t = np.random.default_rng(8).normal(1.0, 3.0, (3, 50))
    monkeypatch.setattr(md, "_VOXEL_SLICE", t.shape[1])
    whole = vol.t_to_p(t, 122.0)
    monkeypatch.setattr(md, "_VOXEL_SLICE", size)
    assert vol.t_to_p(t, 122.0).tobytes() == whole.tobytes()
    assert vol.t_to_p(t[0], 122.0).tobytes() == whole[0].tobytes()


def test_t_to_p_rejects_nonfinite():
    with pytest.raises(ValueError):
        vol.t_to_p(np.array([1.0, np.inf]), 122)


def test_replication_set_clamps_and_counts():
    mask = np.ones((1, 1, 2), dtype=bool)
    pv = np.array([[0.0, 0.5], [1.0, 0.25], [0.5, 0.125]])
    rs = vol.ReplicationSet(dims=(2, 1, 1), mask=mask, dofs=np.full(3, 122.0), pvalues=pv)
    assert rs.clamp_counts.tolist() == [2, 0]
    assert rs.pvalues[0, 0] == 1e-12


def test_replication_set_subset():
    c = _container(m=6)
    rs = vol.ReplicationSet.from_container(c)
    sub = rs.subset([1, 4])
    assert sub.m == 2
    np.testing.assert_array_equal(sub.pvalues[0], rs.pvalues[1])
    np.testing.assert_array_equal(sub.pvalues[1], rs.pvalues[4])


def test_replication_set_subset_keeps_clamp_counts():
    mask = np.ones((1, 1, 3), dtype=bool)
    pv = np.array([[0.0, 0.5, 1.0], [0.2, 0.0, 0.3]])
    rs = vol.ReplicationSet(dims=(3, 1, 1), mask=mask, dofs=np.full(2, 122.0), pvalues=pv)
    assert rs.clamp_counts.tolist() == [1, 1, 1]
    assert rs.subset([0, 1]).clamp_counts.tolist() == [1, 1, 1]
    assert rs.subset([0]).clamp_counts.tolist() == [1, 0, 1]
    assert rs.subset([1]).clamp_counts.tolist() == [0, 1, 0]


def _replication_set(pvalues, dofs=(122.0, 122.0), n_masked=3):
    mask = np.arange(4).reshape(1, 1, 4) < n_masked
    return vol.ReplicationSet(dims=(4, 1, 1), mask=mask, dofs=np.asarray(dofs), pvalues=pvalues)


GOOD = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])


def _good_with(value):
    pvalues = GOOD.copy()
    pvalues[0, 1] = value
    return pvalues


@pytest.mark.parametrize("build", [
    lambda: _replication_set(_good_with(np.nan)),
    lambda: _replication_set(_good_with(-1e-300)),
    lambda: _replication_set(_good_with(1.0 + 1e-15)),
    lambda: PValueVector(_good_with(np.nan)[0], 122.0),
    lambda: PValueVector(_good_with(-1e-300)[0], 122.0),
    lambda: PValueVector(_good_with(1.0 + 1e-15)[0], 122.0),
    lambda: _replication_set(GOOD, dofs=(122.0, 122.0, 122.0)),
    lambda: _replication_set(GOOD, n_masked=2),
    lambda: _replication_set(GOOD[0], dofs=(122.0,)),
], ids=["set-nan", "set-negative", "set-above-one", "vector-nan", "vector-negative",
        "vector-above-one", "set-dofs-per-plane", "set-columns-per-mask", "set-1d"])
def test_constructors_reject_invalid_pvalues_and_geometry(build):
    _replication_set(GOOD)
    PValueVector(GOOD[0], 122.0)
    with pytest.raises(ValueError):
        build()


def test_zero_replications_rejected():
    with pytest.raises(vol.ContainerError, match="m=0"):
        _replication_set(np.empty((0, 3)), dofs=())


def _write_csv(path, rows, header="x,y,z,rep,pvalue"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def test_import_csv_single_voxel(tmp_path):
    path = tmp_path / "in.csv"
    _write_csv(path, [(0, 0, 0, j, (j + 1) / 13) for j in range(12)])
    rs = vol.import_csv(path, dofs=122.0)
    assert rs.m == 12
    assert rs.n_masked == 1
    assert rs.pvalues[3, 0] == pytest.approx(4 / 13)


def test_import_csv_duplicate_row_named(tmp_path):
    path = tmp_path / "dup.csv"
    _write_csv(path, [(0, 0, 0, 1, 0.5), (0, 0, 0, 1, 0.6)])
    with pytest.raises(vol.SchemaError, match=r"\(0, 0, 0\)"):
        vol.import_csv(path, dofs=122.0)


def test_import_csv_missing_rep(tmp_path):
    path = tmp_path / "miss.csv"
    _write_csv(path, [(0, 0, 0, 1, 0.5), (0, 0, 0, 2, 0.6), (1, 0, 0, 1, 0.3)])
    with pytest.raises(vol.SchemaError, match="missing replication"):
        vol.import_csv(path, dofs=122.0)


def test_import_csv_tstat_matches_t_to_p(tmp_path):
    path = tmp_path / "t.csv"
    tstats = [(0, 0, 0, 1, 1.9799), (0, 0, 0, 2, 0.0), (1, 0, 0, 1, -1.0), (1, 0, 0, 2, 3.0)]
    _write_csv(path, tstats, header="x,y,z,rep,tstat")
    rs = vol.import_csv(path, dofs=122.0)
    assert rs.pvalues[0, 0] == pytest.approx(vol.t_to_p(1.9799, 122.0))
    assert rs.pvalues[1, 0] == 0.5
    assert rs.pvalues[0, 1] == pytest.approx(vol.t_to_p(-1.0, 122.0))


def test_import_csv_tstat_sidecar_dofs(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, [(0, 0, 0, 1, 1.0), (0, 0, 0, 2, 1.0)], header="x,y,z,rep,tstat")
    with pytest.raises(vol.SchemaError, match="dofs"):
        vol.import_csv(path)
    (tmp_path / "t.csv.dofs").write_text("122\n60\n")
    rs = vol.import_csv(path)
    assert rs.dofs.tolist() == [122.0, 60.0]
    assert rs.pvalues[0, 0] != rs.pvalues[1, 0]


def test_import_csv_sidecar_dofs_line_named(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, [(0, 0, 0, 1, 1.0)], header="x,y,z,rep,tstat")
    (tmp_path / "t.csv.dofs").write_text("abc\n")
    with pytest.raises(vol.SchemaError) as err:
        vol.import_csv(path)
    assert f"{path}.dofs: line 1: not a number: abc" in str(err.value)


def test_import_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, [(0, 0, 0, 1, 0.5)], header="a,b,c,d,e")
    with pytest.raises(vol.SchemaError):
        vol.import_csv(path, dofs=122.0)


def test_import_csv_unmasked_voxels(tmp_path):
    # voxels absent from the file stay unmasked
    path = tmp_path / "sparse.csv"
    _write_csv(path, [(0, 0, 0, 1, 0.5), (2, 1, 0, 1, 0.3)])
    rs = vol.import_csv(path, dofs=122.0)
    assert rs.dims == (3, 2, 1)
    assert rs.n_masked == 2
    assert rs.mask[0, 0, 0] and rs.mask[0, 1, 2]
    assert not rs.mask[0, 0, 1]


def test_import_csv_columns_follow_payload_order(tmp_path):
    # voxels whose lexicographic (x, y, z) order differs from the x-fastest
    # payload order must still land on the right mask positions
    path = tmp_path / "order.csv"
    _write_csv(path, [(1, 0, 0, 0, 0.111), (0, 1, 0, 0, 0.222)])
    rs = vol.import_csv(path, dofs=122.0)
    c = rs.to_container()
    full = np.full(c.mask.shape, np.nan)
    full[c.mask] = c.values[0]
    assert full[0, 0, 1] == 0.111
    assert full[0, 1, 0] == 0.222


def test_import_csv_bit_identical_to_replication_set(tmp_path):
    # shuffled rows, 1-based replications, t statistics with one dof per
    # replication and a sparse mask give the ReplicationSet of the arrays
    rng = np.random.default_rng(11)
    dims, m = (4, 3, 2), 5
    mask = rng.random((2, 3, 4)) < 0.4
    dofs = rng.uniform(8.0, 150.0, m)
    tstats = rng.normal(0.0, 3.0, (m, int(mask.sum())))
    expected = vol.ReplicationSet(
        dims=dims, mask=mask, dofs=dofs,
        pvalues=np.array([vol.t_to_p(t, d) for t, d in zip(tstats, dofs)]))
    z, y, x = np.nonzero(mask)
    rows = [(x[i], y[i], z[i], j + 1, repr(float(tstats[j, i])))
            for i in range(x.size) for j in range(m)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    path = tmp_path / "t.csv"
    _write_csv(path, rows, header="x,y,z,rep,tstat")
    got = vol.import_csv(path, dofs=dofs)
    assert got.dims == expected.dims
    for name in ("mask", "dofs", "pvalues", "clamp_counts"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("row, reason", [
    ((0, 0, 0, 2, "abc"), "line 3: not five numbers"),
    ((1.5, 0, 0, 2, 0.5), "line 3: x, y, z and rep must be integers"),
    ((0, 0, 0, 2), "line 3: expected 5 columns, got 4"),
    # 1e20 would wrap in the int64 cast; 1e11 would ask for a 93 GiB mask
    ((1e20, 0, 0, 2, 0.5), "line 3: x, y, z and rep must be below 2**31 in magnitude"),
    ((1e11, 0, 0, 2, 0.5), "line 3: x, y, z and rep must be below 2**31 in magnitude"),
    ((0, -1e20, 0, 2, 0.5), "line 3: x, y, z and rep must be below 2**31 in magnitude"),
], ids=["non-numeric", "fractional-coordinate", "four-columns", "x-1e20", "x-1e11", "y-minus-1e20"])
def test_import_csv_malformed_row_named(tmp_path, row, reason):
    path = tmp_path / "bad.csv"
    _write_csv(path, [(0, 0, 0, 1, 0.5), row, (0, 0, 0, 3, 0.5)])
    with pytest.raises(vol.SchemaError) as err:
        vol.import_csv(path, dofs=122.0)
    assert f"{path}: {reason}" in str(err.value)


def test_import_csv_grid_too_large_to_index(tmp_path):
    # each coordinate passes the 2**31 check, but the grid's 2**93 cells do
    # not fit a flat index
    path = tmp_path / "huge.csv"
    _write_csv(path, [(2147483647, 2147483647, 2147483647, 0, 0.5)])
    with pytest.raises(vol.SchemaError) as err:
        vol.import_csv(path, dofs=122.0)
    assert f"{path}: a 2147483648 x 2147483648 x 2147483648 grid with M = 1" in str(err.value)


def test_import_csv_grid_too_large_to_allocate(tmp_path):
    # 2**60 cells fit a flat index, but no host holds the 1 EiB mask
    path = tmp_path / "vast.csv"
    _write_csv(path, [(1048575, 1048575, 1048575, 0, 0.5)])
    with pytest.raises(vol.SchemaError) as err:
        vol.import_csv(path, dofs=122.0)
    assert f"{path}: a 1048576 x 1048576 x 1048576 grid is too large" in str(err.value)


def test_import_csv_reads_integral_floats(tmp_path):
    # coordinates and replication numbers written as floats name the same
    # voxel and replication as the integers
    as_ints, as_floats = tmp_path / "i.csv", tmp_path / "f.csv"
    rows = [(2, 0, 1, 1, 0.25), (0, 1, 0, 1, 0.5), (2, 0, 1, 2, 0.75), (0, 1, 0, 2, 0.125)]
    _write_csv(as_ints, rows)
    _write_csv(as_floats, [(float(x), float(y), f"{z}.0", f"{r}e0", p) for x, y, z, r, p in rows])
    a, b = vol.import_csv(as_ints, dofs=122.0), vol.import_csv(as_floats, dofs=122.0)
    assert a.dims == b.dims == (3, 2, 2)
    np.testing.assert_array_equal(a.mask, b.mask)
    assert a.pvalues.tobytes() == b.pvalues.tobytes()
