"""Bit-exact ingestion and emission of masked 3-D volumes.

The on-disk container is a short text header followed by a raw little-endian
float64 payload holding only the masked voxels, x-fastest then y then z,
replication-major. Round-tripping a container reproduces it byte for byte.

    certmap-volume 1
    kind: pvalue
    dims: 4 4 1
    m: 3
    dofs: 122.0 122.0 122.0
    mask: rle 0 16
    endian: little
    payload-bytes: 384
    payload:
    <raw float64 little-endian bytes>

The mask run-length encoding lists run lengths of alternating False/True
values starting with False, in the same x-fastest order as the payload.

Each payload is held once: read_container checks the header, then reads the
payload straight into the values' array, and write_container writes that array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import special
from .model import _voxel_slices, clamp_pvalues

__all__ = [
    "VALUE_KINDS",
    "ContainerError",
    "TruncatedPayloadError",
    "SchemaError",
    "VolumeContainer",
    "ReplicationSet",
    "read_container",
    "write_container",
    "t_to_p",
    "import_csv",
]

MAGIC = "certmap-volume"
VERSION = 1
VALUE_KINDS = (
    "pvalue",
    "tstat",
    "lambda",
    "delta",
    "tau",
    "rho_plus",
    "rho_minus",
    "auc",
    "decision",
)


class ContainerError(ValueError):
    """Malformed volume container."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TruncatedPayloadError(ContainerError):
    def __init__(self, expected, actual, offset):
        super().__init__(
            f"payload truncated: expected {expected} bytes, found {actual}",
            offset=offset,
        )
        self.expected = expected
        self.actual = actual


class SchemaError(ValueError):
    """CSV input violates the import schema."""


def _mask_to_rle(mask_flat):
    arr = np.asarray(mask_flat, dtype=bool)
    change = np.flatnonzero(np.diff(arr))
    runs = np.diff(np.concatenate([[0], change + 1, [arr.size]])).tolist()
    if arr[0]:
        runs = [0] + runs  # runs alternate starting with a False run
    return runs


def _rle_to_mask(runs, n):
    # the sum first: n > 0, so runs that sum to n are nonempty and have a min
    if sum(runs) != n or min(runs) < 0:
        raise ContainerError("mask run-length encoding inconsistent with dims")
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs)


@dataclass
class VolumeContainer:
    """One value kind over a masked 3-D grid, with M planes for replicated kinds.

    dims is (nx, ny, nz); mask has shape (nz, ny, nx) so that .ravel() is
    x-fastest; values has shape (m, n_masked).
    """

    kind: str
    dims: tuple
    mask: np.ndarray
    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in VALUE_KINDS:
            raise ContainerError(f"unknown value kind {self.kind!r}")
        nx, ny, nz = (int(d) for d in self.dims)
        if min(nx, ny, nz) <= 0:
            raise ContainerError(f"dims must be positive, got {self.dims!r}")
        self.dims = (nx, ny, nz)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (nz, ny, nx):
            raise ContainerError(
                f"mask shape {self.mask.shape} does not match dims {self.dims} "
                "(expected (nz, ny, nx))"
            )
        self.dofs = np.atleast_1d(np.asarray(self.dofs, dtype=np.float64))
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[None, :]
        m = self.values.shape[0]
        if m < 1:
            raise ContainerError(f"need at least one replication, got m={m}")
        if self.dofs.size != m:
            raise ContainerError(f"dofs length {self.dofs.size} does not match m={m}")
        bad = ~(np.isfinite(self.dofs) & (self.dofs > 0.0))
        if bad.any():
            raise ContainerError(
                f"degrees of freedom must be finite and positive, got {float(self.dofs[bad][0])!r}")
        if self.values.shape[1] != self.n_masked:
            raise ContainerError(
                f"payload length {self.values.shape[1]} does not match "
                f"{self.n_masked} masked voxels"
            )

    @property
    def m(self):
        return self.values.shape[0]

    @property
    def n_masked(self):
        return int(np.count_nonzero(self.mask))


def write_container(container, path):
    """Write container to path; the payload goes out from the values' own
    array, with no copy when they are contiguous float64 on a little-endian host."""
    runs = _mask_to_rle(container.mask.ravel())
    payload = np.ascontiguousarray(container.values, dtype="<f8")
    header = "\n".join(
        [
            f"{MAGIC} {VERSION}",
            f"kind: {container.kind}",
            "dims: {} {} {}".format(*container.dims),
            f"m: {container.m}",
            "dofs: " + " ".join(repr(float(d)) for d in container.dofs),
            "mask: rle " + " ".join(str(r) for r in runs),
            "endian: little",
            f"payload-bytes: {payload.nbytes}",
            "payload:",
            "",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(payload)


def _parse(name, text, convert):
    """convert(text) for one header field, or a ContainerError naming it."""
    try:
        return convert(text)
    except ValueError:
        raise ContainerError(f"header field {name!r} cannot be parsed: {text!r}",
                             offset=0) from None


def _ints(text):
    return [int(v) for v in text.split()]


_SEPARATOR = b"payload:\n"


def _read_header(fh):
    """(kind, dims, dofs, mask, payload offset) from the header of the open
    container fh, checked; fh is left at the payload. The header ends with
    the first line that ends in 'payload:\\n', which is not part of its text."""
    lines = [b""]
    while not lines[-1].endswith(_SEPARATOR):
        lines.append(fh.readline())
        if not lines[-1]:
            raise ContainerError("missing payload separator", offset=sum(map(len, lines)))
    header = b"".join(lines)
    lines = header[:-len(_SEPARATOR)].decode("utf-8", errors="replace").splitlines()
    if not lines:
        raise ContainerError("empty header", offset=0)
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != MAGIC:
        raise ContainerError(f"bad magic line {lines[0]!r}", offset=0)
    if _parse("version", magic[1], int) != VERSION:
        raise ContainerError(f"unsupported format version {magic[1]}", offset=0)

    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    for required in ("kind", "dims", "m", "dofs", "mask", "endian", "payload-bytes"):
        if required not in fields:
            raise ContainerError(f"header missing field {required!r}", offset=0)
    if fields["endian"] != "little":
        raise ContainerError(f"unsupported endianness {fields['endian']!r}")

    dims = tuple(_parse("dims", fields["dims"], _ints))
    if len(dims) != 3 or min(dims) <= 0:
        raise ContainerError(f"dims must be 3 positive integers, got {fields['dims']!r}")
    m = _parse("m", fields["m"], int)
    if m < 1:
        raise ContainerError(f"need at least one replication, got m={m}")
    dofs = np.array(_parse("dofs", fields["dofs"], lambda t: [float(v) for v in t.split()]))
    if dofs.size != m:
        raise ContainerError(f"dofs length {dofs.size} does not match m={m}")
    mask_parts = fields["mask"].split()
    if not mask_parts or mask_parts[0] != "rle":
        raise ContainerError(f"unsupported mask encoding {fields['mask']!r}")
    nx, ny, nz = dims
    if nx * ny * nz > np.iinfo(np.intp).max:
        raise ContainerError(f"a {nx} x {ny} x {nz} grid has too many cells to index")
    runs = _parse("mask", " ".join(mask_parts[1:]), _ints)
    try:
        mask = _rle_to_mask(runs, nx * ny * nz).reshape(nz, ny, nx)
    except MemoryError:
        raise ContainerError(f"a {nx} x {ny} x {nz} grid is too large for its mask to fit in "
                             "memory") from None

    n_masked = int(np.count_nonzero(mask))
    expected = _parse("payload-bytes", fields["payload-bytes"], int)
    if expected != 8 * m * n_masked:
        raise ContainerError(
            f"declared payload-bytes {expected} does not match m={m} x "
            f"n_masked={n_masked} float64 values"
        )
    return fields["kind"], dims, dofs, mask, len(header)


def read_container(path):
    """The container at path. The header is read and checked first, then the
    payload straight into the values' own array (aligned, writable, and not
    copied on a little-endian host), so ingest holds one payload-sized array.
    Reads repeat until it is full or the file ends, so pipes read as files do."""
    with open(path, "rb") as fh:
        kind, dims, dofs, mask, offset = _read_header(fh)
        m, n_masked = dofs.size, int(np.count_nonzero(mask))
        try:
            values = np.empty(m * n_masked, "<f8")
        except MemoryError:
            raise ContainerError(f"a payload of {8 * m * n_masked} bytes is too large to fit "
                                 "in memory", offset=offset) from None
        view, found = memoryview(values).cast("B"), 0
        while found < values.nbytes and (n := fh.readinto(view[found:])):
            found += n
        trailing = len(fh.read())
    if found < values.nbytes:
        raise TruncatedPayloadError(values.nbytes, found, offset=offset + found)
    if trailing:
        raise ContainerError(f"{trailing} trailing bytes after the declared "
                             f"payload-bytes {values.nbytes}", offset=offset + values.nbytes)
    values = values.reshape(m, n_masked)  # the container makes it native float64
    return VolumeContainer(kind=kind, dims=dims, mask=mask, dofs=dofs, values=values)


@dataclass
class ReplicationSet:
    """Masked geometry plus the M x N_masked replicated p-values.

    The geometry is checked as a pvalue VolumeContainer's, the p-values by
    model.clamp_pvalues; clamp_counts records how many values per voxel sit
    at a clamp bound, so a subset keeps its share of the count.
    """

    dims: tuple
    mask: np.ndarray
    dofs: np.ndarray
    pvalues: np.ndarray
    clamp_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.pvalues = np.asarray(self.pvalues, dtype=np.float64)
        if self.pvalues.ndim != 2:
            raise ValueError("pvalues must be an (m, n_masked) array")
        # the container checks dims, mask, dofs and the plane and column counts
        geometry = self.to_container()
        self.dims, self.mask, self.dofs = geometry.dims, geometry.mask, geometry.dofs
        self.pvalues, per_voxel = clamp_pvalues(self.pvalues, axis=0)
        self.clamp_counts = per_voxel.astype(np.int64)

    @property
    def m(self):
        return self.pvalues.shape[0]

    @property
    def n_masked(self):
        return int(np.count_nonzero(self.mask))

    def subset(self, rep_indices):
        """New ReplicationSet restricted to the given replication indices."""
        idx = np.asarray(rep_indices, dtype=int)
        return ReplicationSet(
            dims=self.dims,
            mask=self.mask.copy(),
            dofs=self.dofs[idx],
            pvalues=self.pvalues[idx, :],
        )

    def to_container(self):
        return VolumeContainer(
            kind="pvalue", dims=self.dims, mask=self.mask,
            dofs=self.dofs, values=self.pvalues,
        )

    @classmethod
    def from_container(cls, container):
        if container.kind != "pvalue":
            raise ValueError(f"expected a pvalue container, got kind {container.kind!r}")
        return cls(
            dims=container.dims,
            mask=container.mask,
            dofs=container.dofs,
            pvalues=container.values,
        )


def _check_tstats(tstats):
    bad = ~np.isfinite(tstats)
    if bad.any():
        raise ValueError(f"t statistics must be finite, got {float(tstats[bad].flat[0])!r}")


def t_to_p(tstats, dofs):
    """One-sided upper-tail p-values of t statistics: p = P(t_nu >= T).

    Strictly decreasing in T. Non-finite statistics raise. dofs is a scalar
    or one dof per plane (row of an (m, n) array). The values are converted
    in fixed slices of voxels along the last axis (model._voxel_slices), one
    special.t_sf call per distinct dof per slice, into one output array, so
    the working set beyond input and output does not grow with the mask.
    """
    arr, shape = special._prep(tstats)
    _check_tstats(arr)
    planes = arr.reshape(-1, arr.shape[-1])
    nus = np.broadcast_to(np.asarray(dofs, dtype=np.float64), arr.shape[:-1]).ravel()
    rows = [(nu, np.flatnonzero(nus == nu)) for nu in np.unique(nus)]
    out = np.empty(planes.shape)
    for s in _voxel_slices(arr.shape[-1]):
        for nu, k in rows:
            out[k, s] = special.t_sf(planes[k, s], nu)
    return special._shaped(out, shape)


# bound on |x|, |y|, |z| and |rep|: larger values would wrap in the int64
# cast or ask for a mask of many GiB
_COORD_LIMIT = 2.0 ** 31


def _row_error(path):
    """SchemaError naming the line of the first faulty CSV data row; np.loadtxt's
    messages count rows from the data and skip blank lines, so they cannot."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            where = f"{path}: line {lineno}"
            cells = [c.strip().strip('"') for c in line.rstrip("\n").split(",")]
            if cells == [""]:
                continue
            if len(cells) != 5:
                return SchemaError(f"{where}: expected 5 columns, got {len(cells)}")
            try:
                numbers = [float(c) for c in cells]
            except ValueError:
                return SchemaError(f"{where}: not five numbers: {line.strip()}")
            if not all(v.is_integer() for v in numbers[:4]):
                return SchemaError(f"{where}: x, y, z and rep must be integers: {line.strip()}")
            if max(abs(v) for v in numbers[:4]) >= _COORD_LIMIT:
                return SchemaError(f"{where}: x, y, z and rep must be below 2**31 in magnitude: "
                                   f"{line.strip()}")
    return SchemaError(f"{path}: a data row is not x, y, z and rep as integers and a number")


def _sidecar_dofs(sidecar):
    """The dofs of a sidecar file, one per non-blank line; a line that is not
    a number raises SchemaError naming the file and line."""
    try:
        with open(sidecar) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise SchemaError(
            "t-statistic CSV needs dofs: pass dofs= or provide a "
            f"sidecar file {sidecar}"
        ) from None
    dofs = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                dofs.append(float(line))
            except ValueError:
                raise SchemaError(f"{sidecar}: line {lineno}: not a number: {line.strip()}") from None
    return dofs


def import_csv(path, dofs=None):
    """Build a ReplicationSet from a long-format CSV.

    Columns are (x, y, z, rep, pvalue) or (x, y, z, rep, tstat). Voxels
    absent from the file stay unmasked; every masked voxel must carry all
    replications exactly once. x, y, z and rep must be integral (3.0 reads
    as 3) and below 2**31 in magnitude; a row that cannot be read raises
    SchemaError naming path and line.
    t-statistics need `dofs` (scalar or one per replication), passed or in a
    sidecar file `<path>.dofs` holding one dof per line.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise SchemaError("empty CSV file")
        header = [h.strip().strip('"').lower() for h in first.split(",")]
        if header[:4] != ["x", "y", "z", "rep"] or header[4:] not in (["pvalue"], ["tstat"]):
            raise SchemaError(
                "CSV header must be x,y,z,rep,pvalue or x,y,z,rep,tstat, got "
                + ",".join(header)
            )
        value_kind = header[4]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: raised below
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
            except ValueError:
                raise _row_error(path) from None
    if len(table) == 0:
        raise SchemaError("CSV contains no data rows")
    coords = table[:, :4]
    if table.shape[1] != 5 or not (np.isfinite(coords) & (coords == np.floor(coords))
                                   & (np.abs(coords) < _COORD_LIMIT)).all():
        raise _row_error(path)
    x, y, z, rep = coords.astype(np.int64).T

    reps = np.unique(rep)
    base = int(reps[0])
    if base not in (0, 1) or not np.array_equal(reps, np.arange(base, base + reps.size)):
        raise SchemaError(
            f"replication indices must be contiguous from 0 or 1, got {reps.tolist()}"
        )
    m = reps.size
    if min(x.min(), y.min(), z.min()) < 0:
        raise SchemaError("voxel coordinates must be non-negative")
    nx, ny, nz = int(x.max()) + 1, int(y.max()) + 1, int(z.max()) + 1
    if nx * ny * nz * m > np.iinfo(np.intp).max:
        raise SchemaError(f"{path}: a {nx} x {ny} x {nz} grid with M = {m} has too many "
                          "cells to index")

    if value_kind == "tstat" and dofs is None:
        dofs = _sidecar_dofs(f"{path}.dofs")
    if dofs is None:
        raise SchemaError("dofs are required (scalar or one per replication)")
    dofs = np.atleast_1d(np.asarray(dofs, dtype=np.float64))
    if dofs.size == 1:
        dofs = np.full(m, dofs[0])
    if dofs.size != m:
        raise SchemaError(f"got {dofs.size} dofs for {m} replications")

    # one index per (voxel, replication) cell; sorted, the cells run through
    # the voxels in payload (x-fastest) order, replications innermost
    cell = np.ravel_multi_index((z, y, x, rep - base), (nz, ny, nx, m))
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    repeats = order[1:][cell[1:] == cell[:-1]]
    if repeats.size:
        k = repeats.min()  # the first row, in file order, that repeats a cell
        raise SchemaError(
            f"duplicate entry for voxel ({x[k]}, {y[k]}, {z[k]}) replication {rep[k]}"
        )
    voxels = np.unique(cell // m)
    if cell.size != voxels.size * m:
        first = np.setdiff1d((voxels[:, None] * m + np.arange(m)).ravel(), cell)[0]
        vz, vy, vx = np.unravel_index(first // m, (nz, ny, nx))
        raise SchemaError(f"voxel ({vx}, {vy}, {vz}) is missing replication {first % m + base}")
    try:
        mask = np.zeros((nz, ny, nx), dtype=bool)
    except MemoryError:
        raise SchemaError(f"{path}: a {nx} x {ny} x {nz} grid is too large for its mask to "
                          "fit in memory") from None
    mask.flat[voxels] = True
    values = np.ascontiguousarray(table[order, 4].reshape(voxels.size, m).T)

    if value_kind == "tstat":
        values = t_to_p(values, dofs)
    return ReplicationSet(dims=(nx, ny, nz), mask=mask, dofs=dofs, pvalues=values)
