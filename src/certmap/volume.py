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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import special
from .model import clamp_pvalues

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
        if self.dofs.size != m:
            raise ContainerError(f"dofs length {self.dofs.size} does not match m={m}")
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
    runs = _mask_to_rle(container.mask.ravel())
    payload = np.ascontiguousarray(container.values, dtype="<f8").tobytes()
    header = "\n".join(
        [
            f"{MAGIC} {VERSION}",
            f"kind: {container.kind}",
            "dims: {} {} {}".format(*container.dims),
            f"m: {container.m}",
            "dofs: " + " ".join(repr(float(d)) for d in container.dofs),
            "mask: rle " + " ".join(str(r) for r in runs),
            "endian: little",
            f"payload-bytes: {len(payload)}",
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


def read_container(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = b"payload:\n"
    idx = raw.find(sep)
    if idx < 0:
        raise ContainerError("missing payload separator", offset=len(raw))
    header_text = raw[:idx].decode("utf-8", errors="replace")
    payload = raw[idx + len(sep):]
    payload_offset = idx + len(sep)

    lines = header_text.splitlines()
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
    dofs = np.array(_parse("dofs", fields["dofs"], lambda t: [float(v) for v in t.split()]))
    mask_parts = fields["mask"].split()
    if not mask_parts or mask_parts[0] != "rle":
        raise ContainerError(f"unsupported mask encoding {fields['mask']!r}")
    nx, ny, nz = dims
    runs = _parse("mask", " ".join(mask_parts[1:]), _ints)
    mask = _rle_to_mask(runs, nx * ny * nz).reshape(nz, ny, nx)

    n_masked = int(np.count_nonzero(mask))
    expected = _parse("payload-bytes", fields["payload-bytes"], int)
    if expected != 8 * m * n_masked:
        raise ContainerError(
            f"declared payload-bytes {expected} does not match m={m} x "
            f"n_masked={n_masked} float64 values"
        )
    if len(payload) != expected:
        raise TruncatedPayloadError(expected, len(payload), offset=payload_offset + len(payload))
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(m, n_masked)
    return VolumeContainer(kind=fields["kind"], dims=dims, mask=mask, dofs=dofs, values=values)


@dataclass
class ReplicationSet:
    """Masked geometry plus the M x N_masked replicated p-values.

    p-values are clamped into the open unit interval at construction;
    clamp_counts records how many values per voxel sit at a clamp bound
    (model.clamp_pvalues), so a subset keeps its share of the count.
    """

    dims: tuple
    mask: np.ndarray
    dofs: np.ndarray
    pvalues: np.ndarray
    clamp_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        nx, ny, nz = (int(d) for d in self.dims)
        self.dims = (nx, ny, nz)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (nz, ny, nx):
            raise ValueError(f"mask shape {self.mask.shape} does not match dims {self.dims}")
        self.dofs = np.atleast_1d(np.asarray(self.dofs, dtype=np.float64))
        self.pvalues = np.asarray(self.pvalues, dtype=np.float64)
        if self.pvalues.ndim != 2:
            raise ValueError("pvalues must be an (m, n_masked) array")
        m, n = self.pvalues.shape
        if self.dofs.size != m:
            raise ValueError(f"dofs length {self.dofs.size} does not match m={m}")
        if n != self.n_masked:
            raise ValueError(f"pvalues columns {n} do not match {self.n_masked} masked voxels")
        if not np.isfinite(self.pvalues).all():
            raise ValueError("p-values must be finite")
        if (self.pvalues < 0.0).any() or (self.pvalues > 1.0).any():
            raise ValueError("p-values must lie in [0, 1] at ingest")
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


def t_to_p(tstats, dof):
    """One-sided upper-tail p-values of t statistics: p = P(t_nu >= T).

    Strictly decreasing in T. Non-finite statistics raise.
    """
    arr = np.asarray(tstats, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("t statistics must be finite")
    return special.t_sf(arr, dof)


def _read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty CSV file")
        header = [h.strip().lower() for h in header]
        if header[:4] != ["x", "y", "z", "rep"] or len(header) != 5 or header[4] not in (
            "pvalue",
            "tstat",
        ):
            raise SchemaError(
                "CSV header must be x,y,z,rep,pvalue or x,y,z,rep,tstat, got "
                + ",".join(header)
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise SchemaError(f"line {lineno}: expected 5 columns, got {len(row)}")
            rows.append((int(row[0]), int(row[1]), int(row[2]), int(row[3]), float(row[4])))
    return header[4], rows


def import_csv(path, dofs=None):
    """Build a ReplicationSet from a long-format CSV.

    Columns are (x, y, z, rep, pvalue) or (x, y, z, rep, tstat). Voxels
    absent from the file stay unmasked; every masked voxel must carry all
    replications exactly once. For t-statistics, `dofs` (scalar or one value
    per replication) is required and can also be supplied as a sidecar file
    `<path>.dofs` holding one dof per line.
    """
    value_kind, rows = _read_rows(str(path))
    if not rows:
        raise SchemaError("CSV contains no data rows")

    reps = sorted({r[3] for r in rows})
    base = reps[0]
    if base not in (0, 1) or reps != list(range(base, base + len(reps))):
        raise SchemaError(f"replication indices must be contiguous from 0 or 1, got {reps}")
    m = len(reps)
    nx = max(r[0] for r in rows) + 1
    ny = max(r[1] for r in rows) + 1
    nz = max(r[2] for r in rows) + 1
    if min(r[0] for r in rows) < 0 or min(r[1] for r in rows) < 0 or min(r[2] for r in rows) < 0:
        raise SchemaError("voxel coordinates must be non-negative")

    if value_kind == "tstat":
        if dofs is None:
            sidecar = str(path) + ".dofs"
            try:
                with open(sidecar) as fh:
                    dofs = [float(line) for line in fh if line.strip()]
            except FileNotFoundError:
                raise SchemaError(
                    "t-statistic CSV needs dofs: pass dofs= or provide a "
                    f"sidecar file {sidecar}"
                ) from None
    if dofs is None:
        raise SchemaError("dofs are required (scalar or one per replication)")
    dofs = np.atleast_1d(np.asarray(dofs, dtype=np.float64))
    if dofs.size == 1:
        dofs = np.full(m, dofs[0])
    if dofs.size != m:
        raise SchemaError(f"got {dofs.size} dofs for {m} replications")

    seen = {}
    for x, y, z, rep, value in rows:
        key = (x, y, z, rep - base)
        if key in seen:
            raise SchemaError(f"duplicate entry for voxel ({x}, {y}, {z}) replication {rep}")
        seen[key] = value

    # masked-voxel columns follow the container payload order (x fastest)
    coords = sorted({(x, y, z) for (x, y, z, _) in seen}, key=lambda c: (c[2], c[1], c[0]))
    mask = np.zeros((nz, ny, nx), dtype=bool)
    for x, y, z in coords:
        mask[z, y, x] = True

    values = np.empty((m, len(coords)))
    for i, (x, y, z) in enumerate(coords):
        for j in range(m):
            try:
                values[j, i] = seen[(x, y, z, j)]
            except KeyError:
                raise SchemaError(
                    f"voxel ({x}, {y}, {z}) is missing replication {j + base}"
                ) from None

    if value_kind == "tstat":
        pvalues = np.empty_like(values)
        for j in range(m):
            pvalues[j] = t_to_p(values[j], dofs[j])
    else:
        pvalues = values
    return ReplicationSet(dims=(nx, ny, nz), mask=mask, dofs=dofs, pvalues=pvalues)
