"""Persistence formats and run manifests.

Binary layouts are little-endian IEEE-754 throughout; every file is
written to a temporary sibling and atomically renamed into place.  The
tensor cache carries a trailing SHA-256 digest that is verified on every
load — a corrupted cache is a hard error, never a silent recompute.

Tensor cache layout (offsets in bytes):
    0   magic "BBNLS3D1"
    8   u32 format version (1)
    12  u32 n_max
    16  u32 0, a retired quadrature-order field, ignored on read
    20  f64 bound constant max |c| / min(indices) over the stored tuples,
        computed from the values when the file is written, ignored on read
    28  C(n_max + 3, 4) f64 values, lexicographic sorted-tuple order
    end 32-byte SHA-256 of everything preceding
Manifests record the RNG algorithm, measures.RNG_ALGORITHM.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .basis import CorrelationTensor, _canonical_tuples
from .dynamics import Trajectory
from .errors import DomainError, StorageError
from .measures import RNG_ALGORITHM

ARTIFACT_VERSION = "1.0.0"
SCHEMA_VERSION = 1
TENSOR_MAGIC = b"BBNLS3D1"
TENSOR_FORMAT_VERSION = 1
TRAJ_MAGIC = b"BBNLSTRJ"
TRAJ_FORMAT_VERSION = 2
UNIT_TAG = "model-units-e2pi"  # exactly 16 bytes of ASCII
CACHE_DIR_ENV = "BALLNLS_CACHE_DIR"

__all__ = [
    "ARTIFACT_VERSION",
    "SCHEMA_VERSION",
    "UNIT_TAG",
    "CACHE_DIR_ENV",
    "cache_dir",
    "default_cache_path",
    "write_tensor_cache",
    "read_tensor_cache",
    "write_trajectory",
    "read_trajectory",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "parse_config_file",
    "write_csv",
    "atomic_write_bytes",
    "format_g17",
]


def atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except OSError as err:
        raise StorageError(f"cannot write {path}: {err}") from err


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, ".ballnls-cache"))


def default_cache_path(n_max: int) -> Path:
    return cache_dir() / f"tensor-n{n_max}-q0.bin"


# ---------------------------------------------------------------------------
# Tensor cache (layout in the module docstring)


def write_tensor_cache(tensor: CorrelationTensor, path) -> str:
    """Serialize; returns the SHA-256 of the file written."""
    mins = _canonical_tuples(tensor.n_max)[:, 0]  # tuples sort ascending
    bound_constant = float(np.max(np.abs(tensor.values) / mins))
    body = bytearray()
    body += TENSOR_MAGIC
    body += struct.pack(
        "<IIId", TENSOR_FORMAT_VERSION, tensor.n_max, 0, bound_constant
    )
    body += tensor.values.astype("<f8").tobytes()
    payload = bytes(body) + hashlib.sha256(body).digest()
    atomic_write_bytes(path, payload)
    return hashlib.sha256(payload).hexdigest()


def read_tensor_cache(path) -> tuple[CorrelationTensor, str]:
    """The cached tensor and the SHA-256 of the file it was read from."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise StorageError(f"cannot read tensor cache {path}: {err}") from err
    if len(raw) < len(TENSOR_MAGIC) + 20 + 32 or raw[:8] != TENSOR_MAGIC:
        raise StorageError(f"{path}: not a tensor cache file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise StorageError(f"{path}: cache digest mismatch (corrupted file)")
    version, n_max, _, _ = struct.unpack("<IIId", body[8:28])
    if version != TENSOR_FORMAT_VERSION:
        raise StorageError(f"{path}: unsupported cache format version {version}")
    vals = np.frombuffer(body[28:], dtype="<f8")
    expected = math.comb(n_max + 3, 4)
    if vals.size != expected:
        raise StorageError(f"{path}: expected {expected} values, found {vals.size}")
    tensor = CorrelationTensor(n_max=int(n_max), values=vals)
    return tensor, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# Trajectory file, format 2:
#   magic "BBNLSTRJ" | u32 format version | u32 N | u64 record count R |
#   16-byte unit tag | times (f64 * R) | coefficients per record (complex
#   interleaved f64, R * N) | mass log (f64 * R) | energy log (f64 * R).
# The unversioned format 1 (no magic, no times) is rejected, not read.

_TRAJ_HEADER = struct.Struct("<8sIIQ16s")


def write_trajectory(traj: Trajectory, path) -> None:
    count, N = traj.coeffs.shape
    body = _TRAJ_HEADER.pack(
        TRAJ_MAGIC, TRAJ_FORMAT_VERSION, N, count, UNIT_TAG.encode("ascii")
    )
    body += np.asarray(traj.times, dtype="<f8").tobytes()
    body += np.ascontiguousarray(traj.coeffs, dtype="<c16").tobytes()
    body += np.asarray(traj.mass_log, dtype="<f8").tobytes()
    body += np.asarray(traj.energy_log, dtype="<f8").tobytes()
    atomic_write_bytes(path, body)


def read_trajectory(path) -> Trajectory:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise StorageError(f"cannot read trajectory {path}: {err}") from err
    if len(raw) < _TRAJ_HEADER.size or raw[:8] != TRAJ_MAGIC:
        raise StorageError(
            f"{path}: not a format-{TRAJ_FORMAT_VERSION} trajectory file "
            "(unversioned format-1 files are not read)"
        )
    _, version, N, count, tag = _TRAJ_HEADER.unpack_from(raw)
    if version != TRAJ_FORMAT_VERSION:
        raise StorageError(f"{path}: unsupported trajectory format version {version}")
    tag = tag.decode("ascii", errors="replace")
    if tag != UNIT_TAG:
        raise DomainError(
            f"{path}: unit tag {tag!r} does not match {UNIT_TAG!r}; refusing "
            "to reinterpret units"
        )
    if len(raw) != _TRAJ_HEADER.size + count * (8 * 3 + 16 * N):
        raise StorageError(f"{path}: length inconsistent with header")
    body = np.frombuffer(raw, dtype="<f8", offset=_TRAJ_HEADER.size)
    ends = np.cumsum([count, 2 * count * N, count])
    times, coeffs, mass, energy = np.split(body, ends)
    return Trajectory(times, coeffs.view("<c16").reshape(count, N), mass, energy)


# ---------------------------------------------------------------------------
# Manifests and config files


def build_manifest(
    command: str,
    config_snapshot: dict,
    seed: int | None,
    tensor_cache_hash: str | None = None,
    timestamps: dict | None = None,
) -> dict:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config_snapshot": dict(sorted(config_snapshot.items())),
        "seed": seed,
        "algorithm_id": RNG_ALGORITHM,
        "tensor_cache_hash": tensor_cache_hash,
    }
    if timestamps is not None:
        manifest["timestamps"] = timestamps
    return manifest


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(manifest: dict, path) -> None:
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, payload.encode("utf-8"))


def read_manifest(path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text("utf-8"))
    except (OSError, ValueError) as err:
        raise StorageError(f"cannot read manifest {path}: {err}") from err
    if "command" not in manifest or "config_snapshot" not in manifest:
        raise StorageError(f"{path}: not a run manifest")
    return manifest


def parse_config_file(path) -> dict:
    """One `key = value` per line; `#` starts a comment; values stay strings."""
    out = {}
    try:
        text = Path(path).read_text("utf-8")
    except OSError as err:
        raise StorageError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected `key = value`")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_g17(x: float) -> str:
    """Decimal round-trip formatting for CSV floats."""
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                format_g17(v) if isinstance(v, float) else str(v) for v in row
            )
        )
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
