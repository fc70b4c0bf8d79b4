"""Binary persistence for trained policies and their normalizer statistics.

File layout (all integers little-endian):

    magic           4 bytes  b"RBPC"
    format version  u32      currently 1
    array count     u32      number of policy parameter arrays
    parameter records        name/shape/payload, float32 payloads
    stat count      u32      number of normalizer statistic arrays
    statistic records        same record shape, float64 payloads
    hash length     u16      length of the config-hash string (may be 0)
    config hash     ASCII    canonical fingerprint of the producing settings

Each record is: name length (u16), UTF-8 name, ndim (u8), ndim dimension
sizes (u32 each), then the row-major payload. Records are written in sorted
name order so identical contents always produce identical bytes.
"""

import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..diffcore.net import ParameterizedNet
from ..policyopt import RunningNormalizer

MAGIC = b"RBPC"
FORMAT_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class CheckpointFormatError(ValueError):
    """The file is missing, truncated, or not a checkpoint this code reads."""


@dataclass
class Checkpoint:
    """A policy network plus normalizer statistics, ready to persist."""

    params: dict = field(default_factory=dict)       # name -> float32 array
    norm_state: dict = field(default_factory=dict)   # name -> float64 array
    config_hash: str = ""

    @classmethod
    def of(cls, net, norm, config_hash=""):
        params = {k: np.ascontiguousarray(v, dtype=np.float32)
                  for k, v in net.params.items()}
        stats = {k: np.ascontiguousarray(v, dtype=np.float64)
                 for k, v in norm.state_arrays().items()}
        return cls(params, stats, config_hash)

    def build(self):
        """Reconstruct the (network, normalizer) pair.

        Raises CheckpointFormatError when the arrays are not a network layout,
        or when the normalizer statistics are missing, not vectors of the
        network's input width, or their count is negative, NaN or infinite.
        """
        try:
            net = ParameterizedNet.from_params(self.params)
        except ValueError as exc:
            raise CheckpointFormatError(
                f"checkpoint parameters are not a policy network: {exc}") from None
        shapes = {np.shape(v) for v in self.norm_state.values()}
        if shapes != {(net.obs_dim,)}:
            raise CheckpointFormatError(
                f"normalizer statistics of shapes {sorted(shapes)} do not match "
                f"the network's input width {net.obs_dim}")
        count = self.norm_state.get("count")
        if count is not None and not 0.0 <= count[0] < np.inf:
            raise CheckpointFormatError(
                f"checkpoint normalizer count {count[0]} is not a finite "
                f"count >= 0")
        try:
            norm = RunningNormalizer.from_state_arrays(self.norm_state)
        except KeyError as exc:
            raise CheckpointFormatError(
                f"checkpoint lacks normalizer statistic {exc}") from None
        return net, norm


def _write_record(chunks, name, array):
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"array name too long: {name!r}")
    chunks.append(_U16.pack(len(encoded)))
    chunks.append(encoded)
    chunks.append(_U8.pack(array.ndim))
    for dim in array.shape:
        chunks.append(_U32.pack(dim))
    chunks.append(array.astype(array.dtype.newbyteorder("<"), copy=False)
                  .tobytes(order="C"))


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    chunks = [MAGIC, _U32.pack(FORMAT_VERSION), _U32.pack(len(ckpt.params))]
    for name in sorted(ckpt.params):
        _write_record(chunks, name, np.asarray(ckpt.params[name],
                                               dtype=np.float32))
    chunks.append(_U32.pack(len(ckpt.norm_state)))
    for name in sorted(ckpt.norm_state):
        _write_record(chunks, name, np.asarray(ckpt.norm_state[name],
                                               dtype=np.float64))
    encoded_hash = ckpt.config_hash.encode("ascii")
    chunks.append(_U16.pack(len(encoded_hash)))
    chunks.append(encoded_hash)
    return b"".join(chunks)


@contextmanager
def atomic_output(path, mode="w"):
    """Write `path` through a temporary file in the same directory.

    The file object yielded writes the temporary file. When the block ends
    normally, one os.replace puts it in place of `path`; when it raises, the
    temporary file is removed and `path` keeps its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, ckpt: Checkpoint):
    with atomic_output(path, "wb") as fh:
        fh.write(checkpoint_bytes(ckpt))
    return path


class _Reader:
    def __init__(self, data, origin):
        self.data = data
        self.origin = origin
        self.offset = 0

    def take(self, n, what):
        end = self.offset + n
        if end > len(self.data):
            raise CheckpointFormatError(
                f"truncated checkpoint {self.origin}: needed {n} bytes for "
                f"{what} at offset {self.offset}, file ends at "
                f"{len(self.data)}")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def u8(self, what):
        return _U8.unpack(self.take(1, what))[0]

    def u16(self, what):
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what):
        return _U32.unpack(self.take(4, what))[0]

    def text(self, n, what, encoding):
        offset = self.offset
        try:
            return self.take(n, what).decode(encoding)
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"{self.origin}: {what} at offset {offset} is not "
                f"{encoding} text") from None

    def record(self, dtype):
        name = self.text(self.u16("name length"), "array name", "utf-8")
        ndim = self.u8(f"rank of {name!r}")
        shape = tuple(self.u32(f"dimension of {name!r}") for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        payload = self.take(count * dtype.itemsize, f"payload of {name!r}")
        try:
            array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        except ValueError as exc:  # rank above numpy's cap, or too big to index
            raise CheckpointFormatError(
                f"{self.origin}: array {name!r} of rank {ndim}: {exc}") from None
        return name, array.astype(dtype.newbyteorder("="))


def parse_checkpoint(data, origin="<bytes>") -> Checkpoint:
    reader = _Reader(data, origin)
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointFormatError(
            f"{origin} is not a policy checkpoint (magic {magic!r}, "
            f"expected {MAGIC!r})")
    version = reader.u32("format version")
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"{origin} uses checkpoint format version {version}; this build "
            f"reads version {FORMAT_VERSION}")
    params = {}
    for _ in range(reader.u32("array count")):
        name, array = reader.record(np.dtype("<f4"))
        if name in params:
            raise CheckpointFormatError(
                f"{origin} repeats parameter array {name!r}")
        params[name] = array
    norm_state = {}
    for _ in range(reader.u32("statistic count")):
        name, array = reader.record(np.dtype("<f8"))
        if name in norm_state:
            raise CheckpointFormatError(
                f"{origin} repeats statistic array {name!r}")
        norm_state[name] = array
    config_hash = reader.text(reader.u16("hash length"), "config hash",
                              "ascii")
    if reader.offset != len(data):
        raise CheckpointFormatError(
            f"{origin} has {len(data) - reader.offset} bytes of trailing "
            f"data after the checkpoint payload")
    return Checkpoint(params, norm_state, config_hash)


def load_checkpoint(path) -> Checkpoint:
    """Read and fully validate a checkpoint file.

    The whole file is parsed before anything is returned, so a malformed
    file can never hand back a half-built checkpoint.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(
            f"cannot read checkpoint {path}: {exc}") from None
    return parse_checkpoint(data, origin=str(path))


def load_policy(path):
    """Load a checkpoint and build its (network, normalizer) pair."""
    return load_checkpoint(path).build()
