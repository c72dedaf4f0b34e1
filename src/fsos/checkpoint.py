"""Flat binary checkpoint format for parameter groups.

Layout (all integers little-endian):
  magic "FSOSCKP1" | u32 version | u32 header_len | header JSON (utf-8)
  u32 group_count
  per group: u16 name_len | name | u32 param_count
    per param: u16 name_len | name | u8 ndim | u32 dims... | raw float64 data

The header JSON carries the backbone spec and head metadata; array bytes are
written verbatim, so save -> load -> save round-trips byte-exactly. A load
refuses a parameter that holds NaN or inf.
"""

import json
import struct

import numpy as np

MAGIC = b"FSOSCKP1"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, header, groups):
    """groups: ordered [(group_name, [(param_name, float64 ndarray), ...]), ...]."""
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    hdr = _canonical_json(header)
    chunks.append(struct.pack("<I", len(hdr)))
    chunks.append(hdr)
    chunks.append(struct.pack("<I", len(groups)))
    for gname, params in groups:
        gb = gname.encode("utf-8")
        chunks.append(struct.pack("<H", len(gb)))
        chunks.append(gb)
        chunks.append(struct.pack("<I", len(params)))
        for pname, arr in params:
            arr = np.asarray(arr, dtype=np.float64, order="C")
            pb = pname.encode("utf-8")
            chunks.append(struct.pack("<H", len(pb)))
            chunks.append(pb)
            chunks.append(struct.pack("<B", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            chunks.append(arr.astype("<f8", copy=False).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path):
    """Returns (header dict, [(group_name, [(param_name, ndarray), ...]), ...])."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError("bad magic string")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = r.unpack("<I")
    header = json.loads(r.take(hlen).decode("utf-8"))
    (ngroups,) = r.unpack("<I")
    groups = []
    for _ in range(ngroups):
        (nlen,) = r.unpack("<H")
        gname = r.take(nlen).decode("utf-8")
        (nparams,) = r.unpack("<I")
        params = []
        for _ in range(nparams):
            (plen,) = r.unpack("<H")
            pname = r.take(plen).decode("utf-8")
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}I")
            count = int(np.prod(shape)) if ndim else 1
            raw = r.take(count * 8)
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"parameter {gname}.{pname} holds NaN or inf values")
            params.append((pname, arr))
        groups.append((gname, params))
    if r.pos != len(buf):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return header, groups
