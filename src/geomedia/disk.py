"""The store's bytes on disk: its snapshot and log file formats, and every
write, fsync, rename and unlink it makes. The store looks these functions up
here when it calls them, so a test that replaces one fails the store's call
and no other code's.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from .codec import decode_json
from .errors import CorruptStoreError, ParseError

LOG = "wal.log"  # not *.ndjson: a collection may be called "wal"
_CHUNK = 64 * 1024  # bytes read at a time to check a snapshot file's CRC-32
# Compressed bytes read at a time to parse a snapshot file; each expands about
# 5.8-fold. 64 KiB reads raised the peak RSS of loading the 20k-feature
# benchmark store from 30.6 to 32.8 MB.
_GZ_CHUNK = 4 * 1024
# On the 20k-feature benchmark store, level 5 keeps 0.174 of the NDJSON bytes
# in 1.9 times level 1's compression time (which keeps 0.213); level 6 keeps
# 0.172 in 2.8 times, level 9 0.169 in 10 times. Each decompresses in ~0.04 s.
_GZ_LEVEL = 5
# json.dumps's encoder without its cycle check, which visits every list and
# dict (each position is one) and can find nothing here: the store builds a
# snapshot's objects from its columns and from parsed JSON. A flush of the
# 20k-feature benchmark store takes ~0.07 s less.
_encode = json.JSONEncoder(check_circular=False).encode


def snapshot_names(cid: str, generation: int) -> tuple[str, str]:
    """The data file names, features then annotations, that flush number
    generation gives collection cid; an id holds no dot, so none meet."""
    return f"{cid}.{generation}.ndjson.gz", f"{cid}.{generation}.ann.ndjson.gz"


def ndjson_gz(objs):
    """The bytes of a snapshot data file of objs, a chunk at a time as they
    are compressed: one gzip stream (zlib level 5, no file name, mtime 0, so
    equal objs give equal bytes) of UTF-8 NDJSON lines with LF endings, which
    `zcat` reads."""
    stream = zlib.compressobj(_GZ_LEVEL, zlib.DEFLATED, 31)  # 31: gzip header and trailer
    for obj in objs:
        if data := stream.compress((_encode(obj) + "\n").encode()):
            yield data
    yield stream.flush()


def _checked_chunks(path: Path, crc: int, size: int):
    """The bytes of a store file, size at a time; CorruptStoreError if it is
    missing or unreadable, and after the last chunk unless their CRC-32 is crc."""
    got = 0
    try:
        with open(path, "rb") as f:
            while chunk := f.read(size):
                got = zlib.crc32(chunk, got)
                yield chunk
    except OSError as exc:
        raise CorruptStoreError(f"missing or unreadable store file {path.name}: {exc}") from None
    if got != crc:
        raise CorruptStoreError(f"checksum mismatch for {path.name}")


def checked_size(path: Path, crc: int) -> int:
    """The size of a store file whose CRC-32 is crc (see _checked_chunks)."""
    return sum(map(len, _checked_chunks(path, crc, _CHUNK)))


def checked_lines(path: Path, crc: int):
    """The decompressed lines of a snapshot file whose CRC-32 is crc (see
    _checked_chunks), numbered from 1, without their LF.

    The compressed bytes are read _GZ_CHUNK at a time; CorruptStoreError
    also on a damaged or cut-off gzip stream, or bytes after its end.
    """
    stream = zlib.decompressobj(31)
    n, partial = 0, bytearray()  # the start of a line that a later chunk ends
    try:
        for chunk in _checked_chunks(path, crc, _GZ_CHUNK):
            *lines, tail = stream.decompress(chunk).split(b"\n")
            if stream.unused_data:
                raise CorruptStoreError(f"{path.name}: bytes after the end of its gzip stream")
            if lines:
                partial += lines[0]
                lines[0], partial = bytes(partial), bytearray()
            partial += tail
            for line in lines:
                n += 1
                yield n, line
    except zlib.error as exc:
        raise CorruptStoreError(f"{path.name}: damaged gzip stream: {exc}") from None
    if not stream.eof:
        raise CorruptStoreError(f"{path.name}: gzip stream cut off before its end")
    if partial:
        yield n + 1, bytes(partial)


def _crc(rec: dict) -> int:
    return zlib.crc32(json.dumps(rec, separators=(",", ":")).encode("utf-8"))


def log_line(rec: dict) -> bytes:
    """One log record: rec with a leading "crc", the CRC-32 of rec's compact JSON."""
    return (json.dumps({"crc": _crc(rec), **rec}, separators=(",", ":")) + "\n").encode("utf-8")


def whole_records(data: bytes) -> tuple[list[dict], int]:
    """The log's verified records (see log_line) and the bytes they span.

    A line without its newline, or damaged lines with nothing whole after
    them, are a torn tail and are dropped. A damaged line followed by a whole
    record is not a torn tail: that is CorruptStoreError.
    """
    records, size, damaged = [], 0, None
    *lines, _unterminated = data.split(b"\n")
    for n, line in enumerate(lines, 1):
        rec = _verified(line)
        if rec is None:
            damaged = damaged or n
        elif damaged:
            raise CorruptStoreError(f"{LOG} record {damaged} is damaged but record {n} is whole")
        else:
            records.append(rec)
            size += len(line) + 1
    return records, size


def _verified(line: bytes) -> dict | None:
    try:
        rec = decode_json(line)
    except ParseError:
        return None
    if not isinstance(rec, dict) or rec.pop("crc", None) != _crc(rec):
        return None
    return rec


def stage(final: Path, chunks) -> tuple[Path, int, int]:
    """Write byte chunks to final's .tmp sibling and fsync it, one chunk at a time.

    Returns the staged path and the CRC-32 and size of what it holds.
    """
    tmp = final.with_name(final.name + ".tmp")
    crc = size = 0
    with open(tmp, "wb") as f:
        for data in chunks:
            crc = zlib.crc32(data, crc)
            f.write(data)
            size += len(data)
        fsync(f)
    return tmp, crc, size


def append(path: Path, keep: int, data: bytes) -> None:
    """Cut the file at path back to its first keep bytes, append data and fsync it."""
    with open(path, "ab") as f:
        f.truncate(keep)
        f.write(data)
        fsync(f)


def fsync(f) -> None:
    """Write a file object's buffer and its file's data through to the disk."""
    f.flush()
    os.fsync(f.fileno())


def fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def rename(src: Path, dst: Path) -> None:
    src.replace(dst)  # Path.replace, which a test may patch too


def unlink(path: Path, missing_ok: bool = False) -> None:
    path.unlink(missing_ok=missing_ok)
