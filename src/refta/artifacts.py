"""Every file refta writes goes through ``write_files``: each is streamed into
``<name>.tmp`` beside its target and hashed as it is written, then all are
renamed over their targets once every one is complete. A failure part-way
removes the temp files and leaves the targets as they were. The files refta
appends to, the reply store's, are ``AppendFile``s and are read back by
``read_rows``. Every other text file refta reads goes through ``read_lines``
or ``read_utf8`` (strict UTF-8); an index's ``vectors.bin`` is mapped by
``map_file``. A rename over a mapped file leaves the map intact."""

import fcntl
import hashlib
import json
import mmap
import os
import threading
from pathlib import Path

from refta.errors import CorpusFormatError, ReftaError

HASH_CHUNK = 1 << 20  # bytes of a map ``map_file`` hashes at a time


def write_files(files: dict) -> list[str]:
    """Write each ``path -> chunks`` in order; returns the SHA-256 hex digests
    of the files' bytes. ``chunks`` is an iterable of bytes-like objects, or
    a callable that takes the digests of the files before it and returns one."""
    staged, digests = [], []
    try:
        for path, chunks in files.items():
            tmp = Path(f"{path}.tmp")
            staged.append((tmp, path))
            sha = hashlib.sha256()
            with open(tmp, "wb") as fh:
                for chunk in chunks(digests) if callable(chunks) else chunks:
                    sha.update(chunk)
                    fh.write(chunk)
            digests.append(sha.hexdigest())
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    return digests


def make_dir(path) -> None:
    """Make ``path`` a directory, with its parents, unless it is one; a
    location that cannot be one is a ``ReftaError``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReftaError(f"cannot write under {path}: {exc}") from exc


class AppendFile:
    """A file of lines that only grows. ``append`` writes its lines in one
    ``os.write`` (more if it is cut short) under ``flock`` and a thread lock,
    so appends from threads and processes never interleave, after cutting a
    final line with no ``\\n`` (a writer killed part-way), looked for only when
    the file does not end where this object's last whole write left it. The
    first append makes the directory and file and opens the descriptor that
    ``close`` closes. The reply store appends on the thread that takes each paid
    batch from ``backends.map_batches``, so there the lock is never contended."""

    def __init__(self, path):
        self.path = Path(path)
        self._fd = self._end = None  # the descriptor; the size its last whole write left
        self._lock = threading.Lock()  # flock does not order the threads of one process

    def append(self, lines) -> None:
        data = b"".join(encode_lines(lines))
        with self._lock:
            try:
                if self._fd is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
                fcntl.flock(self._fd, fcntl.LOCK_EX)
                try:
                    end = cut = os.fstat(self._fd).st_size
                    while end != self._end and cut and os.pread(self._fd, 1, cut - 1) != b"\n":
                        cut -= 1  # a writer cut short left a torn line
                    self._end, size = None, cut + len(data)  # unset until every byte is out
                    if cut < end:
                        os.ftruncate(self._fd, cut)
                    while data:  # a short write (a disk filling part-way) sends the rest
                        data = data[os.write(self._fd, data):]
                    self._end = size
                finally:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
            except OSError as exc:
                raise ReftaError(f"cannot write under {self.path.parent}: {exc}") from exc

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def read_rows(path):
    """Yield ``(line_no, bytes)`` for each line of an ``AppendFile``; nothing
    when there is no file. A final line with no ``\\n`` is a write cut short
    and is skipped."""
    try:
        with open(path, "rb") as fh:
            yield from ((line_no, raw) for line_no, raw in enumerate(fh, 1)
                        if raw.endswith(b"\n"))
    except FileNotFoundError:
        return
    except OSError as exc:
        raise CorpusFormatError(path, None, f"cannot read: {exc.strerror or exc}") from exc


def encode_lines(lines):
    """UTF-8 bytes, each line ended by ``\\n``."""
    return ((line + "\n").encode("utf-8") for line in lines)


def encode_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(path, obj) -> None:
    write_files({path: [encode_json(obj)]})


def read_lines(path, sha=None):
    """Yield ``(line_no, line)`` for each line of ``path``. Only ``\\n`` ends a
    line and a trailing ``\\r`` is dropped; each line is decoded on its own as
    strict UTF-8, and ``sha``, when given, is fed every byte read. A failure
    is a ``CorpusFormatError`` naming the path, and for a decode the line."""
    try:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, 1):
                if sha is not None:
                    sha.update(raw)
                yield line_no, raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
    except OSError as exc:
        raise CorpusFormatError(path, None, f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(path, line_no, f"not valid UTF-8: {exc}") from exc


def map_file(path, sha):
    """``path`` mapped read-only, ``b""`` when it is empty (``mmap`` refuses an
    empty file); ``sha`` is fed every mapped byte, ``HASH_CHUNK`` at a time,
    and nothing is copied. The map lives as long as the last array viewing it."""
    with open(path, "rb") as fh:
        mapped = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                  if os.fstat(fh.fileno()).st_size else b"")
    with memoryview(mapped) as view:
        for start in range(0, len(view), HASH_CHUNK):
            sha.update(view[start:start + HASH_CHUNK])
    return mapped


def read_utf8(path, error=ReftaError) -> str:
    """``path`` decoded as strict UTF-8, so bad bytes raise ``UnicodeDecodeError``
    (a ``ValueError``); a missing or unreadable file raises ``error`` naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_json_object(path, error=ReftaError) -> dict:
    """The JSON object in ``path``, read by ``read_utf8``; bad UTF-8, bad JSON or
    a value that is not an object also raises ``error`` naming the file."""
    try:
        obj = json.loads(read_utf8(path, error))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path} is not a JSON object")
    return obj
