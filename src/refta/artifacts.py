"""Every file refta writes goes through ``write_files``: each is streamed into
``<name>.tmp`` beside its target and hashed as it is written, then all are
renamed over their targets once every one is complete. A failure part-way
removes the temp files and leaves the targets as they were."""

import hashlib
import json
import os
from pathlib import Path

from refta.errors import ReftaError


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


def encode_lines(lines):
    """UTF-8 bytes, each line ended by ``\\n``."""
    return ((line + "\n").encode("utf-8") for line in lines)


def encode_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(path, obj) -> None:
    write_files({path: [encode_json(obj)]})
