"""File formats and the content-addressed result cache.

Cache keys hash the canonical matrix serialization together with an operation
tag and the tool version, so results from stale formats can never be served.
Writes go through a temp file and an atomic rename; concurrent processes
sharing a cache directory cannot corrupt it. A Graver entry is served only if
its stored sha256 matches its element list, so a truncated entry is recomputed;
the directory is trusted, and an entry forged with a fresh digest is not caught.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

from . import __version__
from .graver import Budget, GraverBasis, graver_basis
from .linalg import IntMat, IntVec, sign_canonical

TOOL_VERSION = __version__

CACHE_DIR_ENV = "GRAVERKIT_CACHE_DIR"


def read_matrix(path: str | Path) -> IntMat:
    return IntMat.parse(Path(path).read_text())


def vectors_to_json(vectors: Iterable[IntVec]) -> list[list[int]]:
    return [list(v) for v in vectors]


def cache_key(op: str, A: IntMat) -> str:
    payload = f"{TOOL_VERSION}|{op}||{A.to_text()}"  # the empty field keeps existing keys
    return hashlib.sha256(payload.encode()).hexdigest()


class Cache:
    """Content-addressed store of canonical results, one file per key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):  # ValueError: invalid UTF-8 or invalid JSON
            return None

    def put(self, key: str, payload: dict) -> None:
        """Write one entry; an OSError raised here names the entry's path."""
        path = self._path(key)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            raise OSError(exc.errno, exc.strerror, str(path)) from exc


def resolve_cache(cache_dir: str | None) -> Cache | None:
    directory = cache_dir or os.environ.get(CACHE_DIR_ENV)
    if directory:
        return Cache(directory)
    return None


def _digest(elements: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(elements).encode()).hexdigest()


def _cached_elements(A: IntMat, payload) -> tuple[IntVec, ...] | None:
    """The element list of a cached Graver entry, or None if it is malformed.

    Well formed means: the stored sha256 is that of the element list, and the
    elements are integer vectors of length n in Ker(A), each nonzero and
    sign-canonical, in strictly increasing order, as `graver_basis` returns them.
    """
    if not isinstance(payload, dict) or payload.get("n") != A.ncols \
            or not isinstance(payload.get("elements"), list) \
            or payload.get("sha256") != _digest(payload["elements"]):
        return None
    elements: list[IntVec] = []
    for v in payload["elements"]:
        if not (isinstance(v, list) and len(v) == A.ncols and all(type(x) is int for x in v)):
            return None
        v = tuple(v)
        if not any(v) or sign_canonical(v) != v or (elements and v <= elements[-1]) \
                or not A.in_kernel(v):
            return None
        elements.append(v)
    return tuple(elements)


def cached_graver_basis(A: IntMat, cache: Cache | None, budget: Budget | None = None) -> GraverBasis:
    """graver_basis through the persistent cache.

    Hits are byte-identical to recomputation because the stored payload is the
    canonical element list. An entry that is not such a list, or whose digest
    does not match it, counts as a miss and is overwritten.
    """
    if cache is None:
        return graver_basis(A, budget=budget)
    key = cache_key("graver", A)
    elements = _cached_elements(A, cache.get(key))
    if elements is not None:
        return GraverBasis(n=A.ncols, elements=elements)
    basis = graver_basis(A, budget=budget)
    listed = vectors_to_json(basis.elements)
    cache.put(key, {"n": basis.n, "elements": listed, "sha256": _digest(listed)})
    return basis
