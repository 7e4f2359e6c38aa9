"""File formats and the content-addressed result cache.

Cache keys hash the canonical matrix serialization together with an operation
tag and the tool version, so results from stale formats can never be served.
Writes go through a temp file and an atomic rename; concurrent processes
sharing a cache directory cannot corrupt it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .graver import Budget, GraverBasis, graver_basis
from .linalg import IntMat, IntVec, sign_canonical

TOOL_VERSION = __version__

CACHE_DIR_ENV = "GRAVERKIT_CACHE_DIR"


def read_matrix(path: str | Path) -> IntMat:
    return IntMat.parse(Path(path).read_text())


def format_vectors(vectors: Sequence[IntVec], n: int) -> str:
    """Vector-set text format: "count n" header, one vector per line."""
    lines = [f"{len(vectors)} {n}"]
    lines.extend(" ".join(str(x) for x in v) for v in vectors)
    return "\n".join(lines) + "\n"


def parse_vectors(text: str) -> tuple[int, tuple[IntVec, ...]]:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("vector file must start with 'count n'")
    count, n = int(tokens[0]), int(tokens[1])
    body = [int(t) for t in tokens[2:]]
    if len(body) != count * n:
        raise ValueError(f"expected {count * n} entries, got {len(body)}")
    vectors = tuple(tuple(body[i * n:(i + 1) * n]) for i in range(count))
    return n, vectors


def vectors_to_json(vectors: Iterable[IntVec]) -> list[list[int]]:
    return [list(v) for v in vectors]


def cache_key(op: str, A: IntMat, extra: str = "") -> str:
    payload = f"{TOOL_VERSION}|{op}|{extra}|{A.to_text()}"
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
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: dict) -> None:
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def resolve_cache(cache_dir: str | None) -> Cache | None:
    directory = cache_dir or os.environ.get(CACHE_DIR_ENV)
    if directory:
        return Cache(directory)
    return None


def _cached_elements(A: IntMat, payload) -> tuple[IntVec, ...] | None:
    """The element list of a cached Graver entry, or None if it is malformed.

    Well formed means: integer vectors of length n in Ker(A), each nonzero and
    sign-canonical, in strictly increasing order, as `graver_basis` returns them.
    """
    if not isinstance(payload, dict) or payload.get("n") != A.ncols \
            or not isinstance(payload.get("elements"), list):
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
    canonical element list. An entry that is not such a list counts as a miss
    and is overwritten.
    """
    if cache is None:
        return graver_basis(A, budget=budget)
    key = cache_key("graver", A)
    elements = _cached_elements(A, cache.get(key))
    if elements is not None:
        return GraverBasis(n=A.ncols, elements=elements, matrix_hash=A.content_hash())
    basis = graver_basis(A, budget=budget)
    cache.put(key, {"n": basis.n, "elements": vectors_to_json(basis.elements)})
    return basis
