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
from .linalg import IntMat, IntVec

TOOL_VERSION = __version__

CACHE_DIR_ENV = "GRAVERKIT_CACHE_DIR"


def read_matrix(path: str | Path) -> IntMat:
    return IntMat.parse(Path(path).read_text())


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text)


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


def cached_graver_basis(A: IntMat, cache: Cache | None, budget: Budget | None = None) -> GraverBasis:
    """graver_basis through the persistent cache.

    Hits are byte-identical to recomputation because the stored payload is the
    canonical element list.
    """
    if cache is None:
        return graver_basis(A, budget=budget)
    key = cache_key("graver", A)
    payload = cache.get(key)
    if payload is not None and payload.get("n") == A.ncols:
        return GraverBasis(
            n=A.ncols,
            elements=tuple(tuple(int(x) for x in v) for v in payload["elements"]),
            matrix_hash=A.content_hash(),
        )
    basis = graver_basis(A, budget=budget)
    cache.put(key, {"n": basis.n, "elements": vectors_to_json(basis.elements)})
    return basis
