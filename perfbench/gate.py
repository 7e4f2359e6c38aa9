"""Output checks of the benchmark, run after the timed section.

Pinned digests say that an output is exactly the committed one; the
structural checks here hold for every seed, pinned or not. None of them uses
graverkit code, so a defect there cannot hide itself.
"""

from __future__ import annotations

import numpy as np

from inputs import digest

# The pairwise dominance test runs on int64 arrays; larger entries fail the check.
_INT64_SAFE = 1 << 40


def basis_digest(elements) -> str:
    return digest([list(u) for u in elements])


def oracle_digest(graver, indispensable) -> str:
    return digest([[list(u) for u in graver], [list(u) for u in indispensable]])


def report_digest(report) -> str:
    """Digest of a SearchReport without its run time."""
    d = report.to_dict()
    d.pop("runtime_seconds", None)
    return digest(d)


def report_problems(report, instances: int) -> list[str]:
    problems = []
    if report.instances != instances:
        problems.append(f"{report.instances} instances, expected {instances}")
    if report.violations:
        problems.append(f"violations: {report.violations[:3]}")
    if report.skipped:
        problems.append(f"budget skips: {len(report.skipped)}")
    if report.empty_complex + report.one_vertex != report.instances:
        problems.append("empty + one-vertex complexes do not add up to the instances")
    if len(report.vertex_instances) != report.one_vertex:
        problems.append("vertex list and one-vertex count disagree")
    return problems


def _canonical(u) -> bool:
    first = next((x for x in u if x != 0), 0)
    return first > 0


def _dominated(vectors) -> list[int]:
    """Indices i such that some other vector v has v+ <= u+ and v- <= u-."""
    arr = np.array(vectors, dtype=np.int64)
    parts = np.concatenate([np.maximum(arr, 0), np.maximum(-arr, 0)], axis=1)
    out = []
    for lo in range(0, len(vectors), 64):
        block = parts[lo:lo + 64]
        below = (parts[None, :, :] <= block[:, None, :]).all(axis=2)
        counts = below.sum(axis=1)  # each vector is below itself once
        out.extend(lo + int(i) for i in np.nonzero(counts > 1)[0])
    return out


def basis_problems(rows, elements) -> list[str]:
    """Structural faults of a canonical Graver basis of the matrix `rows`.

    Every element lies in Ker(A), is sign-canonical (first nonzero entry
    positive), the list is strictly increasing (canonical order, no
    duplicates), and no element of +-G is conformally below another.
    """
    problems = []
    elements = [tuple(u) for u in elements]
    for u in elements:
        if any(sum(a * x for a, x in zip(row, u)) for row in rows):
            problems.append(f"{u} is not in the kernel")
            break
    if not all(_canonical(u) for u in elements):
        problems.append("an element is not sign-canonical")
    if any(a >= b for a, b in zip(elements, elements[1:])):
        problems.append("elements are not strictly increasing")
    both = elements + [tuple(-x for x in u) for u in elements]
    if any(abs(x) >= _INT64_SAFE for u in elements for x in u):
        problems.append("entries too large for the int64 dominance check")
    elif both and len(set(both)) == len(both) and _dominated(both):
        problems.append("an element conformally dominates another")
    return problems
