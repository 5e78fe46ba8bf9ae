"""Holographic vector algebra.

Concepts are carried by fixed-dimension real vectors. Structure is encoded
by circular convolution (binding) and recovered by circular correlation
(unbinding), with a cleanup step that maps noisy decode results back onto
the nearest known concept vector. Convolution and correlation are
O(n log n) via real FFTs, checked against the direct sums in the tests.

Vectors are plain ``numpy.float64`` arrays. Entries are drawn i.i.d. from
a zero-mean Gaussian with variance ``1/dim``, which puts the expected norm
at 1 and makes correlation an approximate inverse of convolution.

A :class:`Codebook` keeps its vectors as the rows of one read-only
``(len(terms), dim)`` matrix in sorted-term order, with the row norms
alongside. :func:`cleanup` scores a probe against every row with one
matrix-vector product and then rescores only the near-winners with
:func:`similarity`, so its answer is exactly that of a term-by-term scan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, EmptyCodebookError, UnknownTermError, ZeroVectorError

Vector = NDArray[np.float64]


def _as_vector(v, name: str = "vector") -> Vector:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise DimensionError(f"{name} must be a 1-d vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_same_dim(x: Vector, y: Vector) -> None:
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")


def _seed_for(seed: int, dim: int, term: str | None = None) -> np.random.Generator:
    # Per-term seeds are derived by hashing so a codebook entry depends only
    # on (seed, dim, term), never on insertion order.
    if term is None:
        return np.random.default_rng(seed)
    digest = hashlib.sha256(f"{seed}|{dim}|{term}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def random_vector(seed: int, dim: int, term: str | None = None) -> Vector:
    """Deterministic pseudo-random vector with entry variance 1/dim.

    ``term``, when given, folds an identifier into the seed so collections
    of named vectors can be regenerated entry-by-entry.
    """
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    rng = _seed_for(seed, dim, term)
    return rng.standard_normal(dim) / np.sqrt(dim)


def delta(dim: int) -> Vector:
    """Unit impulse at index 0: the identity of convolution."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    v = np.zeros(dim)
    v[0] = 1.0
    return v


def convolve(x, y) -> Vector:
    """Circular convolution: z[j] = sum_k x[k] * y[(j-k) mod n]."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_dim(x, y)
    n = x.shape[0]
    return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(y), n=n)


def correlate(x, z) -> Vector:
    """Circular correlation: y[j] = sum_k x[k] * z[(k+j) mod n].

    Approximately inverts :func:`convolve` when ``x`` is a near-unit-norm
    random vector: ``correlate(x, convolve(x, y)) ~ y``.
    """
    x = _as_vector(x, "x")
    z = _as_vector(z, "z")
    _check_same_dim(x, z)
    n = x.shape[0]
    return np.fft.irfft(np.conj(np.fft.rfft(x)) * np.fft.rfft(z), n=n)


def superpose(vectors: Sequence[Vector]) -> Vector:
    """Entrywise sum of several vectors, holding them in one trace."""
    if len(vectors) == 0:
        raise ValueError("superpose requires at least one vector")
    vs = [_as_vector(v) for v in vectors]
    for v in vs[1:]:
        _check_same_dim(vs[0], v)
    return np.sum(vs, axis=0)


def similarity(x, y) -> float:
    """Cosine of the angle between x and y, in [-1, 1]."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_dim(x, y)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ZeroVectorError("similarity is undefined for an all-zero vector")
    return float(np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0))


@dataclass(frozen=True)
class Codebook:
    """Immutable map from concept ids to their random vectors.

    Vectors are regenerated from ``(seed, dim, term)`` on construction;
    serialization therefore stores only the header and the term list.
    Row ``i`` of the read-only matrix ``_rows`` is the vector of
    ``terms[i]``; :meth:`vector` returns a view of that row.
    """

    terms: tuple[str, ...]
    dim: int = 512
    seed: int = 0
    _vectors: dict[str, Vector] = field(init=False, repr=False, compare=False)
    _rows: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _norms: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __init__(self, terms: Iterable[str], dim: int = 512, seed: int = 0):
        object.__setattr__(self, "terms", tuple(sorted(set(terms))))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "seed", int(seed))
        if self.dim < 1:
            raise DimensionError(f"dim must be >= 1, got {dim}")
        rows = np.empty((len(self.terms), self.dim))
        for i, t in enumerate(self.terms):
            rows[i] = random_vector(self.seed, self.dim, term=t)
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_vectors", dict(zip(self.terms, rows)))
        # einsum, unlike norm(axis=1), makes no rows-sized temporary
        object.__setattr__(self, "_norms", np.sqrt(np.einsum("ij,ij->i", rows, rows)))

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._vectors

    def vector(self, term: str) -> Vector:
        try:
            return self._vectors[term]
        except KeyError:
            raise UnknownTermError(f"term not in codebook: {term!r}", [term]) from None

    def save(self, path) -> None:
        lines = [f"dim {self.dim}", f"seed {self.seed}"]
        lines += [f"term {t}" for t in self.terms]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Codebook":
        dim = seed = None
        terms = []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition(" ")
                if key == "dim":
                    dim = int(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "term":
                    terms.append(value)
                else:
                    raise ValueError(f"unknown codebook record: {line!r}")
        if dim is None or seed is None:
            raise ValueError("codebook file lacks dim/seed header")
        return cls(terms, dim=dim, seed=seed)


def cleanup(v, book: Codebook) -> tuple[str, float]:
    """Nearest codebook entry to ``v`` by cosine similarity.

    Returns ``(concept_id, similarity)``. Ties break to the
    lexicographically smaller id so results are reproducible.

    One product ``rows @ v / (norms * |v|)`` scores every entry. It and
    :func:`similarity` round differently, each within about ``dim * eps``
    of the true cosine, so every entry scored within ``64 * dim * eps`` of
    the top score is rescored with :func:`similarity` in sorted order,
    keeping the first strict maximum. The true winner and every entry tied
    with it are among those, so the term and the float returned are
    exactly those of scanning all entries with :func:`similarity`. A score
    that is not a number (a probe so large its product overflows) puts
    every entry into the rescoring.
    """
    if len(book) == 0:
        raise EmptyCodebookError("cleanup against an empty codebook")
    v = _as_vector(v, "probe")
    if v.shape[0] != book.dim:
        raise DimensionError(f"dimension mismatch: probe {v.shape[0]} vs codebook {book.dim}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.all(book._norms):
        raise ZeroVectorError("similarity is undefined for an all-zero vector")
    approx = (book._rows @ v) / (book._norms * norm)
    tol = 64 * book.dim * np.finfo(np.float64).eps
    near = np.flatnonzero(~(approx < approx.max() - tol))  # a nan keeps every entry
    best_term = None
    best_sim = -2.0
    for i in near:  # sorted; strict > keeps the first of any tie
        term = book.terms[i]
        sim = similarity(v, book.vector(term))
        if sim > best_sim:
            best_term, best_sim = term, sim
    return best_term, best_sim
