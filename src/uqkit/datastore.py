"""Persistent (latent vector, non-conformity score) store with k-NN search.

Latents are held at 32-bit precision, scores at 64-bit. Exact search supports
squared l2 distance (ascending), inner product normalized by sqrt(dim)
(descending), and cosine similarity (descending); an optional inverted-file
index accelerates large stores at a measurable recall cost. Every search runs
one routine, `Datastore._search`: for each bounded block of queries, the
metric's keys against every candidate row, then a partition that keeps each
query's best k in the order of a stable sort. `query_batch` returns aligned
best-first (queries, k) arrays of keys, scores and record ids in one
`Neighbors` result; `query` is its one-row case, and `query_ivf` runs the same
routine to probe the centroids and to scan the probed lists.

Every row enters through `add_batch`, whether it comes from arrays, a CSV or a
UQDS file, and meets the check that `query_batch` and `query_ivf` run on their
queries: a non-finite or beyond-float32 latent, or a non-finite score, raises
ValueError.

File format "UQDS" v1 (little-endian, bit-exact round trip):
    magic "UQDS" (4 bytes) | u32 version | u32 dim | u64 count |
    count * (dim * f32 latent, f64 score)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"UQDS"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")
_KMEANS_ITERS = 25
# Float32 values of key scratch per block of queries (1 MB): the l2 difference
# block is (queries, rows, dim). One unbounded block was no faster and raised
# peak RSS by ~17 MB.
_BLOCK_ELEMENTS = 1 << 18
# k-NN metric names, in the order the CLI lists them.
METRICS = ("l2", "ip", "cos")


def _best_first(signed: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest keys, equal to `argsort(kind="stable")[:, :k]`.

    A partition finds each row's k-th smallest key. Where exactly k keys are at
    or below it, those k, taken in column order and stable-sorted, are the full
    sort's first k. Rows with ties at the k-th key, or a NaN there (NaN sorts
    last), take the full stable sort.
    """
    rows, columns = signed.shape
    if k >= columns:
        return np.argsort(signed, axis=1, kind="stable")[:, :k]
    kth = np.partition(signed, k - 1, axis=1)[:, k - 1:k]
    below = signed <= kth
    rest = np.count_nonzero(below, axis=1) != k
    below[rest] = np.arange(columns) < k  # placeholders, so every row has k candidates
    candidates = np.flatnonzero(below).reshape(rows, k) % columns
    order = np.argsort(np.take_along_axis(signed, candidates, axis=1), axis=1, kind="stable")
    best = np.take_along_axis(candidates, order, axis=1)
    best[rest] = np.argsort(signed[rest], axis=1, kind="stable")[:, :k]
    return best


class DatastoreFormatError(ValueError):
    """Raised when a UQDS file is malformed (bad magic, version, or truncation)."""


@dataclass(frozen=True)
class Neighbors:
    """Retrieved records as aligned best-first arrays of keys, scores and record ids.

    The arrays are 1-D for one query and (queries, k) for `Datastore.query_batch`.
    """

    keys: np.ndarray
    scores: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return self.ids.size


class Datastore:
    """In-memory store of calibration records with exact and IVF k-NN queries."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self._latents = np.empty((0, dim), dtype=np.float32)
        self._scores = np.empty(0, dtype=np.float64)
        self._centroids: np.ndarray | None = None
        self._lists: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return self._scores.size

    @property
    def latents(self) -> np.ndarray:
        return self._latents

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    def add_batch(self, latents, scores) -> None:
        """Append (rows, dim) latents and their scores, every row checked before any is added."""
        rows = self._check_rows(latents)
        sco = np.asarray(scores, dtype=np.float64).ravel()
        if rows.shape[0] != sco.size:
            raise ValueError("latents and scores must have equal length")
        if not np.all(np.isfinite(sco)):
            raise ValueError("scores must be finite")
        self._latents = np.vstack([self._latents, rows])
        self._scores = np.concatenate([self._scores, sco])
        self._centroids = None  # any existing IVF index is stale
        self._lists = None

    def _check_rows(self, latents) -> np.ndarray:
        """The (rows, dim) float32 matrix of `latents`, or ValueError if any row is bad.

        A value beyond the float32 range becomes infinite in the cast, and is
        rejected with the non-finite ones; the cast does not warn about it.
        """
        with np.errstate(over="ignore"):
            rows = np.asarray(latents, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError("latents must be a (rows, dim) matrix")
        if rows.shape[1] != self.dim:
            raise ValueError(f"latent dimension {rows.shape[1]} does not match store "
                             f"dimension {self.dim}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("latents must be finite")
        return np.ascontiguousarray(rows)

    def _search(self, queries: np.ndarray, rows: np.ndarray, k: int,
                metric: str) -> tuple[np.ndarray, np.ndarray]:
        """Keys and positions in `rows` of each query's best min(k, len(rows)) rows.

        Queries go in blocks whose scratch stays near `_BLOCK_ELEMENTS` float32
        values. A block computes its (queries, rows) keys with the per-query
        arithmetic (an einsum of differences for l2, one gemv per query for ip
        and cos), then `_best_first` keeps each query's best k in the order of
        a stable sort, so equal keys keep row order.
        """
        if metric not in METRICS:
            raise ValueError(f"unknown metric: {metric!r}")
        k = min(k, len(rows))
        positions = np.empty((queries.shape[0], k), dtype=np.intp)
        keys = np.empty(positions.shape)
        if metric == "cos":
            row_norms = np.linalg.norm(rows, axis=1)
            # a batch of the dot products behind np.linalg.norm(q), to the bit
            query_norms = np.sqrt(np.matmul(queries[:, None, :], queries[:, :, None])[:, 0, 0])
        step = max(1, _BLOCK_ELEMENTS // max(rows.size, 1))
        for start in range(0, queries.shape[0], step):
            block = slice(start, start + step)
            qb = queries[block]
            if metric == "l2":
                diff = rows[None] - qb[:, None]
                block_keys = np.einsum("bij,bij->bi", diff, diff).astype(np.float64)
            else:
                # matmul of (rows, dim) by each (dim, 1) query is the gemv of rows @ q;
                # qb @ rows.T would be a gemm, whose sums differ in the last bits
                dots = np.matmul(rows[None], qb[:, :, None])[:, :, 0]
                if metric == "ip":
                    block_keys = dots.astype(np.float64) / np.sqrt(self.dim)
                else:
                    norms = row_norms[None, :] * query_norms[block, None]
                    with np.errstate(invalid="ignore", divide="ignore"):
                        sims = np.where(norms > 0.0, dots / norms, 0.0)
                    block_keys = sims.astype(np.float64)
            best = _best_first(block_keys if metric == "l2" else -block_keys, k)
            positions[block] = best
            keys[block] = np.take_along_axis(block_keys, best, axis=1)
        return keys, positions

    def query(self, latent, k: int, metric: str = "l2") -> Neighbors:
        """Exact top-min(k, count) records, best-first under the metric: row 0 of `query_batch`."""
        batch = self.query_batch(np.reshape(latent, (1, -1)), k, metric)
        return Neighbors(batch.keys[0], batch.scores[0], batch.ids[0])

    def query_batch(self, latents, k: int, metric: str = "l2") -> Neighbors:
        """`query` for every row of a (queries, dim) matrix, as (queries, min(k, count)) arrays.

        Every row is checked before any key is computed.
        """
        if len(self) == 0:
            raise ValueError("empty datastore")
        if k < 1:
            raise ValueError("k must be >= 1")
        keys, ids = self._search(self._check_rows(latents), self._latents, k, metric)
        return Neighbors(keys, self._scores[ids], ids)

    # -- persistence ---------------------------------------------------------

    def _record_dtype(self) -> np.dtype:
        return np.dtype([("latent", "<f4", (self.dim,)), ("score", "<f8")])

    def save(self, path) -> None:
        records = np.empty(len(self), dtype=self._record_dtype())
        records["latent"] = self._latents
        records["score"] = self._scores
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, self.dim, len(self)))
            fh.write(records.tobytes())

    @classmethod
    def load(cls, path) -> "Datastore":
        raw = Path(path).read_bytes()
        if len(raw) < _HEADER.size:
            raise DatastoreFormatError("truncated file: header incomplete")
        magic, version, dim, count = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise DatastoreFormatError("bad magic")
        if version != _VERSION:
            raise DatastoreFormatError(f"unsupported version {version}")
        record_size = 4 * dim + 8  # Python ints, so a huge header cannot overflow
        if dim < 1 or record_size > np.iinfo(np.int32).max:  # numpy's record size limit
            raise DatastoreFormatError(f"invalid dimension {dim}")
        body = raw[_HEADER.size:]
        expected = count * record_size
        if len(body) != expected:
            raise DatastoreFormatError(
                f"truncated file: expected {expected} record bytes, found {len(body)}")
        store = cls(dim)
        records = np.frombuffer(body, dtype=store._record_dtype(), count=count)
        store.add_batch(records["latent"], records["score"])
        return store

    # -- inverted-file index -------------------------------------------------

    def build_ivf(self, num_clusters: int, rng: np.random.Generator) -> None:
        """Coarse k-means index (fixed iteration count, seeded initialization)."""
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if len(self) < num_clusters:
            raise ValueError("store has fewer records than requested clusters")
        data = self._latents.astype(np.float64)
        centroids = data[rng.choice(len(self), size=num_clusters, replace=False)].copy()
        sq_data = np.einsum("ij,ij->i", data, data)
        assignment = np.zeros(len(self), dtype=np.int64)
        for _ in range(_KMEANS_ITERS):
            sq_cent = np.einsum("ij,ij->i", centroids, centroids)
            d2 = sq_data[:, None] - 2.0 * (data @ centroids.T) + sq_cent[None, :]
            assignment = d2.argmin(axis=1)
            for c in range(num_clusters):
                members = data[assignment == c]
                if members.size:
                    centroids[c] = members.mean(axis=0)
        self._centroids = centroids.astype(np.float32)
        self._lists = [np.nonzero(assignment == c)[0] for c in range(num_clusters)]

    def query_ivf(self, latent, k: int, metric: str = "l2", nprobe: int = 1) -> Neighbors:
        """Approximate query scanning only the nprobe closest centroid lists."""
        if self._centroids is None or self._lists is None:
            raise ValueError("no IVF index built; call build_ivf first")
        if k < 1:
            raise ValueError("k must be >= 1")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        query = self._check_rows(np.reshape(latent, (1, -1)))
        _, probe = self._search(query, self._centroids, nprobe, metric)
        candidate_ids = np.concatenate([self._lists[c] for c in probe[0]])
        keys, positions = self._search(query, self._latents[candidate_ids], k, metric)
        ids = candidate_ids[positions[0]]
        return Neighbors(keys[0], self._scores[ids], ids)
