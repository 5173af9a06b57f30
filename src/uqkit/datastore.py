"""Persistent (latent vector, non-conformity score) store with k-NN search.

Latents are held at 32-bit precision, scores at 64-bit. Exact search supports
squared l2 distance (ascending), inner product normalized by sqrt(dim)
(descending), and cosine similarity (descending); an optional inverted-file
index accelerates large stores at a measurable recall cost. A query returns one
`Neighbors` result: aligned best-first arrays of keys, scores and record ids.

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


class DatastoreFormatError(ValueError):
    """Raised when a UQDS file is malformed (bad magic, version, or truncation)."""


@dataclass(frozen=True)
class Neighbors:
    """Retrieved records as aligned best-first arrays of keys, scores and record ids."""

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

    def _check_latent(self, latent) -> np.ndarray:
        arr = np.asarray(latent, dtype=np.float32).ravel()
        if arr.size != self.dim:
            raise ValueError(f"latent dimension {arr.size} does not match store dimension {self.dim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("latent must be finite")
        return arr

    def add(self, latent, score: float) -> None:
        arr = self._check_latent(latent)
        if not np.isfinite(score):
            raise ValueError("score must be finite")
        self._latents = np.vstack([self._latents, arr[None, :]])
        self._scores = np.append(self._scores, float(score))
        self._centroids = None  # any existing IVF index is stale
        self._lists = None

    def add_batch(self, latents, scores) -> None:
        lat = np.asarray(latents, dtype=np.float32)
        sco = np.asarray(scores, dtype=np.float64).ravel()
        if lat.ndim != 2 or lat.shape[1] != self.dim:
            raise ValueError(f"latent dimension does not match store dimension {self.dim}")
        if lat.shape[0] != sco.size:
            raise ValueError("latents and scores must have equal length")
        if not np.all(np.isfinite(lat)):
            raise ValueError("latents must be finite")
        if not np.all(np.isfinite(sco)):
            raise ValueError("scores must be finite")
        self._latents = np.vstack([self._latents, lat])
        self._scores = np.concatenate([self._scores, sco])
        self._centroids = None
        self._lists = None

    def _keys(self, latent: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
        """Ordering keys of `rows` against the query under the given metric."""
        if metric == "l2":
            diff = rows - latent[None, :]
            return np.einsum("ij,ij->i", diff, diff).astype(np.float64)
        if metric == "ip":
            return (rows @ latent).astype(np.float64) / np.sqrt(self.dim)
        if metric == "cos":
            norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(latent)
            with np.errstate(invalid="ignore", divide="ignore"):
                sims = np.where(norms > 0.0, (rows @ latent) / norms, 0.0)
            return sims.astype(np.float64)
        raise ValueError(f"unknown metric: {metric!r}")

    @staticmethod
    def _best_first(keys: np.ndarray, metric: str) -> np.ndarray:
        return np.argsort(keys if metric == "l2" else -keys, kind="stable")

    def _neighbors(self, candidate_ids: np.ndarray, keys: np.ndarray, k: int,
                   metric: str) -> Neighbors:
        order = self._best_first(keys, metric)[:k]
        ids = candidate_ids[order]
        return Neighbors(keys[order], self._scores[ids], ids)

    def query(self, latent, k: int, metric: str = "l2") -> Neighbors:
        """Exact top-min(k, count) records, best-first under the metric."""
        if len(self) == 0:
            raise ValueError("empty datastore")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = self._check_latent(latent)
        keys = self._keys(q, self._latents, metric)
        ids = np.arange(len(self))
        return self._neighbors(ids, keys, min(k, len(self)), metric)

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
        store._latents = np.ascontiguousarray(records["latent"]).reshape(count, dim)
        store._scores = records["score"].astype(np.float64)
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
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        q = self._check_latent(latent)
        centroid_keys = self._keys(q, self._centroids, metric)
        probe = self._best_first(centroid_keys, metric)[:min(nprobe, len(self._lists))]
        candidate_ids = np.concatenate([self._lists[c] for c in probe])
        keys = self._keys(q, self._latents[candidate_ids], metric)
        return self._neighbors(candidate_ids, keys, min(k, candidate_ids.size), metric)
