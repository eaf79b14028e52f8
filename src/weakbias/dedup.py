"""Near-duplicate detection over feature vectors.

Every pair of samples at or below a squared Euclidean distance threshold
is found exactly by a blocked radius join: a matrix product per block of
rows gives the distances in the expanded form ||x||^2 + ||y||^2 - 2 x.y,
pairs within a rounding margin of the threshold are rechecked in float64,
and the survivors are merged with union-find. Each cluster keeps one
canonical sample, picked by side majority and then lowest id. The result
depends only on the features and the threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .binio import atomic_write
from .corpus import Corpus, SideLabel
from .errors import InputError

# Rows per block. A block's distances, _BLOCK x n values in the working
# dtype, are the join's only temporary that grows with the corpus.
_BLOCK = 64


def _kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Working rows, their squared norms and the expanded form's error bound.

    The work is float32 unless an intermediate could overflow there. In the
    working precision u, however the product is summed, the expanded
    distance of x and y is off by less than about (d + 5) u (||x||^2 +
    ||y||^2) plus one underflow step per operation; the margin is twice
    that, taken at the largest norm."""
    sq = np.einsum("ij,ij->i", x, x, dtype=np.float64)
    max_sq = float(sq.max(initial=0.0))
    dtype = np.float32 if 5.0 * max_sq < float(np.finfo(np.float32).max) else np.float64
    info = np.finfo(dtype)
    margin = (x.shape[1] + 8) * (2.0 * float(info.eps) * max_sq + float(info.tiny))
    return x.astype(dtype, copy=False), sq.astype(dtype), margin


def _distance_block(xw: np.ndarray, sq: np.ndarray, rows, cols: slice) -> np.ndarray:
    """Expanded squared distances from rows to cols, computed in place.

    The product uses einsum's own loop rather than BLAS. It takes the same
    few milliseconds at 600 rows and is 2.6 times slower at 20,000 rows,
    but OpenBLAS's sgemm added 0.7 MB to the dedup-wire benchmark's peak
    RSS, and on a two-CPU host its worker threads stalled single calls by
    16 ms."""
    block = np.einsum("ij,kj->ik", xw[rows], xw[cols])
    block *= -2.0
    block += sq[rows, None]
    block += sq[cols]
    return block


def _exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, summed in float64 as (a - b)**2."""
    return ((a.astype(np.float64) - b) ** 2).sum(axis=1)


def _radius_pairs(x: np.ndarray, threshold: float) -> Iterator[tuple[int, int]]:
    """Every row pair i < j with squared distance at or below the threshold.

    Only the upper triangle is computed, one block of rows at a time. A
    candidate within the margin of the threshold (compared in float64, so
    the limit is not rounded) is kept when its float64 distance passes, so
    the pairs are exactly those of a full float64 scan."""
    xw, sq, margin = _kernel(x)
    limit = np.float64(threshold + margin)
    for b0 in range(0, len(x), _BLOCK):
        rows = slice(b0, b0 + _BLOCK)
        r, c = np.nonzero(_distance_block(xw, sq, rows, slice(b0, None)) <= limit)
        upper = c > r
        i, j = r[upper] + b0, c[upper] + b0
        close = _exact(x[i], x[j]) <= threshold
        yield from zip(i[close].tolist(), j[close].tolist())


def _knn_distances(x: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """The k smallest squared distances from each query row to the other
    rows, exact in float64; k must be below the row count.

    The (k+1)-th smallest expanded distance counting the query itself bounds
    its k-th neighbour from above within one margin, so every true neighbour
    sits within two margins of it and is rechecked."""
    xw, sq, margin = _kernel(x)
    out = []
    for b0 in range(0, len(queries), _BLOCK):
        q = queries[b0 : b0 + _BLOCK]
        block = _distance_block(xw, sq, q, slice(None))
        kth = np.partition(block, k, axis=1)[:, k]
        limits = kth.astype(np.float64) + 2.0 * margin
        for row, query, limit in zip(block, q, limits):
            cols = np.nonzero(row <= limit)[0]
            cols = cols[cols != query]
            out.append(np.partition(_exact(x[cols], x[query]), k - 1)[:k])
    return np.concatenate(out) if out else np.zeros(0)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class DuplicateCluster:
    member_ids: frozenset[str]
    canonical_id: str


def select_canonical(member_ids, corpus: Corpus) -> str:
    """The sample to keep from one duplicate cluster.

    The side with more members wins and its lowest id is kept; a side tie
    falls back to the lowest id overall (whose side then wins by
    definition)."""
    members = sorted(member_ids)
    if not members:
        raise InputError("cannot pick a canonical sample from an empty cluster")
    left = [m for m in members if corpus.sample(m).side is SideLabel.LEFT]
    right = [m for m in members if corpus.sample(m).side is SideLabel.RIGHT]
    if len(left) > len(right):
        return left[0]
    if len(right) > len(left):
        return right[0]
    return members[0]


def cluster_duplicates(corpus: Corpus, threshold: float) -> list[DuplicateCluster]:
    """Group samples linked by pairs at or below the squared-distance
    threshold.

    Clusters are the connected components of those pairs; only components
    with two or more members are reported, ordered by lowest member id.
    Non-finite features raise InputError naming the sample."""
    if not threshold >= 0:
        raise InputError(f"threshold must be >= 0, got {threshold}")
    n = len(corpus)
    if n == 0:
        return []
    uf = _UnionFind(n)
    for i, j in _radius_pairs(corpus.finite_features(), threshold):
        uf.union(i, j)
    groups: dict[int, list[str]] = {}
    for i, sid in enumerate(corpus.ids()):
        groups.setdefault(uf.find(i), []).append(sid)
    clusters = [
        DuplicateCluster(frozenset(members), select_canonical(members, corpus))
        for members in groups.values()
        if len(members) >= 2
    ]
    clusters.sort(key=lambda c: min(c.member_ids))
    return clusters


def deduplicate(
    corpus: Corpus, threshold: float
) -> tuple[Corpus, list[DuplicateCluster]]:
    """Remove every cluster member except its canonical sample.

    Returns the reduced corpus (original order preserved) and the clusters.
    Running the result through deduplicate again is a no-op as long as the
    surviving samples are farther apart than the threshold."""
    clusters = cluster_duplicates(corpus, threshold)
    drop: set[str] = set()
    for cluster in clusters:
        drop.update(cluster.member_ids)
        drop.discard(cluster.canonical_id)
    kept = [s for s in corpus if s.id not in drop]
    return Corpus(corpus.feature_dim, kept), clusters


def save_cluster_report(
    clusters: list[DuplicateCluster], path: str, corpus: Corpus | None = None
) -> None:
    """One JSON line per cluster: canonical id, member ids, and side counts
    when a corpus is supplied to look them up in."""
    with atomic_write(path) as fh:
        for cluster in clusters:
            fh.write(json.dumps(cluster_report_row(cluster, corpus)) + "\n")


def cluster_report_row(cluster: DuplicateCluster, corpus: Corpus | None) -> dict:
    row = {
        "canonical": cluster.canonical_id,
        "members": sorted(cluster.member_ids),
    }
    if corpus is not None:
        left = sum(
            1 for m in cluster.member_ids if corpus.sample(m).side is SideLabel.LEFT
        )
        row["side_counts"] = {"L": left, "R": len(cluster.member_ids) - left}
    return row


def knn_distance_histogram(
    corpus: Corpus,
    *,
    k: int = 200,
    sample_size: int = 500,
    bins: int = 50,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of exact k-nearest-neighbour distances over a sample of
    queries, each query's own row excluded; k is capped at n - 1.

    Useful for eyeballing a duplicate threshold: near-duplicates show up as
    a spike at the low end, well separated from the bulk. Returns
    (counts, bin_edges) as np.histogram does."""
    n = len(corpus)
    if n < 2:
        raise InputError("need at least two samples for a distance histogram")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    x = corpus.finite_features()
    rng = np.random.default_rng(seed)
    if n > sample_size:
        queries = rng.choice(n, size=sample_size, replace=False)
    else:
        queries = np.arange(n)
    return np.histogram(_knn_distances(x, queries, min(k, n - 1)), bins=bins)
