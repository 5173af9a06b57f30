import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import exact_query_oracle
from uqkit import datastore
from uqkit.datastore import Datastore, DatastoreFormatError, Neighbors


def linear_scan(latents, scores, query, k, metric, dim):
    """Oracle: python-loop exhaustive search."""
    keyed = []
    for i, (vec, score) in enumerate(zip(latents, scores)):
        vec = np.asarray(vec, dtype=np.float64)
        q = np.asarray(query, dtype=np.float64)
        if metric == "l2":
            key = float(((vec - q) ** 2).sum())
        elif metric == "ip":
            key = float(vec @ q) / np.sqrt(dim)
        else:
            denom = np.linalg.norm(vec) * np.linalg.norm(q)
            key = float(vec @ q / denom) if denom > 0 else 0.0
        keyed.append((key, i, score))
    reverse = metric != "l2"
    keyed.sort(key=lambda item: (-item[0] if reverse else item[0], item[1]))
    return keyed[:k]


def make_store(rng, count, dim):
    store = Datastore(dim)
    store.add_batch(rng.normal(size=(count, dim)).astype(np.float32), rng.random(count))
    return store


class TestAddQuery:
    def test_roundtrip_single_record(self):
        store = Datastore(4)
        vec = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        store.add_batch([vec], [0.5])
        assert len(store) == 1
        result = store.query(vec, 1)
        assert result.keys[0] == 0.0
        assert result.scores[0] == 0.5

    def test_count_grows(self):
        store = Datastore(3)
        rng = np.random.default_rng(0)
        for i in range(20):
            store.add_batch([rng.normal(size=3)], [float(i % 2)])
        assert len(store) == 20

    def test_dimension_mismatch(self):
        store = Datastore(3)
        with pytest.raises(ValueError, match="dimension"):
            store.add_batch([np.zeros(4)], [0.1])

    def test_empty_store_query(self):
        store = Datastore(3)
        with pytest.raises(ValueError, match="empty"):
            store.query(np.zeros(3), 1)

    def test_cosine_orthogonal(self):
        store = Datastore(2)
        store.add_batch([[1.0, 0.0]], [0.1])
        result = store.query([0.0, 1.0], 1, metric="cos")
        assert result.keys[0] == pytest.approx(0.0)

    def test_score_must_be_finite(self):
        store = Datastore(2)
        with pytest.raises(ValueError):
            store.add_batch([[0.0, 0.0]], [float("nan")])

    # 1e39 is finite at float64 but beyond float32: rejected before a cast that would warn
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e39])
    def test_latent_must_be_finite(self, bad):
        store = Datastore(2)
        with pytest.raises(ValueError, match="finite"):
            store.add_batch([[bad, 1.0]], [0.1])
        with pytest.raises(ValueError, match="finite"):
            store.add_batch([[0.0, 0.0], [bad, 1.0]], [0.1, 0.2])
        assert len(store) == 0
        store.add_batch([[0.0, 1.0], [1.0, 0.0]], [0.1, 0.2])
        with pytest.raises(ValueError, match="finite"):
            store.query([bad, 1.0], 1)
        store.build_ivf(1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            store.query_ivf([1.0, bad], 1)

    @pytest.mark.parametrize("metric", ["l2", "ip", "cos"])
    def test_matches_linear_scan_oracle(self, metric):
        rng = np.random.default_rng(1)
        store = make_store(rng, 1000, 8)
        for _ in range(20):
            query = rng.normal(size=8).astype(np.float32)
            got = store.query(query, 10, metric=metric)
            expected = linear_scan(store.latents, store.scores, query, 10, metric, 8)
            assert got.ids.tolist() == [i for _, i, _ in expected]
            # float32 arithmetic in the store, float64 in the oracle
            np.testing.assert_allclose(got.keys, [key for key, _, _ in expected],
                                       rtol=1e-5, atol=1e-6)
            assert got.scores.tolist() == [score for _, _, score in expected]

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=2**31), st.sampled_from(["l2", "ip", "cos"]))
    @settings(max_examples=40, deadline=None)
    def test_best_first_ordering(self, count, k, seed, metric):
        rng = np.random.default_rng(seed)
        store = make_store(rng, count, 5)
        result = store.query(rng.normal(size=5), k, metric=metric)
        assert len(result) == min(k, count)
        keys = result.keys.tolist()
        if metric == "l2":
            assert keys == sorted(keys)
        else:
            assert keys == sorted(keys, reverse=True)


# Few distinct small-integer coordinates force key ties and zero-norm rows.
coordinates = st.one_of(st.integers(-2, 2).map(float),
                        st.floats(-8, 8, width=32))
# Near the float32 limit l2 keys overflow to inf and cosine keys become inf/inf = NaN.
NEAR_FLOAT32_MAX = float(np.float32(3e38))


def assert_equal_to_oracle(store, queries, k, metric, batch):
    """Each row of `batch`, and `store.query` of each query, equal the oracle bit for bit."""
    for row, query in enumerate(queries):
        keys, ids = exact_query_oracle(store.latents, query, k, metric)
        for got in (Neighbors(batch.keys[row], batch.scores[row], batch.ids[row]),
                    store.query(query, k, metric=metric)):
            assert got.keys.tobytes() == keys.tobytes()
            assert got.ids.tobytes() == ids.tobytes()
            assert got.scores.tobytes() == store.scores[ids].tobytes()


class TestQueryBatch:
    @given(st.data(), st.integers(min_value=1, max_value=6), st.sampled_from(["l2", "ip", "cos"]))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_single_queries(self, data, dim, metric):
        rows = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(1, 150)), dim),
                                    elements=coordinates))
        duplicates = data.draw(st.integers(0, len(rows)))
        # Duplicate store rows tie on every key; a zero row has no cosine direction.
        latents = np.concatenate([rows, rows[:duplicates], np.zeros((1, dim), np.float32)])
        queries = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(0, 12)), dim),
                                       elements=coordinates))
        queries = np.concatenate([queries, latents[:1], np.zeros((1, dim), np.float32)])
        for matrix in (latents, queries):
            for row in data.draw(st.lists(st.integers(0, len(matrix) - 1), max_size=2)):
                matrix[row, data.draw(st.integers(0, dim - 1))] = data.draw(
                    st.sampled_from([NEAR_FLOAT32_MAX, -NEAR_FLOAT32_MAX]))
        store = Datastore(dim)
        store.add_batch(latents, np.arange(len(latents)) / len(latents))
        k = data.draw(st.integers(1, len(latents) + 2))
        # from one query per block to every query in one block
        block = data.draw(st.integers(1, len(queries) * latents.size))
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(datastore, "_BLOCK_ELEMENTS", block)
            batch = store.query_batch(queries, k, metric=metric)
            assert batch.ids.shape == batch.keys.shape == (len(queries), min(k, len(store)))
            assert_equal_to_oracle(store, queries, k, metric, batch)
        for row in range(len(queries)):
            tied = batch.keys[row][1:] == batch.keys[row][:-1]
            assert np.all(batch.ids[row][1:][tied] > batch.ids[row][:-1][tied])

    @pytest.mark.parametrize("metric", ["l2", "ip", "cos"])
    def test_ties_at_the_kth_key_across_blocks(self, monkeypatch, metric):
        """Every row is stored twice, so an odd k splits a tied pair at the k-th key."""
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(150, 4)).astype(np.float32)
        store = Datastore(4)
        store.add_batch(np.concatenate([rows, rows]), np.arange(300) / 300)
        queries = np.concatenate([rng.normal(size=(40, 4)), rows[:10]])
        monkeypatch.setattr(datastore, "_BLOCK_ELEMENTS", 7 * store.latents.size)
        for k in (1, 7, 299, 300, 301):
            assert_equal_to_oracle(store, queries, k, metric, store.query_batch(queries, k, metric))

    @given(st.data(), st.integers(min_value=1, max_value=5), st.sampled_from(["l2", "ip", "cos"]))
    @settings(max_examples=60, deadline=None)
    def test_ivf_equals_exact_search_over_the_probed_records(self, data, dim, metric):
        rows = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(1, 120)), dim),
                                    elements=coordinates))
        latents = np.concatenate([rows, rows[:data.draw(st.integers(0, len(rows)))]])
        store = Datastore(dim)
        store.add_batch(latents, np.arange(len(latents)) / len(latents))
        store.build_ivf(data.draw(st.integers(1, min(8, len(store)))),
                        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        query = data.draw(hnp.arrays(np.float32, dim, elements=coordinates))
        k, nprobe = data.draw(st.integers(1, len(store) + 2)), data.draw(st.integers(1, 9))
        _, probe = exact_query_oracle(store._centroids, query, nprobe, metric)
        candidates = np.concatenate([store._lists[c] for c in probe])
        keys, positions = exact_query_oracle(store.latents[candidates], query, k, metric)
        got = store.query_ivf(query, k, metric=metric, nprobe=nprobe)
        assert got.keys.tobytes() == keys.tobytes()
        assert got.ids.tobytes() == candidates[positions].tobytes()
        assert got.scores.tobytes() == store.scores[candidates[positions]].tobytes()

    def test_float64_queries_match_single_queries(self):
        rng = np.random.default_rng(11)
        store = make_store(rng, 300, 8)
        queries = rng.normal(size=(20, 8))
        assert_equal_to_oracle(store, queries, 7, "cos", store.query_batch(queries, 7, "cos"))

    @pytest.mark.parametrize("queries, match", [
        (np.zeros((3, 4)), "latent dimension 4 does not match store dimension 3"),
        (np.zeros(3), r"\(rows, dim\) matrix"),
        ([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]], "latents must be finite"),
        ([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]], "latents must be finite"),
        ([[0.0, 0.0, 0.0], [1e39, 0.0, 0.0]], "latents must be finite"),  # inf at f32, no warning
    ])
    def test_rejects_bad_rows_before_any_work(self, monkeypatch, queries, match):
        store = make_store(np.random.default_rng(12), 10, 3)
        store.build_ivf(2, np.random.default_rng(0))
        monkeypatch.setattr(Datastore, "_search", None)  # any search would raise TypeError
        if np.ndim(queries) == 2:
            for search in (store.query, store.query_ivf):
                with pytest.raises(ValueError, match=match):
                    search(np.asarray(queries)[-1], 2)
        with pytest.raises(ValueError, match=match):
            store.query_batch(queries, 2)

    def test_empty_store_and_bad_k(self):
        with pytest.raises(ValueError, match="empty"):
            Datastore(3).query_batch(np.zeros((1, 3)), 1)
        with pytest.raises(ValueError, match="k must be"):
            make_store(np.random.default_rng(13), 5, 3).query_batch(np.zeros((1, 3)), 0)

    def test_no_queries(self):
        result = make_store(np.random.default_rng(14), 5, 3).query_batch(np.zeros((0, 3)), 9)
        assert isinstance(result, Neighbors)
        assert result.ids.shape == result.keys.shape == result.scores.shape == (0, 5)


class TestPersistence:
    def test_roundtrip_equality(self, tmp_path):
        rng = np.random.default_rng(2)
        store = make_store(rng, 100, 6)
        path = tmp_path / "store.uqds"
        store.save(path)
        loaded = Datastore.load(path)
        assert loaded.dim == 6
        assert np.array_equal(loaded.latents, store.latents)
        assert np.array_equal(loaded.scores, store.scores)

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        store = make_store(rng, 50, 4)
        first = tmp_path / "a.uqds"
        second = tmp_path / "b.uqds"
        store.save(first)
        Datastore.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    @given(st.data(), st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, data, dim, count):
        latents = data.draw(hnp.arrays(np.float32, (count, dim), elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)))
        scores = data.draw(hnp.arrays(np.float64, count, elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        store = Datastore(dim)
        store.add_batch(latents, scores)
        path = tmp_path_factory.mktemp("uqds") / "store.uqds"
        store.save(path)
        loaded = Datastore.load(path)
        assert loaded.dim == dim and len(loaded) == count
        # Bytes, not values: signed zeros must survive too.
        assert loaded.latents.dtype == np.float32 and loaded.scores.dtype == np.float64
        assert loaded.latents.shape == (count, dim)
        assert loaded.latents.tobytes() == latents.tobytes()
        assert loaded.scores.tobytes() == scores.tobytes()

    def test_empty_store_roundtrip(self, tmp_path):
        store = Datastore(7)
        path = tmp_path / "empty.uqds"
        store.save(path)
        loaded = Datastore.load(path)
        assert loaded.dim == 7
        assert len(loaded) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.uqds"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(DatastoreFormatError, match="bad magic"):
            Datastore.load(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(4)
        store = make_store(rng, 3, 2)
        path = tmp_path / "v.uqds"
        store.save(path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(DatastoreFormatError, match="version"):
            Datastore.load(path)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(5)
        store = make_store(rng, 10, 3)
        path = tmp_path / "t.uqds"
        store.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(DatastoreFormatError, match="truncated"):
            Datastore.load(path)
        path.write_bytes(raw[:10])
        with pytest.raises(DatastoreFormatError, match="truncated"):
            Datastore.load(path)

    @pytest.mark.parametrize("dim, count", [(2**31, 0), (2**31, 1), (2**32 - 1, 3), (2, 2**63)])
    def test_oversized_header(self, tmp_path, dim, count):
        path = tmp_path / "huge.uqds"
        path.write_bytes(struct.pack("<4sIIQ", b"UQDS", 1, dim, count) + bytes(24))
        with pytest.raises(DatastoreFormatError):
            Datastore.load(path)

    def test_little_endian_layout(self, tmp_path):
        store = Datastore(2)
        store.add_batch([np.array([1.0, 2.0], dtype=np.float32)], [0.25])
        path = tmp_path / "layout.uqds"
        store.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"UQDS"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 1
        assert np.frombuffer(raw[20:28], dtype="<f4").tolist() == [1.0, 2.0]
        assert np.frombuffer(raw[28:36], dtype="<f8")[0] == 0.25


class TestLoadChecksRows:
    """`load` adds its records through `add_batch`, so a file's rows meet the same check."""

    @pytest.mark.parametrize("field, value, match", [
        ("latent", np.inf, "latents must be finite"), ("latent", -np.inf, "latents must be finite"),
        ("latent", np.nan, "latents must be finite"), ("score", np.nan, "scores must be finite"),
        ("score", -np.inf, "scores must be finite"),
    ])
    def test_non_finite_record_raises(self, tmp_path, field, value, match):
        store = make_store(np.random.default_rng(15), 4, 3)
        records = np.empty(len(store), dtype=store._record_dtype())
        records["latent"], records["score"] = store.latents, store.scores
        records[field][2] = value
        path = tmp_path / "bad.uqds"
        path.write_bytes(struct.pack("<4sIIQ", b"UQDS", 1, 3, 4) + records.tobytes())
        with pytest.raises(ValueError, match=match):
            Datastore.load(path)

    def test_loaded_rows_are_the_saved_rows(self, tmp_path, monkeypatch):
        store = make_store(np.random.default_rng(16), 6, 2)
        path = tmp_path / "s.uqds"
        store.save(path)
        added = []
        add_batch = Datastore.add_batch
        monkeypatch.setattr(Datastore, "add_batch",
                            lambda self, *args: added.append(args) or add_batch(self, *args))
        loaded = Datastore.load(path)
        [(latents, scores)] = added
        assert np.array_equal(latents, store.latents) and np.array_equal(scores, store.scores)
        assert loaded.latents.dtype == np.float32 and loaded.latents.flags.c_contiguous
        assert loaded.latents.tobytes() == store.latents.tobytes()
        assert loaded.scores.tobytes() == store.scores.tobytes()


class TestIvf:
    def test_probe_all_matches_exact(self):
        rng = np.random.default_rng(6)
        store = make_store(rng, 300, 6)
        store.build_ivf(8, np.random.default_rng(0))
        query = rng.normal(size=6)
        exact = store.query(query, 10).ids.tolist()
        approx = store.query_ivf(query, 10, nprobe=8).ids.tolist()
        assert exact == approx

    def test_single_cluster_matches_exact(self):
        rng = np.random.default_rng(7)
        store = make_store(rng, 200, 5)
        store.build_ivf(1, np.random.default_rng(0))
        query = rng.normal(size=5)
        exact = store.query(query, 10).ids.tolist()
        approx = store.query_ivf(query, 10, nprobe=1).ids.tolist()
        assert exact == approx

    def test_recall_at_10(self):
        rng = np.random.default_rng(8)
        store = make_store(rng, 10_000, 8)
        store.build_ivf(64, np.random.default_rng(1))
        hits = total = 0
        for _ in range(50):
            query = rng.normal(size=8)
            exact = set(store.query(query, 10).ids.tolist())
            approx = set(store.query_ivf(query, 10, nprobe=16).ids.tolist())
            hits += len(exact & approx)
            total += 10
        assert hits / total >= 0.95

    def test_too_few_records(self):
        rng = np.random.default_rng(9)
        store = make_store(rng, 5, 3)
        with pytest.raises(ValueError, match="fewer records"):
            store.build_ivf(10, np.random.default_rng(0))

    @pytest.mark.parametrize("k, nprobe, match", [(0, 1, "k must be"), (-1, 1, "k must be"),
                                                  (3, 0, "nprobe must be")])
    def test_rejects_bad_k_and_nprobe(self, k, nprobe, match):
        store = make_store(np.random.default_rng(15), 10, 3)
        store.build_ivf(2, np.random.default_rng(0))
        with pytest.raises(ValueError, match=match):
            store.query_ivf(np.zeros(3), k, nprobe=nprobe)

    def test_query_without_index(self):
        rng = np.random.default_rng(10)
        store = make_store(rng, 10, 3)
        with pytest.raises(ValueError, match="no IVF index"):
            store.query_ivf(np.zeros(3), 3)


@pytest.mark.parametrize("call, match", [
    (lambda store: Datastore(0), "dim must be >= 1"),
    (lambda store: store.add_batch(np.zeros((2, 3)), [0.1]), "equal length"),
    (lambda store: store.query_batch(np.zeros((1, 3)), 1, metric="foo"), "unknown metric"),
    (lambda store: store.build_ivf(0, np.random.default_rng(0)), "num_clusters must be >= 1"),
], ids=["dim_0", "unequal_lengths", "metric", "no_clusters"])
def test_rejects_bad_arguments(call, match):
    store = make_store(np.random.default_rng(17), 4, 3)
    with pytest.raises(ValueError, match=match):
        call(store)
    assert len(store) == 4
