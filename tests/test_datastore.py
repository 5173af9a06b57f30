import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uqkit.datastore import Datastore, DatastoreFormatError


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
        store.add(vec, 0.5)
        assert len(store) == 1
        result = store.query(vec, 1)
        assert result.keys[0] == 0.0
        assert result.scores[0] == 0.5

    def test_count_grows(self):
        store = Datastore(3)
        rng = np.random.default_rng(0)
        for i in range(20):
            store.add(rng.normal(size=3), float(i % 2))
        assert len(store) == 20

    def test_dimension_mismatch(self):
        store = Datastore(3)
        with pytest.raises(ValueError, match="dimension"):
            store.add(np.zeros(4), 0.1)

    def test_empty_store_query(self):
        store = Datastore(3)
        with pytest.raises(ValueError, match="empty"):
            store.query(np.zeros(3), 1)

    def test_cosine_orthogonal(self):
        store = Datastore(2)
        store.add([1.0, 0.0], 0.1)
        result = store.query([0.0, 1.0], 1, metric="cos")
        assert result.keys[0] == pytest.approx(0.0)

    def test_score_must_be_finite(self):
        store = Datastore(2)
        with pytest.raises(ValueError):
            store.add([0.0, 0.0], float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_latent_must_be_finite(self, bad):
        store = Datastore(2)
        with pytest.raises(ValueError, match="finite"):
            store.add([bad, 1.0], 0.1)
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
        store.add(np.array([1.0, 2.0], dtype=np.float32), 0.25)
        path = tmp_path / "layout.uqds"
        store.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"UQDS"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 1
        assert np.frombuffer(raw[20:28], dtype="<f4").tolist() == [1.0, 2.0]
        assert np.frombuffer(raw[28:36], dtype="<f8")[0] == 0.25


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

    def test_query_without_index(self):
        rng = np.random.default_rng(10)
        store = make_store(rng, 10, 3)
        with pytest.raises(ValueError, match="no IVF index"):
            store.query_ivf(np.zeros(3), 3)
