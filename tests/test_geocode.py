from __future__ import annotations

import threading
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from regimpute import geocode
from regimpute.parallel import split
from regimpute.geocode import (
    ApiKey,
    GeocodeResult,
    HttpGeocoder,
    LAT_PATH,
    LON_PATH,
    MockGeocoder,
    ProviderError,
    QuotaCounter,
    TokenBucket,
    TransientProviderError,
    apply_results,
    geocode_batch,
    geocode_columns,
    ok_rate,
    read_keys,
    shard,
    write_results,
)
from regimpute.records import EnterpriseRecord
from record_forms import columns_of, records_of, reference_geocode_missing

NO_SLEEP = lambda _t: None


def recs(n, address="湖北省武汉市江岸区 南京路16号"):
    return [EnterpriseRecord(id=f"r{i}", address=address) for i in range(n)]


def requests(records):
    """The ids and addresses shard takes, from records."""
    return [r.id for r in records], [r.address or "" for r in records]


def keys(n, quota=6000):
    return [ApiKey(f"key{i}", quota) for i in range(n)]


class TestSharding:
    def test_ten_records_three_keys(self):
        shards = shard(*requests(recs(10)), keys(3))
        assert [len(s.records) for s in shards] == [4, 3, 3]
        assert [s.key_id for s in shards] == ["key0", "key1", "key2"]
        flat = [r.id for s in shards for r in s.records]
        assert flat == [f"r{i}" for i in range(10)]

    def test_single_key_single_shard(self):
        shards = shard(*requests(recs(7)), keys(1))
        assert len(shards) == 1
        assert len(shards[0].records) == 7

    def test_no_records_no_shards(self):
        assert shard(*requests([]), keys(3)) == []

    def test_more_keys_than_records(self):
        shards = shard(*requests(recs(2)), keys(5))
        assert [len(s.records) for s in shards] == [1, 1]

    def test_no_keys_is_fatal(self):
        with pytest.raises(ValueError):
            shard(*requests(recs(2)), [])


class TestMockProvider:
    def test_deterministic(self):
        mock = MockGeocoder()
        a = mock.geocode("湖北省武汉市江岸区 南京路16号")
        b = mock.geocode("湖北省武汉市江岸区 南京路16号")
        assert a == b

    def test_codomain_is_china_bbox(self):
        mock = MockGeocoder()
        for i in range(500):
            lon, lat = mock.geocode(f"prefix{i} street{i * 7}")
            assert 73.0 <= lon <= 135.0
            assert 18.0 <= lat <= 54.0

    def test_shared_prefix_points_are_near_but_distinct(self):
        mock = MockGeocoder()
        a = mock.geocode("湖北省武汉市江岸区 南京路16号")
        b = mock.geocode("湖北省武汉市江岸区 中山路4号")
        assert a != b
        assert abs(a[0] - b[0]) <= 0.1
        assert abs(a[1] - b[1]) <= 0.1

    def test_different_prefixes_usually_far(self):
        mock = MockGeocoder()
        a = mock.geocode("湖北省武汉市江岸区 南京路16号")
        c = mock.geocode("广东省广州市越秀区 南京路16号")
        assert a != c

    def test_empty_address_no_result(self):
        assert MockGeocoder().geocode("") is None

    def test_ad_prefix_hashed_once(self, monkeypatch):
        calls = []
        real = geocode.fnv1a_64
        monkeypatch.setattr(geocode, "fnv1a_64", lambda data: calls.append(data) or real(data))
        mock = MockGeocoder()
        first = mock.geocode("前缀缓存省前缀缓存市 南京路16号")
        again = mock.geocode("前缀缓存省前缀缓存市 南京路16号")
        other = mock.geocode("前缀缓存省前缀缓存市 中山路4号")
        assert calls.count("前缀缓存省前缀缓存市".encode("utf-8")) == 1
        assert first == again != other

    def test_ambiguity_filter(self):
        mock = KnownPrefixGeocoder({"okprefix"})
        assert mock.geocode("okprefix 南京路16号") is not None
        assert mock.geocode("南京路16号") is None  # no prefix part
        assert mock.geocode("badprefix 南京路16号") is None


class KnownPrefixGeocoder(MockGeocoder):
    """The mock answering only addresses whose AD prefix (the part before
    the last space) is one of the known prefixes: the rest are ambiguous
    and get no result."""

    def __init__(self, known_prefixes):
        self.known = frozenset(known_prefixes)

    def geocode(self, address, api_key=None):
        if address.rpartition(" ")[0] not in self.known:
            return None
        return super().geocode(address, api_key)


class TestQuota:
    def test_boundary_five_of_eight(self):
        ks = keys(1, quota=5)
        results = geocode_batch(shard(*requests(recs(8)), ks), MockGeocoder(), ks, rate=None)
        statuses = [r.status for r in results]
        assert statuses == ["ok"] * 5 + ["quota-exhausted"] * 3
        assert ks[0].used_today == 5

    def test_batch_within_quota(self):
        ks = keys(4, quota=6000)
        results = geocode_batch(shard(*requests(recs(1000)), ks), MockGeocoder(), ks, rate=None)
        assert len(results) == 1000
        assert all(r.status == "ok" for r in results)
        assert all(k.used_today <= 6000 for k in ks)

    def test_counter_is_thread_safe_under_contention(self):
        key = ApiKey("k", daily_quota=500)
        counter = QuotaCounter(key, clock=lambda: date(2020, 1, 1))
        grants = []

        def worker():
            local = 0
            for _ in range(400):
                local += counter.acquire(1)[0]
            grants.append(local)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(grants) == 500
        assert key.used_today == 500

    def test_day_roll_resets_counter(self):
        today = [date(2020, 1, 1)]
        key = ApiKey("k", daily_quota=2)
        counter = QuotaCounter(key, clock=lambda: today[0])
        assert counter.acquire(1)[0] == counter.acquire(1)[0] == 1
        assert counter.acquire(1)[0] == 0
        today[0] = date(2020, 1, 2)
        assert counter.acquire(1)[0] == 1
        assert key.used_today == 1


class TestQuotaBlocks:
    """A shard reserves its quota a block at a time (QUOTA_BLOCK), reading
    the clock once per block, and gives back the rest when it ends."""

    def test_day_rollover_between_two_requests_of_one_shard(self):
        # the first block is granted on day 1; the quota runs out, and the
        # next block comes from day 2's fresh quota
        days = iter([date(2020, 1, 1)] + [date(2020, 1, 2)] * 10)
        ks = keys(1, quota=3)
        results = geocode_batch(shard(*requests(recs(5)), ks), MockGeocoder(), ks, rate=None,
                                clock=lambda: next(days))
        assert [r.status for r in results] == ["ok"] * 5
        assert ks[0].day_stamp == date(2020, 1, 2)
        assert ks[0].used_today == 2  # day 2's unused grant went back

    def test_requests_count_against_the_day_their_block_was_granted_on(self):
        today = [date(2020, 1, 1)]
        key = ApiKey("k", daily_quota=10)
        counter = QuotaCounter(key, clock=lambda: today[0])
        granted, day = counter.acquire(4)
        assert (granted, day, key.used_today) == (4, date(2020, 1, 1), 4)
        today[0] = date(2020, 1, 2)
        assert counter.acquire(3) == (3, date(2020, 1, 2))
        counter.release(2, day)  # day 1's grants are gone with day 1
        assert key.used_today == 3
        counter.release(1, date(2020, 1, 2))
        assert key.used_today == 2

    def test_quota_runs_out_inside_a_block(self):
        assert geocode.QUOTA_BLOCK > 5
        ks = keys(1, quota=5)
        provider = CountingGeocoder()
        results = geocode_batch(shard(*requests(recs(9)), ks), provider, ks, rate=None)
        assert [r.status for r in results] == ["ok"] * 5 + ["quota-exhausted"] * 4
        assert [r.attempts for r in results] == [1] * 5 + [0] * 4
        assert len(provider.addresses) == 5 and ks[0].used_today == 5

    def test_used_today_equals_the_attempts_made(self):
        # retries spend quota too; whatever a block reserved beyond the
        # attempts goes back when its shard ends
        n = geocode.QUOTA_BLOCK * 2 + 7
        ks = keys(1, quota=1000)
        provider = FlakyProvider(failures_before_success=2)
        results = geocode_batch(shard(*requests(recs(n)), ks), provider, ks, rate=None, sleep=NO_SLEEP)
        assert sum(r.attempts for r in results) == ks[0].used_today == provider.calls == n + 2
        ks = keys(3, quota=1000)
        results = geocode_batch(shard(*requests(recs(n)), ks), MockGeocoder(), ks, rate=None)
        assert [k.used_today for k in ks] == [len(part) for part in split(range(n), 3)]

    @settings(max_examples=40, deadline=None)
    @given(quotas=st.lists(st.integers(0, 150), min_size=1, max_size=4), n=st.integers(0, 400),
           used=st.integers(0, 60))
    def test_no_key_goes_past_its_quota(self, quotas, n, used):
        ks = [ApiKey(f"k{i}", q, used_today=min(used, q), day_stamp=date(2020, 1, 1))
              for i, q in enumerate(quotas)]
        before = [k.used_today for k in ks]
        results = geocode_batch(shard(*requests(recs(n)), ks), MockGeocoder(), ks, rate=None,
                                clock=lambda: date(2020, 1, 1))
        assert all(k.used_today <= k.daily_quota for k in ks)
        assert sum(k.used_today for k in ks) - sum(before) == sum(r.attempts for r in results)
        # shard i spends key i: its first quota - used requests are ok,
        # and once the key is spent the rest are quota-exhausted
        ok = iter(r.status == "ok" for r in results)
        for part, quota, spent in zip(shard(*requests(recs(n)), ks), quotas, before):
            granted = min(len(part.ids), quota - spent)
            assert [next(ok) for _ in part.ids] == [True] * granted + [False] * (len(part.ids) - granted)


class FlakyProvider:
    def __init__(self, failures_before_success):
        self.failures = failures_before_success
        self.calls = 0

    def geocode(self, address, api_key=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientProviderError("try again")
        return (100.0, 30.0)


class BrokenProvider:
    def geocode(self, address, api_key=None):
        raise ProviderError("hard failure")


class TestRetries:
    def test_transient_errors_retried_with_backoff(self):
        slept = []
        provider = FlakyProvider(failures_before_success=2)
        ks = keys(1)
        results = geocode_batch(
            shard(*requests(recs(1)), ks), provider, ks, rate=None, sleep=slept.append
        )
        assert results[0].status == "ok"
        assert results[0].attempts == 3
        assert slept == [1.0, 2.0]
        assert ks[0].used_today == 3  # every attempt consumes quota

    def test_exhausted_retries_mark_provider_error(self):
        provider = FlakyProvider(failures_before_success=99)
        ks = keys(1)
        results = geocode_batch(shard(*requests(recs(1)), ks), provider, ks, rate=None, sleep=NO_SLEEP)
        assert results[0].status == "provider-error"
        assert results[0].attempts == 3

    def test_hard_failure_not_retried(self):
        ks = keys(1)
        results = geocode_batch(shard(*requests(recs(3)), ks), BrokenProvider(), ks, rate=None, sleep=NO_SLEEP)
        assert all(r.status == "provider-error" and r.attempts == 1 for r in results)


class BarrierProvider:
    """Answers a request only once `parties` requests wait at the same time."""

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties, timeout=5)

    def geocode(self, address, api_key=None):
        self.barrier.wait()
        return (100.0, 30.0)


def test_shards_run_at_once():
    # guard: each shard's requests wait for the other shard's, so shards
    # run one after the other break the barrier
    ks = keys(2)
    results = geocode_batch(shard(*requests(recs(4)), ks), BarrierProvider(2), ks, rate=None)
    assert [r.status for r in results] == ["ok"] * 4


def test_results_preserve_input_order():
    ks = keys(3)
    results = geocode_batch(shard(*requests(recs(20)), ks), MockGeocoder(), ks, rate=None)
    assert [r.record_id for r in results] == [f"r{i}" for i in range(20)]


def test_every_record_accounted_for():
    records = recs(10)
    records[3].address = None  # no-result
    ks = keys(2, quota=4)
    results = geocode_batch(shard(*requests(records), ks), MockGeocoder(), ks, rate=None)
    assert len(results) == 10
    assert {r.status for r in results} <= {"ok", "no-result", "quota-exhausted"}


def test_rate_limiter_paces_requests():
    slept = []
    bucket = TokenBucket(1000.0, sleep=slept.append)
    for _ in range(2500):
        bucket.acquire()
    assert slept  # burst capacity exceeded, pacing kicked in
    assert all(s >= 0 for s in slept)


def test_apply_results_sets_coordinates():
    records = recs(3)
    results = [
        GeocodeResult("r0", 100.0, 30.0, "ok", 1),
        GeocodeResult("r1", None, None, "no-result", 1),
        GeocodeResult("r2", 110.0, 35.0, "ok", 1),
    ]
    assert apply_results(records, results) == 2
    assert records[0].coordinates == (100.0, 30.0)
    assert records[0].provenance_of("coordinates") == "imputed"
    assert records[1].coordinates is None


def test_keys_io_and_results_io(tmp_path):
    key_file = tmp_path / "keys.tsv"
    key_file.write_text("# comment\nalpha\t6000\nbeta\t100\n", encoding="utf-8")
    ks = read_keys(key_file)
    assert [(k.key_id, k.daily_quota) for k in ks] == [("alpha", 6000), ("beta", 100)]

    out = tmp_path / "res.tsv"
    write_results(["r0"], ["100.5"], ["30.25"], ["ok"], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id\tlon\tlat\tstatus"
    assert lines[1] == "r0\t100.5\t30.25\tok"

    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no keys"):
        read_keys(empty)


@pytest.mark.parametrize("quota", ["lots", "-5", "1.5", ""])
def test_read_keys_rejects_bad_quota(tmp_path, quota):
    key_file = tmp_path / "keys.tsv"
    key_file.write_text(f"alpha\t6000\nbeta\t{quota}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"keys\.tsv:2: quota must be a non-negative integer"):
        read_keys(key_file)


def test_read_keys_rejects_a_duplicate_key(tmp_path):
    # two entries would share one quota counter, and the first quota would be ignored
    key_file = tmp_path / "keys.tsv"
    key_file.write_text("k\t5\nk\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"keys\.tsv:2: duplicate key 'k'"):
        read_keys(key_file)


def test_ok_rate():
    statuses = ["ok", "no-result"]
    assert ok_rate(statuses) == 0.5
    assert ok_rate([]) == 0.0
    # records that kept their own coordinates were not requested
    assert ok_rate(statuses + ["original"]) == 0.5


class CountingGeocoder(MockGeocoder):
    def __init__(self):
        super().__init__()
        self.addresses = []

    def geocode(self, address, api_key=None):
        self.addresses.append(address)
        return super().geocode(address, api_key)


def test_geocode_missing_skips_located_records():
    records = [EnterpriseRecord(id=f"r{i}", address=f"湖北省武汉市江岸区 南京路{i}号") for i in range(4)]
    records[1].address = "located"
    records[1].coordinates = (100.0, 30.0)
    provider = CountingGeocoder()
    columns, flags = columns_of(records)
    # one request of quota per key: enough only if located records cost none
    statuses = geocode_columns(columns, flags, provider, keys(3, quota=1), rate=None)
    requested = [records[i].address for i in (0, 2, 3)]
    # the three shards run on threads of their own, so sort the arrival order
    assert sorted(provider.addresses) == requested
    assert statuses == ["ok", "original", "ok", "ok"]
    assert list(flags["coordinates"]) == [1, 0, 1, 1]
    records = records_of(columns, flags)
    assert [records[i].coordinates for i in (0, 2, 3)] == [MockGeocoder().geocode(a) for a in requested]
    assert records[1].coordinates == (100.0, 30.0)
    assert records[1].provenance_of("coordinates") == "original"
    assert records[0].provenance_of("coordinates") == "imputed"


def test_apply_results_pairs_duplicate_ids_by_position():
    records = [
        EnterpriseRecord(id="dup", address="located", coordinates=(100.0, 30.0)),
        EnterpriseRecord(id="dup", address="湖北省武汉市江岸区 南京路16号"),
    ]
    results = reference_geocode_missing(records, MockGeocoder(), keys(1), rate=None)
    assert apply_results(records, results) == 1
    assert records[0].coordinates == (100.0, 30.0)
    assert records[0].provenance_of("coordinates") == "original"
    assert records[1].coordinates == (results[1].lon, results[1].lat)
    assert records[1].provenance_of("coordinates") == "imputed"


def test_apply_results_rejects_length_mismatch():
    with pytest.raises(ValueError, match="results"):
        apply_results(recs(2), [GeocodeResult("r0", 100.0, 30.0, "ok", 1)])


def test_http_provider_json_digging():
    provider = HttpGeocoder("http://example/{address}/{key}")
    doc = {"result": {"location": {"lng": 114.3, "lat": 30.6}}}
    assert provider._dig(doc, LON_PATH) == 114.3
    assert provider._dig(doc, LAT_PATH) == 30.6
    assert provider._dig({}, LON_PATH) is None
