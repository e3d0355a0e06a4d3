"""Address geocoding with sharded dispatch and per-key daily quotas.

A request is a record id and an address. A batch of requests is split
into contiguous shards of ids and addresses, one shard per API key;
shards run concurrently while requests within a shard stay sequential and
rate-limited. Quota accounting is an atomic check-and-increment on a
shared counter that resets when the (injectable) clock's day changes, so
no schedule can push a key past its daily quota. A shard reserves its
quota a block of QUOTA_BLOCK requests at a time, under one lock and one
clock read, and gives back what it did not use when it ends; a request is
charged to the day its block was granted on. Every request gets exactly
one result; once a shard's key is exhausted its remaining requests are
all reported as quota-exhausted. Only rows that lack coordinates are
requested: the others keep theirs and cost no quota. geocode_columns
requests them for ingest columns, whose lon and lat columns it fills in
place, and write_results writes one row of coordinates.tsv per row.

The default provider is an offline deterministic mock; an HTTP JSON
provider with a templated URL is available for real services.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .parallel import map_partitions, split
from .records import EnterpriseRecord, read_tsv, write_tsv
from .vectorizer import fnv1a_64

STATUS_OK = "ok"
STATUS_NO_RESULT = "no-result"
STATUS_QUOTA = "quota-exhausted"
STATUS_PROVIDER_ERROR = "provider-error"
STATUS_ORIGINAL = "original"  # the record already had coordinates; nothing was requested

DEFAULT_DAILY_QUOTA = 6000
DEFAULT_RATE = 5.0  # requests per second per key
BACKOFF_SECONDS = (1.0, 2.0, 4.0)
MAX_ATTEMPTS = 3  # requests per address: the first and two retries of a transient failure

# Mock coordinate bounding box (mainland China).
LON_RANGE = (73.0, 135.0)
LAT_RANGE = (18.0, 54.0)
STREET_JITTER = 0.05  # degrees, per axis


class ProviderError(Exception):
    """Hard provider failure; not retried."""


class TransientProviderError(Exception):
    """Retryable provider failure (timeouts, 5xx, rate clamps)."""


@dataclass
class ApiKey:
    key_id: str
    daily_quota: int = DEFAULT_DAILY_QUOTA
    used_today: int = 0
    day_stamp: date | None = None


# requests a shard reserves from its key's counter at once
QUOTA_BLOCK = 64


class QuotaCounter:
    """Thread-safe daily counter for one key."""

    def __init__(self, key: ApiKey, clock: Callable[[], date] = date.today):
        self.key = key
        self._clock = clock
        self._lock = threading.Lock()

    def acquire(self, n: int) -> tuple[int, date]:
        """Reserve up to n requests of today's quota: (the count granted, 0
        when the quota is spent; the day they count against)."""
        with self._lock:
            today = self._clock()
            if self.key.day_stamp != today:
                self.key.day_stamp = today
                self.key.used_today = 0
            granted = max(0, min(n, self.key.daily_quota - self.key.used_today))
            self.key.used_today += granted
            return granted, today

    def release(self, n: int, day: date) -> None:
        """Give back n unused requests granted on day; nothing once the
        count has moved on to another day."""
        with self._lock:
            if self.key.day_stamp == day:
                self.key.used_today -= n

    def try_acquire(self) -> bool:
        """Reserve one request; False when the day's quota is spent."""
        return self.acquire(1)[0] == 1

    @property
    def used(self) -> int:
        return self.key.used_today


class _Grants:
    """One shard's reserved requests, taken from its key's counter a block
    at a time. Once a block comes back empty the shard is exhausted for
    good; close gives the unused rest back."""

    def __init__(self, counter: QuotaCounter):
        self.counter, self.left, self.day, self.exhausted = counter, 0, None, False

    def take(self) -> bool:
        if not self.left and not self.exhausted:
            self.left, self.day = self.counter.acquire(QUOTA_BLOCK)
            self.exhausted = not self.left
        if self.exhausted:
            return False
        self.left -= 1
        return True

    def close(self) -> None:
        if self.left:
            self.counter.release(self.left, self.day)
            self.left = 0


class TokenBucket:
    """Continuous-refill token bucket; capacity equals the refill rate."""

    def __init__(self, rate: float, sleep: Callable[[float], None] = time.sleep):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = rate
        self.capacity = max(rate, 1.0)
        self.tokens = self.capacity
        self._last = time.monotonic()
        self._sleep = sleep

    def acquire(self) -> None:
        now = time.monotonic()
        self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens < 1.0:
            self._sleep((1.0 - self.tokens) / self.rate)
            self._last = time.monotonic()
            self.tokens = 1.0
        self.tokens -= 1.0


@dataclass(frozen=True)
class Shard:
    index: int
    ids: Sequence[str]
    addresses: Sequence[str]  # "" where a record has no address
    key_id: str

    @property
    def records(self) -> tuple[EnterpriseRecord, ...]:
        """The requests as records. Nothing in the package reads this:
        perfbench's tracer does (ROADMAP item 1), so it stays until the
        tracer drops it."""
        return tuple(EnterpriseRecord(rec_id, address=address or None)
                     for rec_id, address in zip(self.ids, self.addresses))


class GeocodeResult(NamedTuple):
    record_id: str
    lon: float | None
    lat: float | None
    status: str
    provider: str
    attempts: int


def shard(ids: Sequence[str], addresses: Sequence[str], keys: Sequence[ApiKey]) -> list[Shard]:
    """Contiguous even shards of the requests (ids[i], addresses[i]), one
    key per shard; no requests, no shards."""
    if not keys:
        raise ValueError("at least one API key is required")
    if not ids:
        return []
    parts = min(len(keys), len(ids))
    return [Shard(i, rec_ids, part, keys[i].key_id)
            for i, (rec_ids, part) in enumerate(zip(split(ids, parts), split(addresses, parts)))]


def _unit_interval(h32: int) -> float:
    return h32 / 2**32


@lru_cache(maxsize=1 << 12)
def _prefix_hash(prefix: str) -> int:
    """The mock's AD-prefix hash, memoised: many addresses share a prefix.
    Addresses without one are hashed whole and not memoised, as they seldom
    repeat."""
    return fnv1a_64(prefix.encode("utf-8"))


class MockGeocoder:
    """Deterministic offline provider.

    The address's AD prefix (everything before the last space) hashes to a
    base point inside the China bounding box; the street part perturbs the
    base by at most STREET_JITTER degrees per axis, so addresses sharing
    an AD prefix land near each other but not on top of each other.

    ambiguity_filter, when given, marks addresses as unresolvable: it
    receives the address and returns True to reject it (no-result).
    """

    name = "mock"

    def __init__(self, ambiguity_filter: Callable[[str], bool] | None = None):
        self.ambiguity_filter = ambiguity_filter

    def geocode(self, address: str, api_key: str | None = None) -> tuple[float, float] | None:
        if not address:
            return None
        if self.ambiguity_filter is not None and self.ambiguity_filter(address):
            return None
        prefix, _, street = address.rpartition(" ")
        if prefix:
            h = _prefix_hash(prefix)
        else:  # no AD prefix: the address itself is the base, with no jitter
            h, street = fnv1a_64(address.encode("utf-8")), ""
        lon = LON_RANGE[0] + _unit_interval(h >> 32) * (LON_RANGE[1] - LON_RANGE[0])
        lat = LAT_RANGE[0] + _unit_interval(h & 0xFFFFFFFF) * (LAT_RANGE[1] - LAT_RANGE[0])
        if street:
            j = fnv1a_64(street.encode("utf-8"))
            lon += (_unit_interval(j >> 32) - 0.5) * 2 * STREET_JITTER
            lat += (_unit_interval(j & 0xFFFFFFFF) - 0.5) * 2 * STREET_JITTER
        lon = min(max(lon, LON_RANGE[0]), LON_RANGE[1])
        lat = min(max(lat, LAT_RANGE[0]), LAT_RANGE[1])
        return lon, lat


def ad_prefix_filter(known_prefixes: Iterable[str]) -> Callable[[str], bool]:
    """Ambiguity filter that rejects addresses whose AD prefix (the part
    before the last space) is not one of the known prefixes."""
    known = frozenset(known_prefixes)

    def is_ambiguous(address: str) -> bool:
        prefix, _, _ = address.rpartition(" ")
        return prefix not in known

    return is_ambiguous


class HttpGeocoder:
    """Generic HTTP JSON geocoder.

    url_template receives {address} (percent-encoded) and {key}. lon_path
    and lat_path are dot-separated paths into the response JSON."""

    name = "http"

    def __init__(
        self,
        url_template: str,
        lon_path: str = "result.location.lng",
        lat_path: str = "result.location.lat",
        timeout: float = 10.0,
    ):
        self.url_template = url_template
        self.lon_path = lon_path.split(".")
        self.lat_path = lat_path.split(".")
        self.timeout = timeout

    @staticmethod
    def _dig(doc, path):
        for part in path:
            if not isinstance(doc, dict) or part not in doc:
                return None
            doc = doc[part]
        return doc

    @staticmethod
    def _coordinate(value) -> float | None:
        """A JSON number or numeric string as a finite float; None for
        anything else: absent, true/false, a list, an object, other text,
        NaN or infinity (JSON allows both)."""
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            return None
        try:
            number = float(value)
        except ValueError:
            return None
        return number if math.isfinite(number) else None

    def geocode(self, address: str, api_key: str | None = None) -> tuple[float, float] | None:
        if not address:
            return None
        url = self.url_template.format(
            address=urllib.parse.quote(address), key=urllib.parse.quote(api_key or "")
        )
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                doc = json.load(resp)
        except urllib.error.HTTPError as exc:
            if exc.code >= 500:
                raise TransientProviderError(f"HTTP {exc.code}") from exc
            raise ProviderError(f"HTTP {exc.code}") from exc
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
            raise TransientProviderError(str(exc)) from exc
        lon = self._coordinate(self._dig(doc, self.lon_path))
        lat = self._coordinate(self._dig(doc, self.lat_path))
        return None if lon is None or lat is None else (lon, lat)


def _geocode_one(rec_id, address, provider, key_id, grants, limiter, sleep):
    if grants.exhausted:
        return GeocodeResult(rec_id, None, None, STATUS_QUOTA, provider.name, 0)
    attempts = 0
    while attempts < MAX_ATTEMPTS:
        if not grants.take():
            return GeocodeResult(rec_id, None, None, STATUS_QUOTA, provider.name, attempts)
        if limiter is not None:
            limiter.acquire()
        attempts += 1
        try:
            coords = provider.geocode(address, api_key=key_id)
        except TransientProviderError:
            if attempts < MAX_ATTEMPTS:
                sleep(BACKOFF_SECONDS[min(attempts - 1, len(BACKOFF_SECONDS) - 1)])
            continue
        except ProviderError:
            return GeocodeResult(rec_id, None, None, STATUS_PROVIDER_ERROR, provider.name, attempts)
        if coords is None:
            return GeocodeResult(rec_id, None, None, STATUS_NO_RESULT, provider.name, attempts)
        return GeocodeResult(rec_id, coords[0], coords[1], STATUS_OK, provider.name, attempts)
    return GeocodeResult(rec_id, None, None, STATUS_PROVIDER_ERROR, provider.name, attempts)


def geocode_batch(
    shards: Sequence[Shard],
    provider,
    keys: Sequence[ApiKey],
    rate: float | None = DEFAULT_RATE,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], date] = date.today,
) -> list[GeocodeResult]:
    """Geocode all shards concurrently; one result per request, in input
    order. rate=None disables request pacing (offline providers)."""
    if not shards:
        return []
    counters = {key.key_id: QuotaCounter(key, clock) for key in keys}

    def run_shard(sh: Shard) -> list[GeocodeResult]:
        limiter = TokenBucket(rate, sleep) if rate is not None else None
        grants = _Grants(counters[sh.key_id])
        try:
            return [
                _geocode_one(rec_id, address, provider, sh.key_id, grants, limiter, sleep)
                for rec_id, address in zip(sh.ids, sh.addresses)
            ]
        finally:
            grants.close()

    per_shard = map_partitions(shards, run_shard, workers=len(shards))
    return [result for chunk in per_shard for result in chunk]


def geocode_columns(
    columns: dict[str, list],
    flags: dict[str, bytearray],
    provider,
    keys: Sequence[ApiKey],
    rate: float | None = DEFAULT_RATE,
) -> tuple[list[str], list[GeocodeResult]]:
    """Geocode ingest columns (IngestResult.columns): only the rows whose
    lon is None are sharded across the keys and requested, and each ok
    result goes into the lon and lat columns in place, with the row's
    coordinates flag set. Returns the status column, one status per row
    and STATUS_ORIGINAL on the rows that were not requested, and the
    requested rows' results."""
    lons, lats, ids, addresses = map(columns.__getitem__, ("lon", "lat", "id", "address"))
    pending = [i for i, lon in enumerate(lons) if lon is None]
    requests = shard([ids[i] for i in pending], [addresses[i] for i in pending], keys)
    results = geocode_batch(requests, provider, keys, rate=rate)
    statuses = [STATUS_ORIGINAL] * len(lons)
    geocoded = flags["coordinates"]
    for i, res in zip(pending, results):
        statuses[i] = res.status
        if res.status == STATUS_OK:
            lons[i], lats[i] = res.lon, res.lat
            geocoded[i] = 1
    return statuses, results


def apply_results(records: Sequence[EnterpriseRecord], results: Sequence[GeocodeResult]) -> int:
    """Attach ok coordinates to records, pairing them by position; returns
    the count. The record form of geocode_columns' fill: no command calls
    it, and perfbench's tracer wraps this name."""
    if len(records) != len(results):
        raise ValueError(f"{len(results)} results for {len(records)} records")
    applied = 0
    for rec, res in zip(records, results):
        if res.status == STATUS_OK:
            rec.coordinates = (res.lon, res.lat)
            rec.mark_imputed("coordinates")
            applied += 1
    return applied


def read_keys(path: str | Path) -> list[ApiKey]:
    """Key file: key<TAB>daily_quota per line; each key once."""
    keys = []
    for line_no, cells in read_tsv(path):
        if cells[0].startswith("#"):
            continue
        if len(cells) != 2:
            raise ValueError(f"{path}:{line_no}: expected key<TAB>quota")
        if any(key.key_id == cells[0] for key in keys):
            raise ValueError(f"{path}:{line_no}: duplicate key {cells[0]!r}")
        try:
            quota = int(cells[1])
        except ValueError:
            quota = -1
        if quota < 0:
            raise ValueError(f"{path}:{line_no}: quota must be a non-negative integer")
        keys.append(ApiKey(cells[0], quota))
    if not keys:
        raise ValueError(f"{path}: no keys")
    return keys


RESULT_COLUMNS = ("id", "lon", "lat", "status")


def write_results(
    ids: Sequence[str], lon_text: Sequence[str], lat_text: Sequence[str], statuses: Sequence[str], path: str | Path
) -> None:
    """coordinates.tsv: one row per row of ids, with its coordinates as
    records.format_coordinates gives them and its geocode status."""
    write_tsv(path, RESULT_COLUMNS, zip(ids, lon_text, lat_text, statuses))


def ok_rate(results: Sequence[GeocodeResult]) -> float:
    """Share of requested records that got coordinates."""
    requested = [r for r in results if r.status != STATUS_ORIGINAL]
    if not requested:
        return 0.0
    return sum(1 for r in requested if r.status == STATUS_OK) / len(requested)
