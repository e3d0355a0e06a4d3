"""Loopback integration tests for the HTTP geocoding provider."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from regimpute.geocode import (
    ApiKey,
    HttpGeocoder,
    ProviderError,
    TransientProviderError,
    geocode_batch,
    shard,
)
from regimpute.records import EnterpriseRecord


# locations that are no location: json.dumps writes NaN and Infinity, which
# json.load reads back as floats; text, a list or true is no number
NON_FINITE = {
    "/nan": {"lng": float("nan"), "lat": 30.5},
    "/inf": {"lng": 114.25, "lat": float("inf")},
    "/text": {"lng": "-inf", "lat": "30.5"},
    "/abc": {"lng": "abc", "lat": 30.5},
    "/list": {"lng": [114.25], "lat": 30.5},
    "/true": {"lng": 114.25, "lat": True},
}


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output quiet
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        address = query.get("addr", [""])[0]
        self.server.requests.append((address, query.get("ak", [""])[0]))

        if parsed.path == "/flaky" and len(self.server.requests) < 3:
            self.send_error(503)
            return
        if parsed.path == "/denied":
            self.send_error(403)
            return
        if parsed.path == "/empty":
            body = {"status": 1}
        elif parsed.path in NON_FINITE:
            body = {"result": {"location": NON_FINITE[parsed.path]}}
        elif parsed.path == "/numeric-text":
            body = {"result": {"location": {"lng": "114.25", "lat": "30.5"}}}
        else:
            body = {"result": {"location": {"lng": 114.25, "lat": 30.5}, "echo": address}}
        payload = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()


def url_of(server, route="/geo"):
    host, port = server.server_address
    return f"http://{host}:{port}{route}?addr={{address}}&ak={{key}}"


def test_http_provider_round_trip(http_server):
    provider = HttpGeocoder(url_of(http_server))
    coords = provider.geocode("湖北省武汉市 南京路16号", api_key="secret-key")
    assert coords == (114.25, 30.5)
    address, key = http_server.requests[0]
    assert address == "湖北省武汉市 南京路16号"  # percent-encoding survived the round trip
    assert key == "secret-key"


def test_http_provider_missing_location_is_no_result(http_server):
    provider = HttpGeocoder(url_of(http_server, "/empty"))
    assert provider.geocode("anywhere") is None


@pytest.mark.parametrize("route", sorted(NON_FINITE))
def test_http_provider_non_finite_location_is_no_result(http_server, route):
    provider = HttpGeocoder(url_of(http_server, route))
    assert provider.geocode("anywhere") is None


def test_http_provider_numeric_text_is_a_location(http_server):
    provider = HttpGeocoder(url_of(http_server, "/numeric-text"))
    assert provider.geocode("anywhere") == (114.25, 30.5)


def test_batch_keeps_going_past_malformed_answers(http_server):
    provider = HttpGeocoder(url_of(http_server, "/abc"))
    keys = [ApiKey("k0", 100)]
    records = [EnterpriseRecord(id=f"r{i}", address=f"prefix street{i}") for i in range(4)]
    requests = shard([r.id for r in records], [r.address for r in records], keys)
    results = geocode_batch(requests, provider, keys, rate=None, sleep=lambda _t: None)
    assert [(r.record_id, r.status, r.attempts) for r in results] == [
        (f"r{i}", "no-result", 1) for i in range(4)
    ]
    assert len(http_server.requests) == 4


def test_http_provider_client_error_is_hard(http_server):
    provider = HttpGeocoder(url_of(http_server, "/denied"))
    with pytest.raises(ProviderError):
        provider.geocode("anywhere")


def test_http_provider_server_error_is_transient(http_server):
    provider = HttpGeocoder(url_of(http_server, "/flaky"))
    with pytest.raises(TransientProviderError):
        provider.geocode("first try fails")


def test_batch_retries_transient_http_errors(http_server):
    provider = HttpGeocoder(url_of(http_server, "/flaky"))
    keys = [ApiKey("k0", 100)]
    records = [EnterpriseRecord(id="r0", address="prefix street1")]
    requests = shard([r.id for r in records], [r.address for r in records], keys)
    results = geocode_batch(requests, provider, keys, rate=None, sleep=lambda _t: None)
    assert results[0].status == "ok"
    assert results[0].attempts == 3  # two 503s, then success
    assert (results[0].lon, results[0].lat) == (114.25, 30.5)


def test_unreachable_host_is_transient():
    provider = HttpGeocoder("http://127.0.0.1:1/dead?addr={address}&ak={key}", timeout=0.5)
    with pytest.raises(TransientProviderError):
        provider.geocode("anywhere")
