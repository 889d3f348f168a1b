from __future__ import annotations

import http.server
import json
import os
import random
import sys
import threading

import pytest

from conftest import client_from_rules, dedent
from reachfuzz.errors import FixtureMissError, TransportError
from reachfuzz.llm_client import (
    Accounting,
    LlmClient,
    LlmRequest,
    RemoteBackend,
    ScriptedBackend,
    ScriptedFixture,
    estimate_tokens,
    load_fixture,
)


def test_direct_rule_match():
    client = client_from_rules(("PING", "PONG"))
    assert client.complete(LlmRequest("PING")).text == "PONG"


def test_strict_miss_names_prompt_prefix():
    client = client_from_rules(("PING", "PONG"))
    prompt = "Z" * 200
    with pytest.raises(FixtureMissError) as err:
        client.complete(LlmRequest(prompt))
    assert "Z" * 80 in str(err.value)
    assert "Z" * 81 not in str(err.value)


def test_non_strict_miss_returns_empty():
    client = client_from_rules(("PING", "PONG"), strict=False)
    assert client.complete(LlmRequest("nothing matches")).text == ""


def test_first_matching_rule_wins():
    # both rules match the prompt; enumerating both orders shows precedence
    for first, second, expected in [
        (("PING", "A"), ("PI", "B"), "A"),
        (("PI", "B"), ("PING", "A"), "B"),
    ]:
        client = client_from_rules(first, second)
        assert client.complete(LlmRequest("PING")).text == expected


def test_regex_rule():
    client = client_from_rules(("re:^hello \\d+$", "matched"))
    assert client.complete(LlmRequest("hello 42")).text == "matched"


def test_ordinal_rule_fires_only_on_nth_match():
    client = client_from_rules(("TASK", "first"), ("TASK", "later"),
                               ordinals={0: 1})
    assert client.complete(LlmRequest("TASK")).text == "first"
    assert client.complete(LlmRequest("TASK")).text == "later"
    assert client.complete(LlmRequest("TASK")).text == "later"


def test_scripted_determinism_across_loads(tmp_path):
    path = tmp_path / "f.fixture"
    path.write_text(dedent("""
        match: alpha
        response: one

        match: re:b.ta
        response: ```
        line 1
        line 2
        ```
    """), encoding="utf-8")
    first = LlmClient(ScriptedBackend(load_fixture(path)))
    second = LlmClient(ScriptedBackend(load_fixture(path)))
    for prompt in ("alpha", "beta"):
        assert first.complete(LlmRequest(prompt)).text == second.complete(LlmRequest(prompt)).text
    assert first.complete(LlmRequest("beta")).text == "line 1\nline 2"


def test_fixture_nested_fences(tmp_path):
    path = tmp_path / "f.fixture"
    path.write_text(dedent("""
        match: code
        response: ````
        PROGRAM:
        ```
        SetByte(0, 1)
        ```
        ````
    """), encoding="utf-8")
    fixture = load_fixture(path)
    assert fixture.lookup("code") == "PROGRAM:\n```\nSetByte(0, 1)\n```"


def test_fixture_ordinal_header(tmp_path):
    path = tmp_path / "f.fixture"
    path.write_text(dedent("""
        match[1]: TASK
        response: garbage
        match: TASK
        response: good
    """), encoding="utf-8")
    fixture = load_fixture(path)
    assert fixture.lookup("TASK") == "garbage"
    assert fixture.lookup("TASK") == "good"


def test_fixture_syntax_errors(tmp_path):
    path = tmp_path / "f.fixture"
    path.write_text("response: orphan\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected a 'match:'"):
        load_fixture(path)
    path.write_text("match: x\nresponse: ```\nnever closed\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unterminated"):
        load_fixture(path)


def test_load_fixture_survives_arbitrary_files(tmp_path):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=300))
    def inner(text):
        path = tmp_path / "fuzz.fixture"
        path.write_text(text, encoding="utf-8")
        try:
            load_fixture(path)
        except ValueError:
            pass

    inner()


def test_statelessness_under_permuted_requests():
    rules = [("alpha", "A"), ("beta", "B"), ("gamma", "C")]
    client_one = client_from_rules(*rules)
    client_two = client_from_rules(*rules)
    for prompt in ("alpha", "beta", "gamma"):
        client_one.complete(LlmRequest(prompt))
    for prompt in ("gamma", "alpha"):
        client_two.complete(LlmRequest(prompt))
    assert client_one.complete(LlmRequest("beta")).text == "B"
    assert client_two.complete(LlmRequest("beta")).text == "B"


def test_truncation_flagged():
    client = client_from_rules(("P", "x" * 100))
    response = client.complete(LlmRequest("P", max_response_chars=10))
    assert response.truncated
    assert response.text == "x" * 10


def test_request_validation():
    with pytest.raises(ValueError):
        LlmRequest("")
    with pytest.raises(ValueError):
        LlmRequest("x", max_response_chars=0)
    with pytest.raises(ValueError):
        LlmRequest("x", temperature_hint=1.5)


def test_token_estimate_heuristic():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_accounting_zero_requests():
    summary = LlmClient(ScriptedBackend(ScriptedFixture([]))).accounting()
    assert summary.total_requests == 0
    assert summary.total_token_estimate == 0
    assert summary.total_latency == 0.0


def test_accounting_single_stage_sum():
    acc = Accounting()
    for latency in (1.0, 2.0, 3.0):
        acc.record("Opt", latency, 10)
    summary = acc.summary()
    assert summary.per_stage["Opt"].requests == 3
    assert summary.per_stage["Opt"].latency == pytest.approx(6.0)


def test_accounting_interleaved_matches_event_log_replay():
    rng = random.Random(7)
    acc = Accounting()
    events = []
    for _ in range(200):
        stage = rng.choice(["sa", "rag", "opt", "mutator"])
        latency = rng.random()
        tokens = rng.randrange(100)
        events.append((stage, latency, tokens))
        acc.record(stage, latency, tokens)
    summary = acc.summary()
    for stage in ("sa", "rag", "opt", "mutator"):
        expected_latency = sum(lat for s, lat, _ in events if s == stage)
        expected_tokens = sum(tok for s, _, tok in events if s == stage)
        expected_requests = sum(1 for s, _, _ in events if s == stage)
        assert summary.per_stage[stage].requests == expected_requests
        assert summary.per_stage[stage].token_estimate == expected_tokens
        assert summary.per_stage[stage].latency == pytest.approx(expected_latency)
    # conservation: per-stage totals add up to the all-stage totals
    assert summary.total_requests == len(events)
    assert summary.total_latency == pytest.approx(sum(lat for _, lat, _ in events))
    assert summary.total_token_estimate == sum(tok for _, _, tok in events)


def test_accounting_atomic_under_concurrency():
    import threading

    client = client_from_rules(("p", "reply"))

    def hammer():
        for _ in range(100):
            client.complete(LlmRequest("p"), stage="s")

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    summary = client.accounting()
    assert summary.total_requests == 800
    assert summary.per_stage["s"].requests == 800


def test_client_accounting_via_requests():
    client = client_from_rules(("a", "xxxx"))
    client.complete(LlmRequest("a"), stage="opt")
    client.complete(LlmRequest("a"), stage="opt")
    client.complete(LlmRequest("a"), stage="rag")
    summary = client.accounting()
    assert summary.per_stage["opt"].requests == 2
    assert summary.per_stage["rag"].requests == 1
    assert summary.total_requests == 3


# --- remote backend ------------------------------------------------------------

def _ok_body(text: str, tokens: int | None = None) -> dict:
    body = {"choices": [{"message": {"content": text}}]}
    if tokens is not None:
        body["usage"] = {"total_tokens": tokens}
    return body


def test_remote_retries_then_succeeds():
    calls = []
    sleeps = []

    def transport(url, payload, headers):
        calls.append(payload)
        if len(calls) < 3:
            raise ConnectionError("boom")
        return _ok_body("recovered", tokens=42)

    backend = RemoteBackend(endpoint="http://example.invalid/v1", model="m",
                            transport=transport, sleep=sleeps.append)
    client = LlmClient(backend)
    response = client.complete(LlmRequest("hello"))
    assert response.text == "recovered"
    assert response.token_estimate == 42
    assert len(calls) == 3
    assert sleeps == [2.0, 4.0]  # exponential backoff between the 3 attempts


def test_remote_exhausts_retries():
    def transport(url, payload, headers):
        raise ConnectionError("down")

    backend = RemoteBackend(endpoint="http://example.invalid/v1",
                            transport=transport, sleep=lambda _s: None)
    with pytest.raises(TransportError, match="after 3 attempts"):
        LlmClient(backend).complete(LlmRequest("hello"))


def test_default_transport_over_loopback_http(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # the transport must not need it
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    seen = []
    status = [200]

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((json.loads(body), self.headers["Authorization"],
                         self.headers["Content-Type"]))
            reply = json.dumps(_ok_body("pong", tokens=7)).encode()
            self.send_response(status[0])
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        sleeps = []
        backend = RemoteBackend(endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat",
                                model="m", api_key="secret", sleep=sleeps.append)
        response = LlmClient(backend).complete(LlmRequest("ping", temperature_hint=0.3))
        assert (response.text, response.token_estimate) == ("pong", 7)
        payload, auth, content_type = seen[0]
        assert payload["messages"] == [{"role": "user", "content": "ping"}]
        assert (payload["model"], payload["temperature"]) == ("m", 0.3)
        assert (auth, content_type) == ("Bearer secret", "application/json")
        assert sleeps == []

        status[0] = 500
        with pytest.raises(TransportError, match="after 3 attempts"):
            LlmClient(backend).complete(LlmRequest("ping"))
        assert len(seen) == 4  # one success, then three attempts at the 500
        assert sleeps == [2.0, 4.0]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_remote_requires_endpoint(monkeypatch):
    monkeypatch.delenv("RF_LLM_ENDPOINT", raising=False)
    with pytest.raises(ValueError):
        RemoteBackend()


def test_remote_configured_from_environment(monkeypatch):
    monkeypatch.setenv("RF_LLM_ENDPOINT", "http://example.invalid/v1/chat")
    monkeypatch.setenv("RF_LLM_API_KEY", "secret-key")
    monkeypatch.setenv("RF_LLM_MODEL", "env-model")
    seen = {}

    def transport(url, payload, headers):
        seen["url"] = url
        seen["auth"] = headers.get("Authorization")
        seen["model"] = payload["model"]
        return _ok_body("ok")

    backend = RemoteBackend(transport=transport)
    LlmClient(backend).complete(LlmRequest("ping"))
    assert seen == {"url": "http://example.invalid/v1/chat",
                    "auth": "Bearer secret-key", "model": "env-model"}


def test_remote_sends_prompt_and_temperature():
    seen = {}

    def transport(url, payload, headers):
        seen.update(payload)
        return _ok_body("ok")

    backend = RemoteBackend(endpoint="http://example.invalid", model="test-model",
                            api_key="k", transport=transport)
    LlmClient(backend).complete(LlmRequest("the prompt", temperature_hint=0.7))
    assert seen["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen["temperature"] == 0.7
    assert seen["model"] == "test-model"
