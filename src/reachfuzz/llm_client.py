"""Uniform, stateless interface to a text-generation provider.

Two backends share one client surface: a remote HTTP backend configured from
environment variables, and a scripted backend that replays canned responses
from a fixture file. The scripted backend is what the test suite and CI run
against; it is deterministic and read-only after load.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field

from .errors import FixtureMissError, TransportError

DEFAULT_MAX_RESPONSE_CHARS = 20_000

# Sampling hints by task flavor; callers pick one when building requests.
TEMPERATURE_EXTRACTION = 0.2
TEMPERATURE_GENERATION = 0.7

ENV_ENDPOINT = "RF_LLM_ENDPOINT"
ENV_API_KEY = "RF_LLM_API_KEY"
ENV_MODEL = "RF_LLM_MODEL"


@dataclass(frozen=True)
class LlmRequest:
    """One self-contained completion request.

    Every request carries its full context in ``prompt_text``; no
    conversation history is ever kept or implied between requests.
    """

    prompt_text: str
    max_response_chars: int = DEFAULT_MAX_RESPONSE_CHARS
    temperature_hint: float = TEMPERATURE_EXTRACTION

    def __post_init__(self):
        if not self.prompt_text:
            raise ValueError("prompt_text must be non-empty")
        if self.max_response_chars <= 0:
            raise ValueError("max_response_chars must be positive")
        if not 0.0 <= self.temperature_hint <= 1.0:
            raise ValueError("temperature_hint must be in [0, 1]")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    provider_label: str
    latency: float
    token_estimate: int
    truncated: bool = False


@dataclass(frozen=True)
class FixtureRule:
    """One scripted response: a matcher over prompt text plus the reply.

    ``pattern`` is a plain substring unless ``regex`` is set, in which case it
    is searched as a regular expression. ``ordinal`` restricts the rule to the
    Nth prompt its pattern matches (1-based); 0 means every match.
    """

    pattern: str
    response: str
    regex: bool = False
    ordinal: int = 0

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.pattern, prompt, re.DOTALL) is not None
        return self.pattern in prompt


class ScriptedFixture:
    """Ordered response rules for the scripted backend.

    The first matching rule wins. Under ``strict`` a prompt that matches no
    rule is an error, never a silent default. Rules are immutable after load;
    the only mutable state is the per-rule match counter used to honor
    ordinals, which is guarded by a lock.
    """

    def __init__(self, rules: list[FixtureRule], strict: bool = True):
        self.rules = list(rules)
        self.strict = strict
        self._match_counts = [0] * len(self.rules)
        self._lock = threading.Lock()

    def lookup(self, prompt: str) -> str:
        with self._lock:
            for i, rule in enumerate(self.rules):
                if not rule.matches(prompt):
                    continue
                self._match_counts[i] += 1
                if rule.ordinal and self._match_counts[i] != rule.ordinal:
                    continue
                return rule.response
        if self.strict:
            raise FixtureMissError(
                "no fixture rule matches prompt starting with: %r" % prompt[:80]
            )
        return ""


_MATCH_LINE = re.compile(r"^match(?:\[(\d+)\])?:\s?(.*)$")


def load_fixture(path: str | os.PathLike, strict: bool = True) -> ScriptedFixture:
    """Parse a fixture file into a ScriptedFixture.

    Records are ``match:`` / ``response:`` pairs. A response is either the
    rest of its line or a fenced block (three or more backticks) starting on
    the following line; the block ends at a line consisting of the same
    fence, so responses containing triple backticks use a longer fence.
    A ``match[N]:`` header restricts the rule to the Nth matching prompt.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    rules: list[FixtureRule] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip() or line.lstrip().startswith("#"):
            i += 1
            continue
        m = _MATCH_LINE.match(line)
        if not m:
            raise ValueError(f"{path}:{i + 1}: expected a 'match:' line, got {line!r}")
        ordinal = int(m.group(1)) if m.group(1) else 0
        pattern = m.group(2)
        regex = False
        if pattern.startswith("re:"):
            regex = True
            pattern = pattern[3:]
        i += 1
        if i >= len(lines) or not lines[i].startswith("response:"):
            raise ValueError(f"{path}:{i + 1}: expected a 'response:' line")
        rest = lines[i][len("response:"):].lstrip(" ")
        i += 1
        fence = None
        if re.fullmatch(r"`{3,}", rest.strip()):
            fence = rest.strip()
        elif not rest and i < len(lines) and re.fullmatch(r"`{3,}", lines[i].strip()):
            fence = lines[i].strip()
            i += 1
        if fence is None:
            if not rest:
                raise ValueError(
                    f"{path}:{i}: empty response must be followed by a fenced block"
                )
            response = rest
        else:
            block: list[str] = []
            while i < len(lines) and lines[i].strip() != fence:
                block.append(lines[i])
                i += 1
            if i >= len(lines):
                raise ValueError(f"{path}: unterminated response fence for {pattern!r}")
            i += 1
            response = "\n".join(block)
        rules.append(FixtureRule(pattern, response, regex=regex, ordinal=ordinal))
    return ScriptedFixture(rules, strict=strict)


class ScriptedBackend:
    """Deterministic backend replaying a loaded fixture."""

    label = "scripted"

    def __init__(self, fixture: ScriptedFixture):
        self.fixture = fixture

    def complete(self, request: LlmRequest) -> tuple[str, int | None]:
        return self.fixture.lookup(request.prompt_text), None


class RemoteBackend:
    """HTTP chat-completion backend.

    Configured from environment variables (endpoint URL, credential, model
    name). Transient failures are retried with exponential backoff; after
    the attempts are exhausted a TransportError tells the caller to back off.
    """

    RETRY_ATTEMPTS = 3
    BACKOFF_INITIAL = 2.0

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 model: str | None = None, transport=None, sleep=time.sleep):
        self.endpoint = endpoint or os.environ.get(ENV_ENDPOINT, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.endpoint:
            raise ValueError(f"remote backend needs {ENV_ENDPOINT} or an endpoint argument")
        self._transport = transport or self._default_transport
        self._sleep = sleep
        self.label = f"remote:{self.model or 'default'}"

    @staticmethod
    def _default_transport(url: str, payload: dict, headers: dict) -> dict:
        import urllib.request  # not at module level: it loads ssl, ~3 MB of RSS per process

        request = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"),
                                         headers=headers, method="POST")
        with urllib.request.urlopen(request, timeout=120) as resp:  # raises on HTTP errors
            return json.loads(resp.read())

    def complete(self, request: LlmRequest) -> tuple[str, int | None]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt_text}],
            "temperature": request.temperature_hint,
            "max_tokens": max(16, request.max_response_chars // 4),
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.RETRY_ATTEMPTS):
            try:
                body = self._transport(self.endpoint, payload, headers)
                text = body["choices"][0]["message"]["content"]
                tokens = None
                usage = body.get("usage") or {}
                if isinstance(usage.get("total_tokens"), int):
                    tokens = usage["total_tokens"]
                return text, tokens
            except Exception as exc:  # noqa: BLE001 - any transport fault is retryable
                last_error = exc
                if attempt + 1 < self.RETRY_ATTEMPTS:
                    self._sleep(self.BACKOFF_INITIAL * (2 ** attempt))
        raise TransportError(f"remote completion failed after {self.RETRY_ATTEMPTS} attempts: {last_error}")


@dataclass
class StageUsage:
    requests: int = 0
    token_estimate: int = 0
    latency: float = 0.0


@dataclass
class UsageSummary:
    per_stage: dict[str, StageUsage] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return sum(s.requests for s in self.per_stage.values())

    @property
    def total_token_estimate(self) -> int:
        return sum(s.token_estimate for s in self.per_stage.values())

    @property
    def total_latency(self) -> float:
        return sum(s.latency for s in self.per_stage.values())


class Accounting:
    """Monotone per-stage usage counters, safe for concurrent recording."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stages: dict[str, StageUsage] = {}

    def record(self, stage: str, latency: float, token_estimate: int):
        with self._lock:
            usage = self._stages.setdefault(stage, StageUsage())
            usage.requests += 1
            usage.latency += latency
            usage.token_estimate += token_estimate

    def summary(self) -> UsageSummary:
        with self._lock:
            return UsageSummary(
                {name: StageUsage(u.requests, u.token_estimate, u.latency)
                 for name, u in self._stages.items()}
            )


def estimate_tokens(text: str) -> int:
    """Character-count heuristic used only for reporting, never control flow."""
    return (len(text) + 3) // 4


class LlmClient:
    """Stateless completion client with per-stage usage accounting."""

    def __init__(self, backend):
        self.backend = backend
        self._accounting = Accounting()

    def complete(self, request: LlmRequest, stage: str = "other") -> LlmResponse:
        start = time.monotonic()
        text, reported_tokens = self.backend.complete(request)
        latency = time.monotonic() - start
        truncated = False
        if len(text) > request.max_response_chars:
            text = text[: request.max_response_chars]
            truncated = True
        tokens = reported_tokens if reported_tokens is not None else estimate_tokens(
            request.prompt_text + text
        )
        self._accounting.record(stage, latency, tokens)
        return LlmResponse(
            text=text,
            provider_label=self.backend.label,
            latency=latency,
            token_estimate=tokens,
            truncated=truncated,
        )

    def accounting(self) -> UsageSummary:
        return self._accounting.summary()


def scripted_client(fixture_path: str | os.PathLike, strict: bool = True) -> LlmClient:
    return LlmClient(ScriptedBackend(load_fixture(fixture_path, strict=strict)))
