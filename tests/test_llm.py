import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdeoh import llm
from cdeoh.llm import (
    MissingContextError,
    ParseFailure,
    PromptContext,
    PromptKind,
    ProviderConfig,
    ProviderError,
    ScriptedProvider,
    canonical_label,
    parse_generation,
    render_prompt,
    wrap_generation,
    write_transcript,
)

from conftest import CountingProvider

GRAMMAR = "program := ... (grammar text)"
TASK = "pack items into bins"


def ctx(**kw):
    return PromptContext(task_description=TASK, dsl_grammar=GRAMMAR, **kw)


def full_ctx(**kw):
    base = dict(parent_thought="best fit", parent_code="return -(cap_remaining - item)",
                error_message="eval error [length-mismatch]: vector lengths differ")
    base.update(kw)
    return ctx(**base)


# ---------------------------------------------------------------- prompts

def test_initialization_prompt_contains_grammar_and_format():
    text = render_prompt(PromptKind.INITIALIZATION, ctx(seed=3))
    assert GRAMMAR in text
    assert TASK in text
    assert "braces" in text and "```" in text
    assert text.startswith("[prompt-kind: initialization]")
    assert "[variation-seed: 3]" in text


def test_reflection_prompt_contains_verbatim_error():
    c = full_ctx()
    text = render_prompt(PromptKind.REFLECTION, c)
    assert c.error_message in text
    assert c.parent_code in text


def test_category_prompt_lists_known_labels():
    c = full_ctx(known_categories=("greedy", "dynamic programming"))
    text = render_prompt(PromptKind.CATEGORY_INDUCTION, c)
    assert "greedy" in text
    assert "dynamic programming" in text
    assert "1-4 word" in text


def test_prompts_are_deterministic():
    c = full_ctx(seed=9)
    for kind in PromptKind:
        assert render_prompt(kind, c) == render_prompt(kind, c)


def test_missing_context_rejected():
    with pytest.raises(MissingContextError):
        render_prompt(PromptKind.REFINEMENT, ctx())
    with pytest.raises(MissingContextError):
        render_prompt(PromptKind.REFLECTION, full_ctx(error_message=None))
    with pytest.raises(MissingContextError):
        render_prompt(PromptKind.CATEGORY_INDUCTION, ctx(parent_thought="x"))


def test_prompt_byte_budget_truncates_parent_code_tail_first():
    big = "x" * 50_000
    c = full_ctx(parent_code=big)
    text = render_prompt(PromptKind.REFINEMENT, c, max_bytes=4096)
    assert len(text.encode()) <= 4096
    assert llm.TRUNCATION_MARKER in text
    assert text.startswith("[prompt-kind: refinement]")  # header survives


def test_prompt_at_the_smallest_budget_keeps_its_kind_header():
    seed = 10 ** 40  # the longest header a caller is likely to render
    for kind in PromptKind:
        text = render_prompt(kind, full_ctx(parent_code="x" * 5000, seed=seed, index=seed),
                             max_bytes=llm.MIN_PROMPT_BYTES)
        assert len(text.encode()) <= llm.MIN_PROMPT_BYTES
        assert llm.prompt_kind_of(text) is kind
        assert llm.prompt_key_of(text) == (kind, seed)


def test_prompt_kind_tag_round_trip():
    for kind in PromptKind:
        text = render_prompt(kind, full_ctx())
        assert llm.prompt_kind_of(text) is kind
        text = render_prompt(kind, full_ctx(index=17, seed=42))
        assert text.startswith(f"[prompt-kind: {kind.value}] [call: 17] [variation-seed: 42]\n")
        assert llm.prompt_key_of(text) == (kind, 17)


# ---------------------------------------------------------------- parsing

def test_parse_generation_example():
    raw = "{use best fit}\n```\nreturn -(cap_remaining - item)\n```"
    thought, code = parse_generation(raw)
    assert thought == "use best fit"
    assert code == "return -(cap_remaining - item)"


def test_parse_generation_language_tag_ignored():
    raw = "{t}\n```text\nreturn 1\n```"
    assert parse_generation(raw)[1] == "return 1"


def test_parse_generation_missing_thought():
    with pytest.raises(ParseFailure) as ei:
        parse_generation("no braces here\n```\nreturn 1\n```")
    assert ei.value.kind == "missing-thought"


def test_parse_generation_missing_code():
    with pytest.raises(ParseFailure) as ei:
        parse_generation("{a thought} but no fence")
    assert ei.value.kind == "missing-code"


def test_parse_generation_first_brace_span_wins():
    raw = "{first} {second}\n```\ncode\n```"
    assert parse_generation(raw)[0] == "first"


def test_parse_generation_nested_braces():
    raw = "{outer {inner} tail}\n```\nc\n```"
    assert parse_generation(raw)[0] == "outer {inner} tail"


@given(
    thought=st.text(alphabet="abcdefgh XYZ.,", min_size=1, max_size=40).map(str.strip).filter(bool),
    code=st.text(alphabet="abcdefgh()-+ 0123456789\n", min_size=1, max_size=60).map(str.strip).filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_parse_generation_idempotent_on_wrapped_output(thought, code):
    t, c = parse_generation(wrap_generation(thought, code))
    assert (t, c) == (thought, code)
    t2, c2 = parse_generation(wrap_generation(t, c))
    assert (t2, c2) == (t, c)


# ---------------------------------------------------------------- labels

def test_canonical_label_examples():
    assert canonical_label("Greedy\n(explanation...)") == "greedy"
    assert canonical_label("  Dynamic Programming. ") == "dynamic programming"
    assert canonical_label("") == "uncategorized"
    assert canonical_label("\n\n   \n") == "uncategorized"


def test_canonical_label_truncates():
    label = canonical_label("x" * 100)
    assert len(label) <= 48


@given(st.text(max_size=120))
@settings(max_examples=150, deadline=None)
def test_canonical_label_idempotent(text):
    once = canonical_label(text)
    assert canonical_label(once) == once
    assert once
    assert len(once) <= 48


# ---------------------------------------------------------------- scripted provider

def make_scripted(tmp_path, entries):
    path = tmp_path / "transcript.jsonl"
    write_transcript(path, entries)
    return CountingProvider(path)


def test_scripted_provider_replays_by_kind_and_index(tmp_path):
    provider = make_scripted(tmp_path, [
        ("initialization", 0, "first"),
        ("initialization", 1, "second"),
        ("reflection", 0, "fix"),
    ])
    p_init = [render_prompt(PromptKind.INITIALIZATION, ctx(index=i)) for i in range(2)]
    p_refl = render_prompt(PromptKind.REFLECTION, full_ctx())
    assert provider.complete(p_init[0]) == "first"
    assert provider.complete(p_refl) == "fix"
    assert provider.complete(p_init[1]) == "second"


def test_scripted_provider_answers_the_key_in_the_header_in_any_order(tmp_path):
    provider = make_scripted(tmp_path, [("initialization", i, f"resp {i}") for i in range(3)])
    prompts = [render_prompt(PromptKind.INITIALIZATION, ctx(index=i)) for i in range(3)]
    assert [provider.complete(prompts[i]) for i in (2, 0, 1, 2)] == [
        "resp 2", "resp 0", "resp 1", "resp 2"]
    assert provider.calls_made("initialization") == 4
    with pytest.raises(ValueError, match="call tag"):
        provider.complete("[prompt-kind: initialization] [variation-seed: 0]\n")


def test_scripted_provider_transcript_miss(tmp_path):
    provider = make_scripted(tmp_path, [("initialization", 0, "only")])
    p = [render_prompt(PromptKind.INITIALIZATION, ctx(index=i)) for i in range(2)]
    provider.complete(p[0])
    with pytest.raises(ProviderError) as ei:
        provider.complete(p[1])
    assert ei.value.kind == "transcript-miss"


def test_scripted_provider_duplicate_key_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"kind": "initialization", "index": 0, "response": "a"}\n'
                    '{"kind": "initialization", "index": 0, "response": "b"}\n')
    with pytest.raises(ValueError, match="duplicate"):
        ScriptedProvider(path)


# Transcript lines ScriptedProvider rejects, with the text its error carries.
MALFORMED_TRANSCRIPT_LINES = [
    ('{"index": 0, "response": "a"}', "missing key 'kind'"),
    ("[1,2]", "a transcript line must be a JSON object"),
    ("nope", "invalid JSON: Expecting value"),
    pytest.param("[" * 100_000, "invalid JSON: maximum recursion depth", id="nested-too-deep"),
]


@pytest.mark.parametrize("line, message", MALFORMED_TRANSCRIPT_LINES + [
    ('{"kind": "initialization", "response": "a"}', "missing key 'index'"),
    ('{"kind": "initialization", "index": 1}', "missing key 'response'"),
    ('{"kind": 3, "index": 1, "response": "a"}', "'kind' must be a string"),
    ('{"kind": "initialization", "index": "1", "response": "a"}', "'index' must be an integer"),
    ('{"kind": "initialization", "index": true, "response": "a"}', "'index' must be an integer"),
    ('{"kind": "initialization", "index": 1, "response": null}', "'response' must be a string"),
])
def test_scripted_provider_malformed_line_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "t.jsonl"
    path.write_text('{"kind": "initialization", "index": 0, "response": "a"}\n' + line + "\n")
    with pytest.raises(ValueError) as ei:
        ScriptedProvider(path)
    assert str(ei.value).startswith(f"{path}:2: {message}")


def test_scripted_provider_unreadable_transcript(tmp_path):
    with pytest.raises(ValueError, match="cannot read transcript"):
        ScriptedProvider(tmp_path / "gone.jsonl")


def test_scripted_determinism_end_to_end(tmp_path):
    entries = [("initialization", i, f"resp {i}") for i in range(5)]
    p1 = make_scripted(tmp_path, entries)
    path2 = tmp_path / "t2.jsonl"
    write_transcript(path2, entries)
    p2 = ScriptedProvider(path2)
    prompts = [render_prompt(PromptKind.INITIALIZATION, ctx(index=i)) for i in range(5)]
    assert [p1.complete(p) for p in prompts] == [p2.complete(p) for p in prompts]


def test_high_level_calls_through_scripted(tmp_path):
    provider = make_scripted(tmp_path, [
        ("initialization", 0, wrap_generation("greedy idea", "return item - item + 1")),
        ("category-induction", 0, "Greedy\nbecause it is"),
        ("reflection", 0, wrap_generation("fixed", "return item * 0 + 1")),
    ])
    label = llm.induce_category(provider, full_ctx())
    assert label == "greedy"
    t, c = llm.reflect(provider, full_ctx())
    assert (t, c) == ("fixed", "return item * 0 + 1")


def test_reflect_missing_code_raises_parse_failure(tmp_path):
    provider = make_scripted(tmp_path, [("reflection", 0, "{sorry} no code here")])
    with pytest.raises(ParseFailure) as ei:
        llm.reflect(provider, full_ctx())
    assert ei.value.kind == "missing-code"


def test_provider_config_invariants(tmp_path):
    with pytest.raises(ValueError):
        ProviderConfig(provider="scripted", transcript_path=None)
    with pytest.raises(ValueError):
        ProviderConfig(provider="http", base_url=None, model=None)
    with pytest.raises(ValueError):
        ProviderConfig(provider="wat")
    cfg = ProviderConfig(provider="scripted", transcript_path=str(tmp_path / "x"))
    assert cfg.temperature == 1.0


@pytest.mark.parametrize("key, value, message", [
    ("max_prompt_bytes", 10, "max_prompt_bytes must be >= 256"),
    ("max_prompt_bytes", 255, "max_prompt_bytes must be >= 256"),
    ("retry_backoff_s", -0.5, "retry_backoff_s must be >= 0"),
])
def test_provider_config_rejects_values_that_break_callers(tmp_path, key, value, message):
    with pytest.raises(ValueError, match=message):
        ProviderConfig(provider="scripted", transcript_path=str(tmp_path / "x"), **{key: value})
    ProviderConfig(provider="scripted", transcript_path=str(tmp_path / "x"),
                   max_prompt_bytes=256, retry_backoff_s=0.0)


# ---------------------------------------------------------------- http provider

class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    hits = 0

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        assert self.path.endswith("/chat/completions")
        if cls.behavior == "rate-limit-once" and cls.hits == 1:
            self.send_response(429)
            self.end_headers()
            return
        if cls.behavior == "server-error-once" and cls.hits == 1:
            self.send_response(503)
            self.end_headers()
            return
        if cls.behavior == "malformed":
            payload = b'{"nope": true}'
        else:
            content = f"echo:{body['messages'][0]['content'][:20]}|temp={body['temperature']}"
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.hits = 0
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def http_config(base_url, **kw):
    defaults = dict(provider="http", base_url=base_url, model="test-model",
                    max_retries=2, retry_backoff_s=0.01)
    defaults.update(kw)
    return ProviderConfig(**defaults)


def test_http_provider_success(local_server, monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    provider = llm.make_provider(http_config(local_server))
    out = provider.complete("[prompt-kind: initialization] hello", temperature=0.25)
    assert out.startswith("echo:")
    assert "temp=0.25" in out


def test_http_provider_unreachable_counts_attempts(monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    provider = llm.HttpProvider(http_config("http://127.0.0.1:9", max_retries=3))
    with pytest.raises(ProviderError) as ei:
        provider.complete("x")
    assert ei.value.kind == "network"
    assert "attempt 3" in str(ei.value)


def test_http_provider_no_sleep_after_last_attempt(monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    provider = llm.HttpProvider(http_config("http://127.0.0.1:9", max_retries=1,
                                            retry_backoff_s=5))
    start = time.monotonic()
    with pytest.raises(ProviderError) as ei:
        provider.complete("x")
    assert ei.value.kind == "network"
    assert time.monotonic() - start < 2.5


def test_http_provider_retries_server_error(local_server, monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    _Handler.behavior = "server-error-once"
    provider = llm.HttpProvider(http_config(local_server))
    out = provider.complete("after-503")
    assert out.startswith("echo:")
    assert _Handler.hits == 2


def test_http_provider_retries_rate_limit(local_server, monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    _Handler.behavior = "rate-limit-once"
    provider = llm.HttpProvider(http_config(local_server))
    out = provider.complete("after-429")
    assert out.startswith("echo:")
    assert _Handler.hits == 2


class _RateLimitHandler(_Handler):
    """Answers 429, with `retry_after` as its Retry-After header if set, to the
    first `limited` requests, then echoes like _Handler."""
    limited = 1
    retry_after = None

    def do_POST(self):
        if type(self).hits < self.limited:
            type(self).hits += 1
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self.send_response(429)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        super().do_POST()


@pytest.fixture
def rate_limited_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RateLimitHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _RateLimitHandler.hits = 0
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.mark.parametrize("retry_after, waits", [
    ("7", [7]),  # whole seconds replace the backoff of that retry
    (" 0 ", [0]),
    ("Fri, 31 Dec 1999 23:59:59 GMT", [0.01]),  # an HTTP-date keeps the backoff
    ("1.5", [0.01]),
    (None, [0.01]),
])
def test_http_provider_honors_retry_after_in_seconds_on_429(rate_limited_server, monkeypatch,
                                                            retry_after, waits):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    monkeypatch.setattr(_RateLimitHandler, "retry_after", retry_after)
    slept = []
    monkeypatch.setattr(llm.time, "sleep", slept.append)
    provider = llm.HttpProvider(http_config(rate_limited_server))
    assert provider.complete("after-429").startswith("echo:")
    assert slept == waits


def test_http_provider_rate_limited_to_the_end_sleeps_only_between_attempts(
        rate_limited_server, monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    monkeypatch.setattr(_RateLimitHandler, "limited", 4)
    monkeypatch.setattr(_RateLimitHandler, "retry_after", "3")
    slept = []
    monkeypatch.setattr(llm.time, "sleep", slept.append)
    provider = llm.HttpProvider(http_config(rate_limited_server, max_retries=3))
    with pytest.raises(ProviderError) as ei:
        provider.complete("x")
    assert ei.value.kind == "rate-limited-exhausted"
    assert "attempt 3" in str(ei.value)
    assert slept == [3, 3]
    assert _RateLimitHandler.hits == 3


@pytest.mark.parametrize("retry_after", ["9223372037", "9" * 5000], ids=["past-sleep", "past-int"])
def test_http_provider_gives_up_at_once_on_a_retry_after_past_any_sleep(
        rate_limited_server, monkeypatch, retry_after):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    monkeypatch.setattr(_RateLimitHandler, "limited", 4)
    monkeypatch.setattr(_RateLimitHandler, "retry_after", retry_after)
    provider = llm.HttpProvider(http_config(rate_limited_server, max_retries=3))
    with pytest.raises(ProviderError) as ei:
        provider.complete("x")
    assert ei.value.kind == "rate-limited-exhausted"
    assert "attempt 1" in str(ei.value)
    assert _RateLimitHandler.hits == 1


def test_http_provider_malformed_response(local_server, monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    _Handler.behavior = "malformed"
    provider = llm.HttpProvider(http_config(local_server))
    with pytest.raises(ProviderError) as ei:
        provider.complete("x")
    assert ei.value.kind == "malformed-response"


def test_http_provider_requires_api_key(local_server, monkeypatch):
    monkeypatch.delenv(llm.API_KEY_ENV, raising=False)
    with pytest.raises(ValueError, match=llm.API_KEY_ENV):
        llm.HttpProvider(http_config(local_server))


def test_http_base_url_env_override(local_server, monkeypatch):
    monkeypatch.setenv(llm.API_KEY_ENV, "k")
    monkeypatch.setenv(llm.BASE_URL_ENV, local_server)
    provider = llm.HttpProvider(http_config("http://127.0.0.1:9"))
    assert provider.complete("x").startswith("echo:")
