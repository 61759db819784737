"""Text-generation backends and prompt plumbing.

Candidate generation, category induction and error repair are all plain
conditional text-generation calls.  Two providers implement them: a
scripted one that replays a recorded transcript (bit-deterministic, used
by every test), and an HTTP one that talks to any OpenAI-compatible
chat-completions endpoint.

Transcript files are JSONL, one object per line:
    {"kind": str, "index": int, "response": str}
keyed by prompt kind and a per-kind monotone call index.  Every rendered
prompt carries that key in its header, e.g.
`[prompt-kind: refinement] [call: 17] [variation-seed: 42]`, and the
scripted provider reads it from there, so a transcript answers the same
calls in whatever order they arrive.
"""

from __future__ import annotations

import json
import os
import string
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from cdeoh import jsonio

API_KEY_ENV = "CDEOH_API_KEY"
BASE_URL_ENV = "CDEOH_BASE_URL"

DEFAULT_MAX_PROMPT_BYTES = 65536
MIN_PROMPT_BYTES = 256  # room for the kind header and the truncation marker
TRUNCATION_MARKER = "...[truncated]"

GENERATION_TEMPERATURE_DEFAULT = 1.0
DETERMINISTIC_TEMPERATURE = 0.0  # category induction and reflection


class PromptKind(str, Enum):
    INITIALIZATION = "initialization"
    REFINEMENT = "refinement"
    INNOVATION = "innovation"
    CATEGORY_INDUCTION = "category-induction"
    REFLECTION = "reflection"


_NEEDS_PARENT = (PromptKind.REFINEMENT, PromptKind.INNOVATION,
                 PromptKind.CATEGORY_INDUCTION, PromptKind.REFLECTION)


class MissingContextError(ValueError):
    """PromptContext does not satisfy the invariants for the prompt kind."""


PROVIDER_ERROR_KINDS = (
    "transcript-miss", "network", "http-status", "rate-limited-exhausted", "malformed-response",
)


class ProviderError(Exception):
    def __init__(self, kind: str, message: str):
        assert kind in PROVIDER_ERROR_KINDS
        self.kind = kind
        super().__init__(f"provider error [{kind}]: {message}")


class ParseFailure(Exception):
    """Generation output missing the thought brace block or the code fence.

    Carries whichever part was extractable so repair prompts can still show
    the model its own partial output.
    """

    def __init__(self, kind: str, message: str,
                 thought: str | None = None, code: str | None = None):
        assert kind in ("missing-thought", "missing-code")
        self.kind = kind
        self.thought = thought
        self.code = code
        super().__init__(f"response parse failure [{kind}]: {message}")


@dataclass
class PromptContext:
    task_description: str
    dsl_grammar: str
    parent_thought: str | None = None
    parent_code: str | None = None
    error_message: str | None = None
    known_categories: tuple[str, ...] = ()
    seed: int = 0
    index: int = 0  # calls of this prompt's kind made before it in the run


@dataclass
class ProviderConfig:
    provider: str = "scripted"  # "scripted" | "http"
    base_url: str | None = None
    model: str | None = None
    temperature: float = GENERATION_TEMPERATURE_DEFAULT
    max_retries: int = 3
    transcript_path: str | None = None
    max_prompt_bytes: int = DEFAULT_MAX_PROMPT_BYTES
    retry_backoff_s: float = 0.5

    def __post_init__(self):
        if self.provider not in ("scripted", "http"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.provider == "scripted" and not self.transcript_path:
            raise ValueError("scripted provider requires transcript_path")
        if self.provider == "http":
            base = os.environ.get(BASE_URL_ENV) or self.base_url
            if not base or not self.model:
                raise ValueError("http provider requires base_url and model")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.max_prompt_bytes < MIN_PROMPT_BYTES:
            raise ValueError(f"max_prompt_bytes must be >= {MIN_PROMPT_BYTES}")
        if not self.retry_backoff_s >= 0:  # NaN too
            raise ValueError("retry_backoff_s must be >= 0")


# --------------------------------------------------------------------------
# Prompt templates
# --------------------------------------------------------------------------

_OUTPUT_FORMAT = """\
Answer with exactly two parts:
1. A one-or-two sentence design idea inside a single pair of braces, like
   {place each item where it leaves the least slack}.
2. The program in one fenced code block:
```
return -(cap_remaining - item)
```
No other braces or fences."""


def _header(kind: PromptKind, index: int, seed: int) -> str:
    return f"[prompt-kind: {kind.value}] [call: {index}] [variation-seed: {seed}]"


def _parent_block(ctx: PromptContext) -> str:
    return (f"Current algorithm idea:\n{{{ctx.parent_thought}}}\n\n"
            f"Current algorithm code:\n```\n{ctx.parent_code}\n```")


def _render_once(kind: PromptKind, ctx: PromptContext) -> str:
    head = _header(kind, ctx.index, ctx.seed)
    common = (f"{head}\n\nTask:\n{ctx.task_description}\n\n"
              f"Write programs in this language only:\n{ctx.dsl_grammar}\n")
    if kind is PromptKind.INITIALIZATION:
        return (common
                + "\nDesign a brand-new priority function for this task. Aim for a sensible,"
                  "\nself-contained strategy rather than a trivial constant.\n\n"
                + _OUTPUT_FORMAT)
    if kind is PromptKind.REFINEMENT:
        return (common + "\n" + _parent_block(ctx)
                + "\n\nRefine this algorithm: keep the core idea, improve parameters and"
                  "\ndetails (weights, thresholds, tie handling).\n\n" + _OUTPUT_FORMAT)
    if kind is PromptKind.INNOVATION:
        return (common + "\n" + _parent_block(ctx)
                + "\n\nPropose a fundamentally different idea and new code: change the"
                  "\nalgorithmic strategy, not just its constants.\n\n" + _OUTPUT_FORMAT)
    if kind is PromptKind.REFLECTION:
        return (common + "\n" + _parent_block(ctx)
                + "\n\nRunning this program failed with the error:\n"
                + f"{ctx.error_message}\n\n"
                  "Repair the program so it runs, keeping the idea as intact as possible.\n\n"
                + _OUTPUT_FORMAT)
    # category induction
    known = "\n".join(f"  - {c}" for c in ctx.known_categories) or "  (none yet)"
    return (common + "\n" + _parent_block(ctx)
            + "\n\nName the algorithmic paradigm this algorithm belongs to"
              " (examples of paradigms: greedy, dynamic programming, randomized).\n"
              "Known categories so far:\n" + known
            + "\nReuse an existing label when applicable, else coin a new 1-4 word label.\n"
              "Answer with the label on a single line and nothing else.")


def _check_context(kind: PromptKind, ctx: PromptContext) -> None:
    if kind in _NEEDS_PARENT and (ctx.parent_thought is None or ctx.parent_code is None):
        raise MissingContextError(f"{kind.value} prompt requires parent_thought and parent_code")
    if kind is PromptKind.REFLECTION and ctx.error_message is None:
        raise MissingContextError("reflection prompt requires error_message")


def _encodable(text: str) -> str:
    """`text` with each code point UTF-8 cannot encode (a lone surrogate) as '?'."""
    return text.encode("utf-8", errors="replace").decode("utf-8")


def render_prompt(kind: PromptKind, ctx: PromptContext,
                  max_bytes: int = DEFAULT_MAX_PROMPT_BYTES) -> str:
    """Deterministic prompt text for `kind`; never exceeds `max_bytes`."""
    kind = PromptKind(kind)
    _check_context(kind, ctx)
    text = _encodable(_render_once(kind, ctx))
    over = len(text.encode("utf-8")) - max_bytes
    if over > 0 and ctx.parent_code:
        # Drop the tail of the parent code first, marking the cut.
        code = _encodable(ctx.parent_code).encode("utf-8")
        keep = max(0, len(code) - over - len(TRUNCATION_MARKER))
        cut_code = code[:keep].decode("utf-8", errors="ignore")
        ctx2 = PromptContext(**{**ctx.__dict__, "parent_code": cut_code + TRUNCATION_MARKER})
        text = _encodable(_render_once(kind, ctx2))
    raw = text.encode("utf-8")
    if len(raw) > max_bytes:
        marker = TRUNCATION_MARKER.encode("utf-8")
        text = raw[:max_bytes - len(marker)].decode("utf-8", errors="ignore") + TRUNCATION_MARKER
    return text


def prompt_kind_of(prompt: str) -> PromptKind:
    """Recover the kind tag embedded in a rendered prompt's header."""
    first = prompt.split("\n", 1)[0]
    if first.startswith("[prompt-kind: "):
        tag = first[len("[prompt-kind: "):].split("]", 1)[0]
        try:
            return PromptKind(tag)
        except ValueError:
            pass
    raise ValueError("prompt does not carry a kind tag header")


def prompt_key_of(prompt: str) -> tuple[PromptKind, int]:
    """The (kind, call index) a rendered prompt's header carries."""
    kind = prompt_kind_of(prompt)
    rest = prompt.split("\n", 1)[0].split("] ", 1)[-1]
    if rest.startswith("[call: "):
        digits = rest[len("[call: "):].split("]", 1)[0]
        if digits.isascii() and digits.isdigit():
            return kind, int(digits)
    raise ValueError("prompt does not carry a call tag in its header")


# --------------------------------------------------------------------------
# Response parsing
# --------------------------------------------------------------------------

def parse_generation(raw: str) -> tuple[str, str]:
    """Extract (thought, code): first balanced {...} span, first fenced block."""
    thought = _first_brace_span(raw)
    code = _first_fenced_block(raw)
    if thought is None:
        raise ParseFailure("missing-thought", "no balanced {...} block found in the response",
                           code=code.strip() if code else None)
    if code is None:
        raise ParseFailure("missing-code", "no ``` fenced code block found in the response",
                           thought=thought.strip())
    return thought.strip(), code.strip()


def _first_brace_span(text: str) -> str | None:
    start = text.find("{")
    if start < 0:
        return None
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return None


def _first_fenced_block(text: str) -> str | None:
    open_at = text.find("```")
    if open_at < 0:
        return None
    body_start = text.find("\n", open_at)
    if body_start < 0:
        return None
    close_at = text.find("```", body_start)
    if close_at < 0:
        return None
    return text[body_start + 1:close_at]


def wrap_generation(thought: str, code: str) -> str:
    """Inverse of parse_generation for well-formed inputs; used by fixtures."""
    return f"{{{thought}}}\n```\n{code}\n```"


_PUNCT_WS = string.punctuation + string.whitespace


def canonical_label(text: str) -> str:
    """First nonempty line, lowercased, whitespace-collapsed, trimmed, <= 48 chars."""
    line = ""
    for cand in text.splitlines():
        if cand.strip():
            line = cand
            break
    label = " ".join(_encodable(line).lower().split()).strip(_PUNCT_WS)
    if len(label) > 48:
        label = label[:48].strip(_PUNCT_WS)
    return label or "uncategorized"


# --------------------------------------------------------------------------
# Providers
# --------------------------------------------------------------------------

TRANSCRIPT_FIELDS = {"kind": str, "index": int, "response": str}


class ScriptedProvider:
    """Replays a transcript keyed by (kind, per-kind monotone call index), the
    key each prompt's header carries; safe to call from several threads."""

    def __init__(self, transcript_path: str | Path,
                 config: ProviderConfig | None = None):
        self.config = config or ProviderConfig(provider="scripted", transcript_path=str(transcript_path))
        self._entries: dict[tuple[str, int], str] = {}
        path = Path(transcript_path)
        text = jsonio.read_text(path, "transcript")
        for where, entry in jsonio.json_lines(text, str(path)):
            if not isinstance(entry, dict):
                raise ValueError(f"{where}: a transcript line must be a JSON object")
            jsonio.check_fields(entry, TRANSCRIPT_FIELDS, where)
            key = (entry["kind"], entry["index"])
            if key in self._entries:
                raise ValueError(f"{where}: duplicate transcript key {key}")
            self._entries[key] = entry["response"]

    def complete(self, prompt: str, seed: int = 0, temperature: float | None = None) -> str:
        kind, index = prompt_key_of(prompt)
        kind = kind.value
        try:
            return self._entries[(kind, index)]
        except KeyError:
            raise ProviderError(
                "transcript-miss",
                f"no transcript entry for kind={kind!r} index={index}") from None


def write_transcript(path: str | Path, entries) -> None:
    """Write (kind, index, response) triples as a transcript file."""
    lines = []
    for kind, index, response in entries:
        lines.append(json.dumps({"kind": kind, "index": index, "response": response}))
    Path(path).write_text("\n".join(lines) + "\n")


class HttpProvider:
    """OpenAI-compatible chat-completions client with retry and backoff."""

    def __init__(self, config: ProviderConfig):
        if config.provider != "http":
            raise ValueError("HttpProvider requires provider='http'")
        self.config = config
        self.base_url = (os.environ.get(BASE_URL_ENV) or config.base_url).rstrip("/")
        self.api_key = os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise ValueError(f"{API_KEY_ENV} is not set (the key is never read from config files)")

    def complete(self, prompt: str, seed: int = 0, temperature: float | None = None) -> str:
        """Network errors, 429 and 5xx are retried after `backoff`, doubled each
        time; a 429's `Retry-After` in whole seconds replaces that one wait."""
        import http.client
        import urllib.error
        import urllib.request

        temp = self.config.temperature if temperature is None else temperature
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temp,
        }
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions", data=json.dumps(body).encode("utf-8"),
            headers={"Authorization": f"Bearer {self.api_key}",
                     "Content-Type": "application/json"}, method="POST")
        backoff = self.config.retry_backoff_s
        wait = backoff
        last: ProviderError | None = None
        for attempt in range(1, self.config.max_retries + 1):
            if last is not None:
                try:
                    time.sleep(wait)
                except OverflowError:  # a Retry-After past any sleep
                    raise last from None
                backoff *= 2
                wait = backoff
            try:
                try:
                    with urllib.request.urlopen(request, timeout=120) as resp:
                        status, headers, text = resp.status, resp.headers, resp.read()
                except urllib.error.HTTPError as e:  # a 4xx or 5xx answer, body still to read
                    with e:
                        status, headers, text = e.code, e.headers, e.read()
            except (OSError, http.client.HTTPException) as e:
                last = ProviderError("network", f"attempt {attempt}: {e}")
                continue
            if status == 429:
                retry_after = (headers.get("Retry-After") or "").strip()
                if retry_after.isascii() and retry_after.isdigit():  # seconds, not an HTTP-date
                    wait = float(retry_after)  # inf past float's range
                last = ProviderError("rate-limited-exhausted", f"attempt {attempt}: rate limited (429)")
                continue
            if status >= 500:
                last = ProviderError("http-status", f"attempt {attempt}: server returned {status}")
                continue
            if status != 200:
                detail = text.decode("utf-8", errors="replace")[:200]
                raise ProviderError("http-status", f"server returned {status}: {detail}")
            try:
                content = json.loads(text)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as e:
                raise ProviderError("malformed-response", f"cannot read completion: {e}") from e
            if not isinstance(content, str):
                raise ProviderError("malformed-response", "message content is not text")
            return content
        assert last is not None
        raise last


Provider = ScriptedProvider | HttpProvider


def make_provider(config: ProviderConfig) -> Provider:
    if config.provider == "scripted":
        return ScriptedProvider(config.transcript_path, config)
    return HttpProvider(config)


# --------------------------------------------------------------------------
# High-level calls
# --------------------------------------------------------------------------

def induce_category(provider: Provider, ctx: PromptContext) -> str:
    """Ask for an algorithm-paradigm label and canonicalize it."""
    prompt = render_prompt(PromptKind.CATEGORY_INDUCTION, ctx, provider.config.max_prompt_bytes)
    raw = provider.complete(prompt, seed=ctx.seed, temperature=DETERMINISTIC_TEMPERATURE)
    return canonical_label(raw)


def reflect(provider: Provider, ctx: PromptContext) -> tuple[str, str]:
    """One repair attempt conditioned on the failing code and its error."""
    prompt = render_prompt(PromptKind.REFLECTION, ctx, provider.config.max_prompt_bytes)
    raw = provider.complete(prompt, seed=ctx.seed, temperature=DETERMINISTIC_TEMPERATURE)
    return parse_generation(raw)
