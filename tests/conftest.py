import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

import pytest

from cdeoh import llm
from cdeoh.llm import ScriptedProvider, wrap_generation
from cdeoh.problems import BenchmarkSuite, ObpInstance

# A tiny OBP instance with a controllable quality ladder: with unit items
# and capacity 6, the threshold program below stops reusing a bin once its
# remaining capacity drops to T, so bins close at load 6 - T and the bin
# count is exactly 60 / (6 - T).
LADDER_ITEMS = 60
LADDER_CAPACITY = 6
LADDER_LOWER_BOUND = 10  # = 60 / 6

# threshold T -> (bins, gap%)
LADDER_TABLE = {0: (10, 0.0), 1: (12, 20.0), 2: (15, 50.0),
                3: (20, 100.0), 4: (30, 200.0), 5: (60, 500.0)}


def ladder_instance() -> ObpInstance:
    return ObpInstance(capacity=LADDER_CAPACITY, items=(1,) * LADDER_ITEMS)


def ladder_suite() -> BenchmarkSuite:
    return BenchmarkSuite(task="obp", instances=(ladder_instance(),), labels=("ladder",))


def ladder_program(t: int) -> str:
    if t == 0:
        return "return 0 - (cap_remaining - item)"
    return (f"return where((cap_remaining > {t}), "
            "0 - (cap_remaining - item), log(0 - cap_remaining))")


def ladder_fitness(t: int) -> float:
    return -LADDER_TABLE[t][1]


def ladder_response(t: int, thought: str | None = None) -> str:
    return wrap_generation(thought or f"keep bins below threshold {t}", ladder_program(t))


BROKEN_CODE_RESPONSE = wrap_generation("confused idea", "return frobnicate(item)")
NO_CODE_RESPONSE = "{an idea} without any code fence"


class CountingProvider(ScriptedProvider):
    """A scripted provider that counts the calls of each prompt kind."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kinds_called: list[str] = []  # list.append is atomic

    def calls_made(self, kind) -> int:
        return self.kinds_called.count(llm.PromptKind(kind).value)

    def complete(self, prompt: str, seed: int = 0, temperature: float | None = None) -> str:
        self.kinds_called.append(llm.prompt_key_of(prompt)[0].value)
        return super().complete(prompt, seed, temperature)


class TranscriptBuilder:
    """Collects responses and assigns per-kind monotone indices."""

    def __init__(self):
        self.entries: list[tuple[str, int, str]] = []
        self._counters: dict[str, int] = {}

    def add(self, kind, response: str) -> "TranscriptBuilder":
        kind = llm.PromptKind(kind).value
        index = self._counters.get(kind, 0)
        self._counters[kind] = index + 1
        self.entries.append((kind, index, response))
        return self

    def add_many(self, kind, responses) -> "TranscriptBuilder":
        for r in responses:
            self.add(kind, r)
        return self

    def provider(self, tmp_path) -> CountingProvider:
        path = Path(tmp_path) / "transcript.jsonl"
        llm.write_transcript(path, self.entries)
        return CountingProvider(path)

    def write(self, path) -> Path:
        llm.write_transcript(path, self.entries)
        return Path(path)


@pytest.fixture
def scripted(tmp_path):
    def build(builder: TranscriptBuilder) -> CountingProvider:
        return builder.provider(tmp_path)
    return build
