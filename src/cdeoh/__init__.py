"""Category-diverse evolutionary search over executable priority-function heuristics."""

from cdeoh.dsl import EvalError, ParseError, Program, Value, evaluate, parse, render_grammar
from cdeoh.evolution import (
    Candidate,
    EvolutionConfig,
    EvolutionEngine,
    Population,
    RunState,
    joint_score,
    select_next_generation,
)
from cdeoh.llm import PromptContext, PromptKind, ProviderConfig, make_provider
from cdeoh.problems import (
    BenchmarkSuite,
    CandidateFailure,
    EvalReport,
    ObpInstance,
    TspInstance,
    evaluate_candidate,
    gen_obp,
    gen_tsp,
    make_obp_suite,
    make_tsp_suite,
    obp_lower_bound,
    simulate_obp,
    simulate_tsp,
    tsp_reference,
)

__all__ = [
    "BenchmarkSuite",
    "Candidate",
    "CandidateFailure",
    "EvalError",
    "EvalReport",
    "EvolutionConfig",
    "EvolutionEngine",
    "ObpInstance",
    "ParseError",
    "Population",
    "Program",
    "PromptContext",
    "PromptKind",
    "ProviderConfig",
    "RunState",
    "TspInstance",
    "Value",
    "evaluate",
    "evaluate_candidate",
    "gen_obp",
    "gen_tsp",
    "joint_score",
    "make_obp_suite",
    "make_provider",
    "make_tsp_suite",
    "obp_lower_bound",
    "parse",
    "render_grammar",
    "select_next_generation",
    "simulate_obp",
    "simulate_tsp",
    "tsp_reference",
]

__version__ = "0.1.0"
