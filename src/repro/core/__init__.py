"""The paper's contribution: closed-form interpretation of PLMs behind APIs.

* :class:`OpenAPIInterpreter` — Algorithm 1: adaptive hypercube shrinking
  with the overdetermined-system consistency certificate (Section IV-C);
* :class:`NaiveInterpreter` — the determined-system method of Section IV-B,
  kept as the paper keeps it: a baseline that is exact only under the
  unverifiable ideal case;
* equation-system construction and the log-odds transform (Equation 2);
* result types shared by every interpretation method in the library.
"""

from repro.core.types import Attribution, CoreParameterEstimate, Interpretation
from repro.core.sampling import (
    sample_hypercube,
    instance_generator,
    HypercubeSampler,
)
from repro.core.equations import (
    log_odds,
    pairwise_log_odds_targets,
    build_pair_system,
    solve_all_pairs,
    PairSystemSolution,
)
from repro.core.engine import (
    EngineBenchReport,
    EngineBenchRow,
    reference_solve_all_pairs,
    run_engine_benchmark,
    solve_pair_systems_stacked,
)
from repro.core.rounds import (
    SolveRound,
    build_interpretation,
    run_solve_round,
    run_solve_rounds_batched,
)
from repro.core.naive import NaiveInterpreter
from repro.core.openapi import OpenAPIInterpreter
from repro.core.batch import BatchOpenAPIInterpreter, BatchResult
from repro.core.verification import VerificationReport, verify_interpretation

__all__ = [
    "SolveRound",
    "run_solve_round",
    "run_solve_rounds_batched",
    "build_interpretation",
    "solve_pair_systems_stacked",
    "reference_solve_all_pairs",
    "run_engine_benchmark",
    "EngineBenchReport",
    "EngineBenchRow",
    "Attribution",
    "CoreParameterEstimate",
    "Interpretation",
    "sample_hypercube",
    "instance_generator",
    "HypercubeSampler",
    "log_odds",
    "pairwise_log_odds_targets",
    "build_pair_system",
    "solve_all_pairs",
    "PairSystemSolution",
    "NaiveInterpreter",
    "OpenAPIInterpreter",
    "BatchOpenAPIInterpreter",
    "BatchResult",
    "VerificationReport",
    "verify_interpretation",
]
