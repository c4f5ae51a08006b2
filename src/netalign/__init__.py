"""Rate decisions and precoding schemes for three coded unicast sessions.

Given a DAG carrying three unicast sessions under random linear network
coding, this package decides from the topology alone which symmetric rate
(1/3, 2/5 or 1/2) precoding can reach, builds the matching scheme, and
verifies it by exact end-to-end simulation over GF(2^m).
"""

from importlib import resources

from .dag import (
    Edge,
    ModelViolationError,
    Scenario,
    ScenarioParseError,
    Session,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .feasibility import (
    CouplingReport,
    NetworkType,
    classify,
    cross_check_verdicts,
    reduced_structure,
    report_identity_flags,
)
from .gf2m import Field, InconsistentSystemError, Matrix, ZeroInverseError, field
from .pbna import (
    EvaluatedScheme,
    PrecodingPlan,
    SimulationResult,
    build_plan,
    check_alignment,
    check_rank,
    evaluate_precoding,
    propagate,
    simulate,
)
from .xfer import (
    CodingAssignment,
    ResampleLimitError,
    SparsePoly,
    TooLargeError,
    oracle_coupling_verdicts,
    oracle_session_polys,
    oracle_transfer_poly,
)

__version__ = "0.1.0"


def corpus_names():
    """Names of the bundled scenario files."""
    root = resources.files(__name__).joinpath("corpus")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".scn"))


def load_corpus(name: str) -> Scenario:
    """Parse one bundled scenario by name (without the .scn suffix)."""
    text = resources.files(__name__).joinpath("corpus", f"{name}.scn").read_text()
    return parse_scenario(text)
