"""Verification library for an explicit triangle-of-bisectors configuration
in the complex hyperbolic plane: construction from one real parameter,
inequality checks, group relation, Toledo invariant, Euler number side
test, cake combinatorics, and rigorous interval certification."""

from .numerics import (
    FAST,
    RIGOROUS,
    Certificate,
    ComplexBall,
    Interval,
    SignVerdict,
    TaylorBackend,
    certified_sign,
    certify_on_interval,
    get_backend,
    replay_certificate,
)
from .hermitian import (
    GramContext,
    Isometry,
    ProjVector,
    closest_axis_point,
    projectively_equal,
    reflection,
)
from .construction import (
    ParameterTriple,
    TriangleConfiguration,
    angles,
    build_configuration,
    build_gram,
    mirror_construction,
    solve_parameters,
)
from .verification import (
    ConditionReport,
    certify_range,
    evaluate_conditions,
    euler_side_test,
    invariant_ledger,
    scan,
    toledo,
    verify_all,
)
from .cake import build_cake, h5_presentation_check, realize_word

__version__ = "0.1.0"
