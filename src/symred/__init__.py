"""Symbolic-numeric toolkit for symmetry reduction of differential
equations: jet-space prolongation, classical/conditional/
higher-order invariance checks, ansatz substitution and reduction,
transformation-pair verification, and numeric validation of exact and
implicit solutions, driven by the line-oriented ``.prob`` bundle format.
"""

from .expr import (
    Add, DomainFault, Expr, ExprError, Func, IterationCapExceeded, Jet, Mul,
    Num, Opaque, OpaqueInstance, Param, ParameterBinding, Pow, UnboundSymbol,
    Var, add, atoms, diff_partial, eval_numeric, expand, func, mul, opaque,
    pow_, simplify, substitute,
)
from .zerotest import Constraint, Result, is_zero
from .jets import (
    CanonicalOperator, InsufficientProlongationOrder, JetSpace, ProlongedField,
    VectorField, apply_operator, prolong, total_derivative,
    total_derivative_multi,
)
from .systems import ConflictingConstraints, EquationSystem, restrict_to_manifold
from .checks import (
    NoveltyDiagnostic, check_classical, check_conditional, check_lie_backlund,
    constraint_system, invariant_surface_conditions, novelty_diagnostic,
)
from .linalg import SingularImplicitSystem, gaussian_eliminate
from .reduce import (
    Ansatz, AnsatzFrame, BacklundRelation, ansatz_derivatives,
    check_overdetermined, derive_reduction, systems_equivalent,
    verify_backlund, verify_reduction,
)
from .numeric import (
    NoConvergence, SamplePlan, SolutionForm, ToleranceNotMet,
    newton_system, quadrature, quadrature_instance, residual_explicit,
    residual_fd, residual_implicit, solve_implicit,
)
from .parser import (
    ParseError, SymbolContext, UndeclaredSymbol, parse_equation,
    parse_expression, print_equation, print_expression,
)
from .problems import (
    DuplicateName, MalformedSection, ProblemBundle, SolutionSpec,
    load_problem, parse_problem,
)

__version__ = "0.1.0"
