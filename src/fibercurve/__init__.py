"""Exact-arithmetic toolkit for the curve family y^s = x(a x^r + b) and
the fiber curves attached to prescribed x-coordinate configurations."""

from .arith import (
    CyclotomicElement,
    format_rational,
    integer_nth_root,
    is_sth_power,
    parse_rational,
)
from .birat import (
    CurveWithPoints,
    LiftObstruction,
    SingularSystemError,
    from_fiber_point,
    solve_ab,
    to_fiber_point,
)
from .config import Config, InvalidConfigError, Regime, classify, validate
from .conic import (
    ConicModel,
    NoRationalPointError,
    enumerate_curves,
    find_base_point,
    parametrize,
)
from .family import (
    AffinePoint,
    FamilyCurve,
    contains,
    family_genus,
)
from .fiber import (
    FiberEquation,
    FiberSystem,
    MembershipReport,
    OrderCapExceeded,
    ProjPoint,
    TrivialPointCertificate,
    build_fiber,
    det_form,
    fiber_genus,
    gonality_lower_bound,
    on_fiber,
    smooth_at,
    trivial_points,
)
from .search import (
    SearchReport,
    search_ab,
)

__version__ = "0.1.0"
