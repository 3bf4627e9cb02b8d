"""Finite-scale laboratory for non-autonomous dynamics on [0, 1] and the circle.

A family of invertible maps f_1, f_2, ... generates the two-sided flow
omega_n = f_n o ... o f_1 (identity at n = 0, inverses for n < 0).  This
package evaluates flows, samples orbits and truncated orbital hulls, decides
rotation-family questions in exact rational arithmetic, and reports
finite-scale evidence for the classical dynamical properties (periodicity,
almost periodicity, equicontinuity, sensitivity, transitivity, minimality).
"""

from .errors import (
    BudgetError,
    ConstructionError,
    DomainError,
    NaadsError,
    PreconditionError,
    SchemaError,
    UnknownNameError,
)
from .exact import (
    HullDisplacements,
    PeriodicityResult,
    RationalAngle,
    RationalRotationFamily,
    exact_density_gap,
    exact_hull_displacements,
    exact_periodicity,
)
from .flow import (
    DEFAULT_HORIZON,
    FlowCache,
    HullSample,
    MapFamily,
    block_family,
    hull_sample,
    omega,
    orbit_window,
)
from .maps import (
    CircleRotation,
    Composite,
    Homeomorphism,
    PiecewiseLinear,
    PowerMap,
    Reflection,
)
from .report import (
    PropertyReport,
    ProximalExtremes,
    ReturnTimeSet,
    Verdict,
    Witness,
    format_value,
)
from .space import (
    Space,
    diameter,
    metric,
    nearest_distance,
    net_centers,
    uniform_grid,
    wrap_circle,
)
from .checkers import (
    almost_periodicity_report,
    ap_propagation_check,
    dichotomy_scan,
    equicontinuity_modulus,
    hull_closure_equality,
    hull_periodicity_property,
    li_yorke_classify,
    minimality_certificate,
    orbit_density,
    periodicity_check,
    proximal_liminf,
    r_transitivity_check,
    return_time_set,
    sensitivity_at_point,
    transitivity_scan,
    replay_witness,
    uniform_ap_report,
)
from .corpus import CORPUS_NAMES, CorpusEntry, corpus

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CORPUS_NAMES",
    "CircleRotation",
    "Composite",
    "ConstructionError",
    "CorpusEntry",
    "DEFAULT_HORIZON",
    "DomainError",
    "FlowCache",
    "Homeomorphism",
    "HullDisplacements",
    "HullSample",
    "MapFamily",
    "NaadsError",
    "PeriodicityResult",
    "PiecewiseLinear",
    "PowerMap",
    "PreconditionError",
    "PropertyReport",
    "ProximalExtremes",
    "RationalAngle",
    "RationalRotationFamily",
    "Reflection",
    "ReturnTimeSet",
    "SchemaError",
    "Space",
    "UnknownNameError",
    "Verdict",
    "Witness",
    "almost_periodicity_report",
    "ap_propagation_check",
    "block_family",
    "corpus",
    "diameter",
    "dichotomy_scan",
    "equicontinuity_modulus",
    "exact_density_gap",
    "exact_hull_displacements",
    "exact_periodicity",
    "format_value",
    "hull_closure_equality",
    "hull_periodicity_property",
    "hull_sample",
    "li_yorke_classify",
    "metric",
    "minimality_certificate",
    "nearest_distance",
    "net_centers",
    "omega",
    "orbit_density",
    "orbit_window",
    "periodicity_check",
    "proximal_liminf",
    "r_transitivity_check",
    "replay_witness",
    "return_time_set",
    "sensitivity_at_point",
    "transitivity_scan",
    "uniform_ap_report",
    "uniform_grid",
    "wrap_circle",
]
