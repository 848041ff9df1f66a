"""Degenerate Euler polynomials, degenerate gamma, and degenerate Euler zeta.

Exact rational cores (`exactcore`), floating-point engines (`numerics`),
the special functions themselves (`gammadeg`, `zetadeg`), named
verification suites (`verify`), and a CLI (`cli`, installed as `degzeta`).
"""

from .exactcore import (
    PolyRational,
    TruncatedSeries,
    check_alternating_sum_identity,
    euler_poly_classic,
    euler_poly_deg,
    ffd,
    series_oracle,
)
from .gammadeg import (
    ResidueValue,
    funceq_chain_residual,
    funceq_residual,
    gamma_classical,
    gamma_deg,
    gamma_deg_closed,
    gamma_deg_residue,
    residue_closed_form,
)
from .numerics import (
    DomainError,
    NonConvergentError,
    QuadConfig,
    QuadResult,
    euler_transform_sum,
    richardson_limit,
)
from .verify import VerifyReport, run_suite
from .zetadeg import (
    DiscrepancyReport,
    discrepancy_experiment,
    euler_zeta,
    euler_zeta_mellin,
    zeta_deg,
    zeta_deg_continued,
    zeta_deg_int,
    zeta_deg_mellin,
    zeta_deg_neg,
    zeta_deg_neg_plain,
)

__version__ = "0.1.0"

__all__ = [
    "DiscrepancyReport",
    "DomainError",
    "NonConvergentError",
    "PolyRational",
    "QuadConfig",
    "QuadResult",
    "ResidueValue",
    "TruncatedSeries",
    "VerifyReport",
    "check_alternating_sum_identity",
    "discrepancy_experiment",
    "euler_poly_classic",
    "euler_poly_deg",
    "euler_transform_sum",
    "euler_zeta",
    "euler_zeta_mellin",
    "ffd",
    "funceq_chain_residual",
    "funceq_residual",
    "gamma_classical",
    "gamma_deg",
    "gamma_deg_closed",
    "gamma_deg_residue",
    "residue_closed_form",
    "richardson_limit",
    "run_suite",
    "series_oracle",
    "zeta_deg",
    "zeta_deg_continued",
    "zeta_deg_int",
    "zeta_deg_mellin",
    "zeta_deg_neg",
    "zeta_deg_neg_plain",
]
