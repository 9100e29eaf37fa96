"""Workbench for infinite-convolution measures with equidifferent digit sets.

The package models systems (N, {b_k}, {t_k}) with digit sets
D_k = {0, ..., N-1}·t_k, decides the integer-tiling predicate with explicit
complements, and constructs finite-level spectrum certificates with exact
verification.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    HorizonError,
    MoranError,
    ParseError,
    PreconditionError,
    ResourceError,
    UnsupportedCaseError,
)
from .numthy import ExactRational, Valuation, valuation
from .system import (
    MoranSystem,
    SequenceSpec,
    case_classify,
    distinctness_check,
    existence_check,
    normalize,
    s_value,
    spectral_hypothesis_check,
)
from .tiling import (
    aggregate,
    build_complement,
    tijdeman_scale_check,
    tile_predicate,
    verify_tiling,
)
from .fourier import (
    m_factor,
    mu_hat_k,
    mu_hat_shifted_grid,
    nu_hat_tail,
)
from .spectra import (
    SpectrumBlock,
    SpectrumBuildParams,
    SpectrumLevel,
    build_spectrum,
    q_grid_check,
    verify_orthogonal,
    verify_spectrum_finite,
    verify_tail_lower_bound,
)
from .config import SystemConfig, load_config, parse_config_text
from .certificates import verify_certificate

__all__ = [
    "DomainError",
    "ExactRational",
    "HorizonError",
    "MoranError",
    "MoranSystem",
    "ParseError",
    "PreconditionError",
    "ResourceError",
    "SequenceSpec",
    "SpectrumBlock",
    "SpectrumBuildParams",
    "SpectrumLevel",
    "SystemConfig",
    "UnsupportedCaseError",
    "Valuation",
    "aggregate",
    "build_complement",
    "build_spectrum",
    "case_classify",
    "distinctness_check",
    "existence_check",
    "load_config",
    "m_factor",
    "mu_hat_k",
    "mu_hat_shifted_grid",
    "normalize",
    "nu_hat_tail",
    "parse_config_text",
    "q_grid_check",
    "s_value",
    "spectral_hypothesis_check",
    "tijdeman_scale_check",
    "tile_predicate",
    "valuation",
    "verify_certificate",
    "verify_orthogonal",
    "verify_spectrum_finite",
    "verify_tail_lower_bound",
    "verify_tiling",
]
