"""Competition models in the chemostat.

Build a :class:`~chemostat.model.ChemostatModel`, normalize it, then either
certify global stability of the winning species' equilibrium
(:func:`~chemostat.certificates.certify`), integrate it
(:func:`~chemostat.dynamics.integrate`), or, for a single species, analyze
the phase plane (:mod:`chemostat.cycles`).
"""

from .certificates import (AnalyticRoute, CertificateReport, FiedlerHsuReport,
                           GapAnalysis, SignConditionResult, c_crit, certify,
                           check_fiedler_hsu, check_h11, check_h31,
                           check_monod_constant_yields,
                           check_monod_linear_yields, energy_constants,
                           gap_for_species, hsu_gap_for_species)
from .cycles import (Cycle, CycleResult, Landmarks, NoReturnError,
                     UnsupportedShapeError, find_cycles, landmarks, return_map)
from .dynamics import (AsymptoticReport, DecreaseReport, LyapunovSamples,
                       Trajectory, asymptotic_checks, integrate, lyapunov_hsu,
                       lyapunov_samples, lyapunov_wl, verify_decrease)
from .equilibria import (Equilibrium, NoEquilibriumError, enumerate_equilibria,
                         local_stability_e1)
from .expr import EvalError, ExprError, ParseError, UnknownIdentifierError
from .model import (BreakEven, ChemostatModel, ConstructionError, DomainError,
                    InvalidSpeciesError, ModelError, NotApplicableError,
                    Species, break_even, load_model, model_from_dict,
                    model_to_dict, monod_species, normalize, p1_curve,
                    vector_field)
from .rk45 import StiffnessError
from .scalarfn import (DifferenceFn, ExprFn, MonodFn, PolyFn, QuotientFn,
                       ScalarFn, as_scalar_fn)

__version__ = "0.1.0"
