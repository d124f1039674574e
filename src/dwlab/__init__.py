"""Domain-wall laboratory.

Computation, classification and continuation of traveling-rotating domain
walls of the magnetization dynamics on a nanowire: the coherent-structure
ODE and its blow-up charts, regime classification and stability curves,
Melnikov splitting of the homogeneous wall family, chart Hamiltonians with
the energy-gap expansion, shooting, collocation-based heteroclinic
continuation, and PDE time integration with the freezing method.
"""

__version__ = "0.1.0"

from .charts import (PI, ZERO, ChartCoefficients, ChartEquilibrium, ChartId,
                     chart_coefficients, chart_equilibria, chart_flow,
                     homogeneous_profile, homogeneous_speed_frequency)
from .classify import (Regime, ReflectedParams, StabilityVerdict,
                       classify_regime, eigenvalues_homogeneous,
                       reflect_frame, reflect_parameters,
                       reflect_profile_state, simultaneous_center,
                       stability_verdict, standing_wall_condition,
                       thresholds)
from .continuation import (Branch, BranchPoint, BvpConfig, Profile,
                           build_bvp, continue_branch, newton_solve,
                           solve_regime, termination_boundary)
from .energy import (QuadraticForm2, center_frequency, hamiltonian,
                     hamiltonian_gradient, htilde_measured, htilde_quadratic,
                     periodic_neighborhood, tail_oscillation_coefficients)
from .errors import *  # noqa: F401,F403
from .freezing import (FreezeSeries, LineState, dt_max, freeze_step,
                       initial_wall, pde_rhs, run_selection)
from .melnikov import (MelnikovIntegrals, SplittingMatrix,
                       determinant_identity_check, melnikov_integrals_closed,
                       melnikov_integrals_closed_corrected,
                       melnikov_integrals_quadrature, splitting_matrix,
                       splitting_value)
from .model import (ChartState, MaterialParams, SingularState, SphereState,
                    WaveFrame, blow_down, desingularized_rhs,
                    local_wavenumber, singular_rhs)
from .shooting import (TailVerdict, Trajectory, classify_tail, integrate,
                       shoot_to_pi_chart, unstable_seed)
