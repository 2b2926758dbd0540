"""Red-team workbench for data-driven attacks on formation-control networks.

Simulates a multi-agent formation NCS and runs the attacker pipeline against
it: eavesdrop, identify a one-step operator, bound per-agent reach sets with
polytopes, inject bounded actuator signals to separate agents, recover the
communication structure, and sever the weakest link.
"""

from .attack import (AttackConfig, AttackDecision, DosPlan, plan_dos,
                     select_targets, selection_matrix, synthesize_fdi)
from .dmd import DmdModel, SnapshotBuffer, fit, predict
from .errors import (DegenerateGeometryError, EdgeNotFoundError,
                     InsufficientDataError, InvalidInputError, WorkbenchError)
from .graph import (Graph, add_edge, algebraic_connectivity, is_connected,
                    laplacian, remove_edge)
from .harness import MetricsSummary, RunRecord, emit, metrics, run
from .laprec import (KroneckerModel, RecoveryResult, project_laplacian_cone,
                     recover, solve_factor_steps)
from .ncs import (AgentModel, Scenario, StackedState, control_inputs,
                  double_integrator, reference, stacked_closed_loop, step)
from .reachset import (AgentPolygon, InputPolytope, agent_polygon,
                       circumscribe_ball, polygon_distance, reach_support)
from .scenario_io import build_scenario, load_scenario

__version__ = "0.1.0"
