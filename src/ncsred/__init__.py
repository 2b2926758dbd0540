"""Red-team workbench for data-driven attacks on formation-control networks.

Simulates a multi-agent formation NCS and runs the attacker pipeline against
it: eavesdrop, identify a one-step operator, bound per-agent reach sets with
polytopes, inject bounded actuator signals to separate agents, recover the
communication structure, and sever the weakest link.
"""

from .attack import (AttackConfig, AttackDecision, DosPlan, plan_dos,
                     select_targets, synthesize_fdi)
from .dmd import DmdModel, SnapshotBuffer, fit
from .errors import (DegenerateGeometryError, EdgeNotFoundError,
                     InsufficientDataError, InvalidInputError, WorkbenchError)
from .graph import (Graph, algebraic_connectivity, is_connected, laplacian,
                    remove_edge)
from .harness import MetricsSummary, RunRecord, emit, metrics, run
from .laprec import (KroneckerModel, RecoveryResult, project_laplacian_cone,
                     recover)
from .ncs import (AgentModel, Scenario, control_inputs, reference,
                  stacked_closed_loop, step)
from .reachset import (AgentPolygon, InputPolytope, agent_polygon,
                       circumscribe_ball, polygon_distance, reach_support)
from .scenario_io import build_scenario, load_scenario

__version__ = "0.1.0"
