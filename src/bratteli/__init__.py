"""Exact combinatorics of k-simple ordered Bratteli diagrams.

The library keeps every computation in integer or rational arithmetic:
validation of the simplicity and order axioms, telescoping, successor
dynamics on the path space, transition graphs and index vectors of the
remainder vertices, dimension group transport, order synthesis from
prescribed d-vectors, and chain dynamics at finite cylinder resolution.
"""

from ._report import (FAILS, HOLDS, UNKNOWN, Check, DiagramError,
                      ValidationReport, worst)
from .diagram import (DEFAULT_BUDGET, Diagram, Level, load_diagram,
                      parse_diagram, telescope, validate_unordered)
from .dynamics import (CylinderGraph, Diverges, TowerGraph, chain_transitive,
                       cover_steps, cylinder_graph, epsilon_chain,
                       pseudo_orbit, saturation_sets, saturation_sizes,
                       tower_graph)
from .ktheory import (IndexSet, bounded_norm_membership,
                      check_index_relations, class_is_zero, eq,
                      index_elements, is_positive, pushforward,
                      rational_rank_lower_bound)
from .order import (MAX, MIN, ExtremeChains, MarkerTable, Path,
                    enumerate_paths, extreme_chains, extreme_path, make_path,
                    marker_level, path_text, pointer_map, validate_ordered)
from .realize import (DVectors, Multigraph, NoWalk, euler_walk,
                      graphs_from_dvectors, load_dvectors, parse_dvectors,
                      synthesize_order)
from .transgraph import (TransitionGraph, check_structure, dvector_matrix,
                         dvectors, index_pushforward, lift_edge_to_path,
                         other_block, transition_graph)
from .vershik import (Maximal, Minimal, StepImage, orbit, predecessor,
                      successor, traversal_matrix, vershik_step)

__all__ = [name for name in dir() if not name.startswith("_")]
