"""Restricted exchangeable partitions, fragmentation trees, and their
scaling-limit experiments."""

__version__ = "0.1.0"

from .errors import (ArgumentError, ModelError, ResourceBudgetError,
                     UnsupportedCaseError)
from .partitions import (FiniteMeasureOnPartitions, Hierarchy, MassPartition,
                         Partition, all_partitions, block_size_multiset,
                         children_of, classify_exchangeability,
                         restrict_hierarchy, restrict_partition)
from .paintbox import (ConstrainedState, gnedin_constrained_run,
                       kingman_cylinder_prob, kingman_sample,
                       modified_paintbox_prob, modified_paintbox_sample)
from .dislocation import (DiscreteDislocation, SplittingRuleTable,
                          alphagamma_eppf, alphagamma_growth_split_oracle,
                          alphagamma_tree_distribution, consistency_residual,
                          eppf_recursion_residual, kappa_cylinder,
                          nu_mixture_weight, rate, rate_closed_form,
                          sample_split, sampling_consistency_residual,
                          skewed_pd_ranked_split, skewed_pd_splitting_table,
                          splitting_rule, table_to_eppf)
from .growth import (Tree, delete_leaf, delete_uniform_leaf, grow_alphagamma,
                     leaf_depths, mean_depth, reduced_tree,
                     sample_fragmentation_tree, sample_markov_branching,
                     special_branch_count, spine_depth, tree_height)
from .spine import (KnWindow, LevyAtoms, SubordinatorPath,
                    pjs_limit_functional, pjs_tail_statistic, renewal_moment,
                    sample_Kn, sample_reduced_crt, simulate_subordinator,
                    spinal_levy_measure)
from .treemetric import (DistanceMatrix, distance_matrix,
                         edge_convergence_experiment, fill_fraction,
                         gh_distance_rooted, gh_upper_bound, mass_within,
                         scaling_exponent)
from .harness import (ChiSquareReport, ExperimentConfig, chi_square_gof,
                      derive_seed, gof_gate, rng_for, run_experiment,
                      single_atom_model)
