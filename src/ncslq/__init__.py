"""Finite-horizon LQ control of networked multi-subsystem plants with
multiplicative noise and Bernoulli packet-dropout uplinks.

Pipeline: define/validate a model, assemble the stacked matrices, solve the
coupled backward recursions, synthesize the gain schedule, then evaluate it
either by Monte Carlo simulation or by the exact moment-propagation oracle.
"""
from .model import (DefinitenessViolation, DimensionMismatch, ModelError,
                    NetworkModel, ProbabilityOutOfRange, StackedModel,
                    SubsystemModel, ValidatedModel, load_config,
                    model_from_dict, model_to_dict, stack, validate)
from .riccati import (CRESolution, RiccatiError, SingularLambda, SingularPi,
                      check_definiteness, solve_cre)
from .synthesis import GainSchedule, gains, optimal_cost
from .oracle import (cost_gradient, costate_moments, exact_cost,
                     stationarity_check)
from .simulator import (SimulationSummary, SimulationTrace, decay_time,
                        simulate, sweep_dropout)

__all__ = [name for name in dir() if not name.startswith("_")]
