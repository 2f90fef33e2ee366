"""fankit: binary words, decidable sets, trees, bars, and query functionals
on Cantor space, with oracle-parameterized reductions, exhaustive desk-scale
checks, and replayable certificates."""

__version__ = "0.1.0"

from .words import (EMPTY, ONE, ZERO, Seq, Word, concat, format_word,
                    is_all_one, is_all_zero, iter_level, level, lex_less,
                    parse_word, restrict, word)
from .sets import (DSet, Outcome, Verdict, bar_verdict, bit_at, closure,
                   complement, convexity_verdict, count_ones_ge, dset,
                   empty_set, finite_set, full_set, has_prefix, interior,
                   intersect_sets, len_ge, least_uniform_bound, restrict_set,
                   uniform_bound, union_sets)
from .trees import (PathGen, complete, escape_witness,
                    find_path_convex_unique, has_descendant, is_infinite_to,
                    is_summit, members_at, survival, survival_verdict,
                    survivor_width, tree)
from .oracles import (LLPOOracle, Parity, WKLOracle, llpo_bounded,
                      llpo_bounded_oracle, llpo_from_path_oracle,
                      llpo_probe_tree, lpl_from_wkl, wkl_from_llpo,
                      wkl_oracle_from_llpo)
from .fan import (Bar, FanOracle, coconvex_bound, fan_bruteforce, fan_from_lpl,
                  minimal_witness, wkl_unique_from_fan)
from .continuity import (ConstancyVerdict, DecoVerdict, DefuVerdict,
                         Functional, Leaf, Node, ProgramFunctional,
                         bar_from_pc, bound_of, cfan_bound, deco_decide,
                         defu_set_from_functional, defu_via_wkl, eval_traced,
                         eval_word, evaluate, functional_from_bar,
                         functional_from_defu, is_constant, materialize,
                         path_modulus, pointwise_modulus, query_depth,
                         replay, residual, uc_bound_bruteforce, uc_via_fan)
from .errors import (BudgetExceededError, CertificateError, FankitError,
                     FuelError, InconsistencyError, OutOfRangeError,
                     PreconditionError, WitnessError)
