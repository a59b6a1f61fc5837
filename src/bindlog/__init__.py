"""Logic kernel for a predicate logic whose function and predicate symbols
bind variables in their arguments.

The modules imported here are the trusted base, the code a `check-proof`
verdict rests on, with `errors` through them: syntax (named-binder terms
and propositions), proofs (sequent calculus checkers, plain and modulo a
rewrite congruence), sigma (the sorted explicit-substitution layer and its
rewrite engine), precook (the translation between the two layers).

Outside it, imported on demand: models (intensional functional structures
and counter-model evaluation), gen (seeded random generators), cli (the
command-line frontend, which loads models only for its model commands).
"""

from . import precook, proofs, sigma, syntax  # noqa: F401
from .syntax import Signature, parse_prop, parse_term, parse_signature  # noqa: F401

__version__ = "0.1.0"
