"""Two-party privacy-preserving inference over additively homomorphic encryption.

A server holds a trained linear, logistic, SVM or small feed-forward model;
a client holds a private feature vector. The protocols here compute the
prediction with one request/response round trip per protocol stage, using
only the Paillier cryptosystem. See README.md for the protocol catalogue and
the security caveats of the heuristic variants.
"""

from .linear import FeatureVector, LinearModel
from .paillier import keygen

__all__ = ["FeatureVector", "LinearModel", "keygen"]
