"""Two-party privacy-preserving inference over additively homomorphic encryption.

A server holds a trained linear, logistic, SVM or small feed-forward model;
a client holds a private feature vector. The protocols here compute the
prediction with one request/response round trip per protocol stage, using
only the Paillier cryptosystem. See README.md for the protocol catalogue and
the security caveats of the heuristic variants.
"""

from .errors import (DecryptionError, DimensionMismatchError, KeyMismatchError,
                     MessageFormatError, ParameterError, PinferError,
                     ProtocolViolationError)
from .fixedpoint import DEFAULT_PRECISION, decode, encode
from .paillier import Ciphertext, PublicKey, SecretKey, keygen
from .comparison import bit_owner_finish, bit_owner_request, evaluator_respond
from .linear import (DEFAULT_KAPPA, FeatureVector, LinearModel,
                     PublishedLinearModel, max_core_ell, regr_core_finish,
                     regr_core_request, regr_core_respond, regr_dual_finish,
                     regr_dual_publish, regr_dual_request, regr_dual_respond,
                     svm_core_finish, svm_core_request, svm_core_respond,
                     svm_heur_finish, svm_heur_request, svm_heur_respond)
from .network import (InferenceResult, NetworkClientSession, NetworkServerSession,
                      NetworkSpec, evaluate_network)
from .reference import Prediction, eval_ffnn, eval_linear, eval_logistic, eval_svm
from .wire import Transcript

__version__ = "0.1.0"

__all__ = [
    "DecryptionError", "DimensionMismatchError", "KeyMismatchError",
    "MessageFormatError", "ParameterError", "PinferError",
    "ProtocolViolationError",
    "DEFAULT_PRECISION", "decode", "encode",
    "Ciphertext", "PublicKey", "SecretKey", "keygen",
    "bit_owner_finish", "bit_owner_request", "evaluator_respond",
    "DEFAULT_KAPPA", "FeatureVector", "LinearModel", "PublishedLinearModel",
    "max_core_ell", "regr_core_finish", "regr_core_request", "regr_core_respond",
    "regr_dual_finish", "regr_dual_publish", "regr_dual_request",
    "regr_dual_respond", "svm_core_finish", "svm_core_request",
    "svm_core_respond", "svm_heur_finish", "svm_heur_request", "svm_heur_respond",
    "InferenceResult", "NetworkClientSession", "NetworkServerSession", "NetworkSpec",
    "evaluate_network",
    "Prediction", "eval_ffnn", "eval_linear", "eval_logistic", "eval_svm",
    "Transcript",
    "__version__",
]
