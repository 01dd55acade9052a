#!/usr/bin/env python3
"""Private linear/logistic regression, step by step.

A client holds a feature vector, a server holds the trained model. The
client learns the prediction; the server learns nothing. One request, one
response. Run: python demos/demo_regression.py
"""

from pinfer import keygen
from pinfer.fixedpoint import decode
from pinfer.linear import (FeatureVector, LinearModel, regr_core_finish,
                           regr_core_request, regr_core_respond,
                           regr_dual_finish, regr_dual_publish,
                           regr_dual_request, regr_dual_respond)
from pinfer.numutil import insecure_rng
from pinfer.reference import eval_linear, eval_logistic

rng = insecure_rng(1)  # deterministic demo; use the default secure RNG in production

# --- the two parties' inputs --------------------------------------------
# Server: a logistic-regression model over 4 features, weights in [-1, 1].
# Client: a private feature vector, rescaled into [-1, 1].
PRECISION = 24  # fractional bits of the fixed-point encoding

model = LinearModel.from_real([0.8, -0.5, 0.3, 0.1], bias=-0.2,
                              precision=PRECISION)
x = FeatureVector.from_real([0.9, 0.4, -0.7, 0.2], precision=PRECISION)
print(f"model: d={model.d}, precision P={model.precision}, bound length ell={model.ell}")

# --- core mode: everything under the client's key -----------------------
print("\n[core mode] client encrypts features under its own key")
pk_client, sk_client = keygen(512, rng)  # 512-bit keys: demo scale only

request, precision = regr_core_request(pk_client, x, rng)
print(f"  client -> server: {len(request.ciphertexts)} ciphertexts "
      "(the fixed coordinate x_0 = 1 is never sent)")

t_ct = regr_core_respond(model, request, rng)
print("  server -> client: one ciphertext with the encrypted inner product")

# The inner product of two P-bit-scaled vectors carries scale 2**(2P).
raw = sk_client.decrypt(t_ct)
print(f"  client decrypts t = {raw}  (= {decode(raw, 2 * PRECISION):+.6f} decoded)")
assert raw == eval_linear(model, x).raw  # exact, not approximate

prediction = regr_core_finish(sk_client, t_ct, precision, activation="sigmoid")
print(f"  sigmoid(t) = {prediction:.6f}   (oracle: {eval_logistic(model, x).value:.6f})")

# Any injective link function works the same way: the client recovers t and
# applies it locally, so returning t instead of g(t) leaks nothing extra.
for g in ("identity", "tanh", "softsign"):
    request, precision = regr_core_request(pk_client, x, rng)
    value = regr_core_finish(sk_client, regr_core_respond(model, request, rng),
                             precision, activation=g)
    print(f"  with g = {g:9s}: {value:+.6f}")

# --- dual mode: the server publishes its model encrypted ----------------
print("\n[dual mode] server publishes the model under its own key, once")
pk_server, sk_server = keygen(512, rng)
published = regr_dual_publish(model, pk_server, rng)
print(f"  published artifact: {len(published.ciphertexts)} ciphertexts + public key")

# Per query the client homomorphically evaluates theta.x and masks it with a
# fresh uniform value, so the server decrypts pure noise.
masked_ct, dual_session = regr_dual_request(published, x, rng)
t_star = regr_dual_respond(sk_server, masked_ct)
print(f"  server sees only the masked value t* = {t_star} (uniform residue)")

value = regr_dual_finish(dual_session, t_star, activation="identity")
print(f"  client unmasks: {value:+.6f}   (oracle: {eval_linear(model, x).value:+.6f})")
assert value == eval_linear(model, x).value
print("\nboth modes reproduce the plaintext oracle exactly")
