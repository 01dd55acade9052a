#!/usr/bin/env python3
"""Private evaluation of a small feed-forward network, three ways:

* generic mode - the client applies activations in the clear (sees every
  pre-activation value);
* encrypted core mode - sign/relu units are evaluated under encryption, one
  communication round per hidden layer, pre-activations hidden;
* encrypted heuristic mode - one ciphertext per unit per direction.

Run: python demos/demo_network.py
"""

from pinfer import keygen
from pinfer.linear import FeatureVector
from pinfer.network import NetworkSpec, evaluate_network
from pinfer.numutil import insecure_rng
from pinfer.reference import eval_ffnn
from pinfer.wire import Transcript

rng = insecure_rng(3)
KAPPA = 40

client_keys = keygen(512, rng)
server_keys = keygen(512, rng)

# A 2-3-1 network with relu hidden units and a relu output head, small
# integer weights (precision 0 keeps the demo arithmetic easy to follow).
spec = NetworkSpec.from_integer(
    [([(1, 2, -1), (0, 1, 1), (-2, -1, 2)], "relu"),
     ([(1, 1, -1, 2)], "relu")])
# Relu keeps values at their accumulated fixed-point scale (there is no
# homomorphic rescaling), so with fractional weights each layer's bound
# length ell grows; at precision 0 the growth comes from magnitude alone.
print("2-3-1 relu network; per-layer bound lengths:",
      [layer.ell for layer in spec.layers])

x = FeatureVector((1, 1, -1), 0)
oracle = eval_ffnn(spec, x)
print(f"\nplaintext oracle output: {oracle[0].raw}")

for mode, variant in (("generic", "core"), ("encrypted", "core"),
                      ("encrypted", "heuristic")):
    transcript = Transcript()
    run = evaluate_network(spec, mode, x, client_keys, server_keys, KAPPA,
                           variant=variant, rng=rng, transcript=transcript)
    messages = len(transcript.entries)
    print(f"{mode}/{variant}: output {run.raw[0]}, {messages} messages, "
          f"{transcript.round_trips} round trips "
          f"({transcript.ciphertexts('up')} cts up, "
          f"{transcript.ciphertexts('down')} cts down)")
    assert run.raw == tuple(p.raw for p in oracle)

# A sign (binarised) network with the activated-output flag: the client
# receives only the encrypted class, never the output-layer raw signal.
binarised = NetworkSpec.from_integer(
    [([(0, 1, 1), (-1, 1, -1)], "sign"), ([(0, 1, -2)], "sign")],
    output_mode="activated")
run = evaluate_network(binarised, "encrypted", x, client_keys, server_keys,
                       KAPPA, rng=rng)
print(f"\nbinarised net, activated output: class {run.labels[0]:+d}, "
      f"pre-activations withheld (raw={run.raw})")
