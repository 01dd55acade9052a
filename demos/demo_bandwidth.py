#!/usr/bin/env python3
"""Bandwidth accounting: run each protocol over the in-process loopback and
compare the measured transcript against the closed-form message sizes.

Uses 512-bit keys so the demo finishes quickly; at the production modulus
(2048 bits) the same transcripts land on the published estimates, e.g.
~15 KiB per regression request at d=30 and ~56 KiB each way for core SVM
at ell=111 (see tests/test_acceptance.py, criterion 7, or run
`pinfer bench --protocol svm-core`).

Run: python demos/demo_bandwidth.py
"""

from pinfer import keygen
from pinfer.linear import FeatureVector, LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkSpec
from pinfer.numutil import insecure_rng
from pinfer.runner import prepare_served, run_inference, serve_loopback
from pinfer.wire import Transcript, plan_bits

rng = insecure_rng(4)
KAPPA, PRECISION, D = 40, 12, 8
ELL_M = 512

client_keys = keygen(ELL_M, rng)
server_keys = keygen(ELL_M, rng)

linear = LinearModel.from_real([rng.uniform(-1, 1) for _ in range(D)],
                               bias=0.1, precision=PRECISION)
net = NetworkSpec.from_real(
    [([[rng.uniform(-1, 1) for _ in range(D + 1)] for _ in range(D)], "relu")
     for _ in range(3)], PRECISION)

RUNS = [
    ("regr-core", LoadedModel("logistic", linear, KAPPA), False,
     dict(d=D)),
    ("regr-dual", LoadedModel("linear", linear, KAPPA), True,
     dict(d=D)),
    ("svm-core", LoadedModel("svm", linear, KAPPA), True,
     dict(d=D, ell=linear.ell)),
    ("svm-heur", LoadedModel("svm", linear, KAPPA), False,
     dict(d=D)),
    ("ffnn-generic", LoadedModel("ffnn", net, KAPPA), False,
     dict(layers=3, units=D)),
]

x = FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(D)], PRECISION)

print(f"{'protocol':14}{'cts up':>8}{'cts down':>10}{'bytes up':>10}"
      f"{'bytes down':>12}{'rounds':>8}   closed-form cts")
for protocol, loaded, needs_keys, plan_args in RUNS:
    transcript, publish = Transcript(), Transcript()
    served = prepare_served(protocol, loaded,
                            server_keys if needs_keys else None, KAPPA, rng)
    channel, _ = serve_loopback(served)
    try:
        run_inference(channel, protocol, x, client_keys, kappa=KAPPA, rng=rng,
                      transcript=transcript, publish_transcript=publish)
    finally:
        channel.close()
    stats = transcript.stats()
    predicted = plan_bits(protocol, ELL_M, **plan_args)
    per_ct = 2 * ELL_M  # bits per ciphertext
    print(f"{protocol:14}{transcript.ciphertexts('up'):>8}"
          f"{transcript.ciphertexts('down'):>10}"
          f"{stats['bytes_up']:>10,}{stats['bytes_down']:>12,}"
          f"{stats['round_trips']:>8}   "
          f"up={predicted['up'] // per_ct}, down={predicted['down'] // per_ct}")
    if publish.entries:
        print(f"{'':14}model fetch: {publish.stats()['bytes_down']:,} bytes "
              f"({publish.ciphertexts('down')} ciphertexts)")
