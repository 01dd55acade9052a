"""Operator command line: key generation, model server, inference client,
plaintext oracle and bandwidth bench.

Exit codes: 0 success, 2 verification or count mismatch, 3 protocol
violation, a malformed message from the peer or a lost connection, 4
configuration error.

The heuristic protocols trade bandwidth for a documented model-information
leak; serving or querying them requires the explicit --heuristic flag.
512-bit keys are accepted only with --insecure-test-keys.
"""

from __future__ import annotations

import argparse
import socket
import socketserver
import sys
import threading

from . import numutil, reference, runner, wire
from .errors import (MessageFormatError, ParameterError, PinferError,
                     ProtocolViolationError)
from .linear import DEFAULT_KAPPA, FeatureVector, LinearModel, max_core_ell
from .modelfile import (LoadedModel, load_input_vector, load_key,
                        load_model, save_public_key, save_secret_key)
from .network import NetworkSpec
from .numutil import SYSTEM_RNG, insecure_rng
from .paillier import keygen

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 2
EXIT_PROTOCOL_VIOLATION = 3
EXIT_CONFIG = 4

KEY_BIT_CHOICES = (512, 2048, 3072)
TEST_KEY_BITS = 512


def _check_key_bits(bits: int, insecure_ok: bool) -> None:
    if bits == TEST_KEY_BITS and not insecure_ok:
        raise ParameterError(
            "512-bit keys are test-scale only; pass --insecure-test-keys")


def _load_keys(prefix: str):
    pk = load_key(prefix + ".pub.json")
    sk = load_key(prefix + ".key.json")
    if sk.public_key != pk:
        raise ParameterError(f"{prefix}: public and secret key files disagree")
    # The secret key's own public key is linked to the factors, so the key
    # holder's encryptions take the CRT path.
    return sk.public_key, sk


def _address(text: str) -> tuple[str, int]:
    """A ``host:port`` option as a socket address; an empty host is 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ParameterError(f"expected host:port with a port up to 65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _require_heuristic_ack(protocol: str, flagged: bool) -> None:
    if wire.get_protocol(protocol).variant == "heuristic" and not flagged:
        raise ParameterError(
            f"{protocol} leaks model information through reply magnitudes and "
            "has no formal security guarantee; pass --heuristic to accept that")


def cmd_keygen(args) -> int:
    _check_key_bits(args.bits, args.insecure_test_keys)
    rng = insecure_rng(args.seed) if args.seed is not None else None
    pk, sk = keygen(args.bits, rng)
    save_public_key(args.out + ".pub.json", pk)
    save_secret_key(args.out + ".key.json", sk)
    limit = max_core_ell(pk.n, args.kappa)
    print(f"wrote {args.out}.pub.json and {args.out}.key.json")
    print(f"modulus bits (l_M): {pk.bit_length}")
    print(f"max inner-product bound length for masked comparison at "
          f"kappa={args.kappa}: ell <= {limit}")
    return EXIT_OK


def _served_from_args(args) -> runner.ServedModel:
    loaded = load_model(args.model)
    _require_heuristic_ack(args.protocol, args.heuristic)
    server_keys = None
    if args.keys:
        server_keys = _load_keys(args.keys)
        _check_key_bits(server_keys[0].bit_length, args.insecure_test_keys)
    return runner.prepare_served(args.protocol, loaded, server_keys, args.kappa,
                                 rng=SYSTEM_RNG)


def cmd_serve(args) -> int:
    address = _address(args.listen)
    served = _served_from_args(args)

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.settimeout(runner.PEER_TIMEOUT_S)
            runner.serve_connection(runner.SocketChannel(self.request), served)

    slots = threading.BoundedSemaphore(runner.MAX_CONNECTIONS)

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

        def process_request(self, request, client_address):
            slots.acquire()  # the accept loop waits here while every slot is held
            try:
                super().process_request(request, client_address)
            except BaseException:  # no thread started, so none will release it
                slots.release()
                raise

        def process_request_thread(self, request, client_address):
            try:
                super().process_request_thread(request, client_address)
            finally:
                slots.release()

    try:
        server = Server(address, Handler)
    except OSError as exc:
        raise ParameterError(f"cannot listen on {args.listen}: {exc}") from None
    print(f"serving {args.protocol} ({served.loaded.model_type} model) "
          f"on {address[0]}:{address[1]}, powers in {numutil.BACKEND}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def _print_result(result: runner.InferenceResult) -> None:
    if result.labels is not None:
        print(" ".join(f"{label:+d}" for label in result.labels))
    else:
        print(" ".join(repr(v) for v in result.values))


def _oracle_prediction(loaded: LoadedModel, x) -> runner.InferenceResult:
    if loaded.model_type == "ffnn":
        preds = reference.eval_ffnn(loaded.model, x)
        labels = tuple(p.class_label for p in preds)
        return runner.InferenceResult(tuple(p.value for p in preds),
                                      labels if all(l is not None for l in labels) else None,
                                      tuple(p.raw for p in preds))
    evaluate = {"linear": reference.eval_linear,
                "logistic": reference.eval_logistic,
                "svm": reference.eval_svm}[loaded.model_type]
    pred = evaluate(loaded.model, x)
    labels = (pred.class_label,) if pred.class_label is not None else None
    return runner.InferenceResult((pred.value,), labels, (pred.raw,))


def _verify(result: runner.InferenceResult, loaded: LoadedModel, x) -> int:
    expected = _oracle_prediction(loaded, x)
    if result.labels is not None or expected.labels is not None:
        matches = result.labels == expected.labels
    else:
        matches = result.values == expected.values
    if not matches:
        print(f"VERIFY MISMATCH: protocol {result.values} vs oracle {expected.values}",
              file=sys.stderr)
        return EXIT_VERIFY_MISMATCH
    print("verify: matches the plaintext oracle")
    return EXIT_OK


def cmd_infer(args) -> int:
    _require_heuristic_ack(args.protocol, args.heuristic)
    if args.keys:
        client_keys = _load_keys(args.keys)
    else:
        _check_key_bits(args.bits, args.insecure_test_keys)
        client_keys = keygen(args.bits)
    _check_key_bits(client_keys[0].bit_length, args.insecure_test_keys)
    x = load_input_vector(args.input, args.precision, args.allow_unscaled)

    if args.loopback:
        if not args.model:
            raise ParameterError("--loopback needs --model to run the server side")
        serve_args = argparse.Namespace(model=args.model, protocol=args.protocol,
                                        heuristic=args.heuristic, keys=args.server_keys,
                                        kappa=args.kappa,
                                        insecure_test_keys=args.insecure_test_keys)
        served = _served_from_args(serve_args)
        channel, _ = runner.serve_loopback(served)
    else:
        if not args.server:
            raise ParameterError("pass --server host:port or --loopback")
        sock = socket.create_connection(_address(args.server), runner.PEER_TIMEOUT_S)
        channel = runner.SocketChannel(sock)

    try:
        result = runner.run_inference(channel, args.protocol, x, client_keys,
                                      kappa=DEFAULT_KAPPA if args.kappa is None else args.kappa)
    finally:
        channel.close()
    _print_result(result)
    if args.verify:
        return _verify(result, load_model(args.verify), x)
    return EXIT_OK


def cmd_oracle(args) -> int:
    loaded = load_model(args.model)
    x = load_input_vector(args.input, loaded.precision, args.allow_unscaled)
    _print_result(_oracle_prediction(loaded, x))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

def _synthetic_model(protocol: str, d: int, precision: int, layers: int,
                     rng) -> LoadedModel:
    def rows(units, fan_in):
        return [[rng.uniform(-1, 1) for _ in range(fan_in + 1)] for _ in range(units)]

    info = wire.get_protocol(protocol)
    # The last type a protocol serves: logistic for regression.
    model_type = info.model_types[-1]
    if model_type != "ffnn":
        weights = [rng.uniform(-1, 1) for _ in range(d)]
        return LoadedModel(model_type,
                           LinearModel.from_real(weights, rng.uniform(-1, 1), precision),
                           DEFAULT_KAPPA)
    defs = [(rows(d, d), info.activation or "relu") for _ in range(layers)]
    return LoadedModel("ffnn", NetworkSpec.from_real(defs, precision), DEFAULT_KAPPA)


def _bench_plan(protocol: str, d: int, loaded: LoadedModel) -> tuple[wire.MessageRow, ...]:
    """The closed-form rows of one query. The encrypted network rows are
    taken per hidden layer: the bound length grows with the accumulated
    scale, so a single-ell row would misestimate."""
    model, mode = loaded.model, wire.get_protocol(protocol).mode
    if mode is None:
        return wire.message_plan(protocol, d=d, ell=model.ell)
    if mode == "generic":
        return wire.message_plan(protocol, layers=model.depth, units=d)
    rows = [wire.MessageRow("input", "up", model.d_in)]
    for layer in model.layers[:-1]:
        rows += wire.message_plan(protocol, ell=layer.ell, layers=1, units=layer.units)
    rows.append(wire.MessageRow("output", "down", model.d_out))
    return tuple(rows)


def cmd_bench(args) -> int:
    rng = insecure_rng(args.seed if args.seed is not None else 0xBE7C4)
    print(f"generating {args.ell_m}-bit key pairs and a synthetic "
          f"{args.protocol} model (d={args.d}, P={args.precision})")
    client_keys = keygen(args.ell_m, rng)
    server_keys = keygen(args.ell_m, rng)
    loaded = _synthetic_model(args.protocol, args.d, args.precision, args.layers, rng)
    kappa = args.kappa
    served = runner.prepare_served(args.protocol, loaded, server_keys, kappa, rng)

    x = FeatureVector.from_real([rng.uniform(-1, 1) for _ in range(args.d)],
                                args.precision)
    transcript, publish_transcript = wire.Transcript(), wire.Transcript()
    channel, _ = runner.serve_loopback(served)
    try:
        runner.run_inference(channel, args.protocol, x, client_keys, kappa=kappa,
                             rng=rng, transcript=transcript,
                             publish_transcript=publish_transcript)
    finally:
        channel.close()

    plan = _bench_plan(args.protocol, args.d, loaded)
    expected = wire.rows_bits(plan, args.ell_m)
    stats = transcript.stats()
    kib = 1024
    print()
    print(f"{'':24}{'measured':>14}{'predicted':>14}")
    rows = [("up (request) bytes", stats["bytes_up"], expected["up"] // 8),
            ("down (response) bytes", stats["bytes_down"], expected["down"] // 8)]
    if expected["publish"]:
        publish_bytes = publish_transcript.stats()["bytes_down"]
        rows.append(("model fetch bytes", publish_bytes, expected["publish"] // 8))
    for label, measured, predicted in rows:
        # Informational: framing overhead dominates at toy sizes, so bytes
        # only converge to the closed forms at realistic parameters.
        flag = ""
        if predicted and abs(measured - predicted) / predicted > 0.10:
            flag = "  <-- beyond 10% of the closed form"
        print(f"{label:24}{measured:>14,}{predicted:>14,}{flag}")
        print(f"{'':24}{measured / kib:>13.1f}K{predicted / kib:>13.1f}K")
    print(f"round trips: {stats['round_trips']}")

    # Per-direction ciphertext totals of the query, publication excluded.
    counts_ok = all(
        transcript.ciphertexts(direction) == sum(row.ciphertexts for row in plan
                                                 if row.direction == direction
                                                 and row.label != "publish")
        for direction in ("up", "down"))
    print("ciphertext counts per direction: "
          + ("match the closed-form plan" if counts_ok else "DIVERGE from the plan"))
    return EXIT_OK if counts_ok else EXIT_VERIFY_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinfer",
        description="Privacy-preserving inference over additively homomorphic encryption")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a Paillier key pair")
    p.add_argument("--bits", type=int, choices=KEY_BIT_CHOICES, default=2048)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--kappa", type=int, default=DEFAULT_KAPPA)
    p.add_argument("--seed", type=int, help="INSECURE deterministic keys (tests only)")
    p.add_argument("--insecure-test-keys", action="store_true")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("serve", help="host a model behind a protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--keys", help="server key path prefix (protocols that need one)")
    p.add_argument("--listen", default="127.0.0.1:7700")
    p.add_argument("--protocol", required=True, choices=sorted(wire.PROTOCOL_IDS))
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--heuristic", action="store_true",
                   help="accept the leakage of the heuristic protocols")
    p.add_argument("--insecure-test-keys", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("infer", help="query a served model with a private input")
    p.add_argument("--server", help="host:port of a running server")
    p.add_argument("--loopback", action="store_true",
                   help="run the server in process (deterministic CI mode)")
    p.add_argument("--model", help="server model file, loopback mode only")
    p.add_argument("--server-keys", help="server key prefix, loopback mode only")
    p.add_argument("--input", required=True, help="one decimal feature per line")
    p.add_argument("--protocol", required=True, choices=sorted(wire.PROTOCOL_IDS))
    p.add_argument("--keys", help="client key path prefix (default: fresh keys)")
    p.add_argument("--bits", type=int, choices=KEY_BIT_CHOICES, default=2048,
                   help="fresh client key size when --keys is not given")
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--verify", metavar="MODELFILE",
                   help="also run the plaintext oracle and compare")
    p.add_argument("--allow-unscaled", action="store_true")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--insecure-test-keys", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("oracle", help="plaintext prediction, no crypto")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--allow-unscaled", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="measure message sizes against the closed forms")
    p.add_argument("--protocol", required=True, choices=sorted(wire.PROTOCOL_IDS))
    p.add_argument("--d", type=int, default=30, help="features / units per layer")
    p.add_argument("--ell-m", dest="ell_m", type=int, default=2048,
                   help="key modulus bits")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--kappa", type=int, default=DEFAULT_KAPPA)
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolViolationError, MessageFormatError) as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_VIOLATION
    except runner.ChannelClosed as exc:
        print(f"connection lost: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_VIOLATION
    except PinferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
