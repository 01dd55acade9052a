import importlib
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import pytest

import pinfer
from pinfer import runner, wire
from pinfer.cli import _load_keys, main
from pinfer.errors import ParameterError
from pinfer.linear import LinearModel, max_core_ell
from pinfer.modelfile import load_key, save_model
from pinfer.network import NetworkSpec


@pytest.fixture(scope="module")
def key_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("keys")
    code = main(["keygen", "--bits", "512", "--out", str(base / "srv"),
                 "--seed", "11", "--insecure-test-keys"])
    assert code == 0
    code = main(["keygen", "--bits", "512", "--out", str(base / "cli"),
                 "--seed", "12", "--insecure-test-keys"])
    assert code == 0
    return base


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("models")
    linear = LinearModel.from_real([0.5, -0.25, 0.125], bias=0.1, precision=12)
    save_model(base / "logistic.json", linear, "logistic", kappa=40)
    save_model(base / "svm.json", linear, "svm", kappa=40)
    net = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1)], "sign"), ([(0, 1, -2)], "sign")])
    save_model(base / "net.json", net, "ffnn", kappa=40)
    relu = NetworkSpec.from_integer(
        [([(0, 1, 1), (-1, 1, -1)], "relu"), ([(0, 1, -2)], "relu")])
    save_model(base / "relu-net.json", relu, "ffnn", kappa=40)
    (base / "x.txt").write_text("0.5\n-0.5\n0.25\n")
    (base / "xnet.txt").write_text("1\n-1\n")
    return base


def test_keygen_prints_max_ell(key_files, capsys):
    main(["keygen", "--bits", "512", "--out", str(key_files / "tmp"),
          "--seed", "3", "--insecure-test-keys", "--kappa", "95"])
    out = capsys.readouterr().out
    pk = load_key(str(key_files / "tmp.pub.json"))
    assert f"ell <= {max_core_ell(pk.n, 95)}" in out
    assert "l_M): 512" in out
    # 512-bit keys admit ell = 111 at kappa = 95: 2**111 * (2**95 + 1) - 1 < N.
    assert max_core_ell(pk.n, 95) >= 111


def test_load_keys_returns_the_linked_public_key(key_files, tmp_path):
    pk, sk = _load_keys(str(key_files / "cli"))
    assert pk is sk.public_key and pk._secret is sk
    assert pk == load_key(str(key_files / "cli.pub.json"))
    shutil.copy(key_files / "srv.pub.json", tmp_path / "mixed.pub.json")
    shutil.copy(key_files / "cli.key.json", tmp_path / "mixed.key.json")
    with pytest.raises(ParameterError):
        _load_keys(str(tmp_path / "mixed"))


def test_keygen_requires_flag_for_test_keys(tmp_path):
    assert main(["keygen", "--bits", "512", "--out", str(tmp_path / "x")]) == 4


def test_keygen_missing_out(tmp_path):
    with pytest.raises(SystemExit):
        main(["keygen", "--bits", "512"])


def test_oracle_logistic(model_files, capsys):
    code = main(["oracle", "--model", str(model_files / "logistic.json"),
                 "--input", str(model_files / "x.txt")])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 < value < 1.0


def test_logistic_on_the_boundary_prints_half(tmp_path, key_files, capsys):
    # theta.x = 0 must come out as exactly 0.5.
    model = LinearModel.from_real([0.5, -0.5], bias=0.0, precision=12)
    save_model(tmp_path / "m.json", model, "logistic", kappa=40)
    (tmp_path / "x.txt").write_text("0.0\n0.0\n")
    code = main(["infer", "--loopback", "--protocol", "regr-core",
                 "--model", str(tmp_path / "m.json"),
                 "--keys", str(key_files / "cli"),
                 "--input", str(tmp_path / "x.txt"),
                 "--precision", "12", "--kappa", "40",
                 "--insecure-test-keys"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_oracle_ffnn(model_files, capsys):
    code = main(["oracle", "--model", str(model_files / "net.json"),
                 "--input", str(model_files / "xnet.txt")])
    assert code == 0
    assert capsys.readouterr().out.strip() in ("+1", "-1")


@pytest.mark.parametrize("protocol,model", [
    ("regr-core", "logistic.json"), ("regr-dual", "logistic.json"),
    ("svm-core", "svm.json")])
def test_infer_loopback_with_verify(key_files, model_files, protocol, model, capsys):
    code = main(["infer", "--loopback", "--protocol", protocol,
                 "--model", str(model_files / model),
                 "--server-keys", str(key_files / "srv"),
                 "--keys", str(key_files / "cli"),
                 "--input", str(model_files / "x.txt"),
                 "--precision", "12", "--kappa", "40",
                 "--verify", str(model_files / model),
                 "--insecure-test-keys"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verify: matches" in out


def test_infer_verify_against_another_model_is_a_mismatch(key_files, model_files, tmp_path,
                                                          capsys):
    other = LinearModel.from_real([-0.5, 0.25, 0.75], bias=-0.1, precision=12)
    save_model(tmp_path / "other.json", other, "logistic", kappa=40)
    code = main(["infer", "--loopback", "--protocol", "regr-core",
                 "--model", str(model_files / "logistic.json"),
                 "--keys", str(key_files / "cli"),
                 "--input", str(model_files / "x.txt"),
                 "--precision", "12", "--kappa", "40",
                 "--verify", str(tmp_path / "other.json"),
                 "--insecure-test-keys"])
    assert code == 2
    assert "VERIFY MISMATCH" in capsys.readouterr().err


def test_infer_heuristic_needs_flag(key_files, model_files, capsys):
    args = ["infer", "--loopback", "--protocol", "svm-heur",
            "--model", str(model_files / "svm.json"),
            "--keys", str(key_files / "cli"),
            "--input", str(model_files / "x.txt"),
            "--precision", "12", "--kappa", "40",
            "--insecure-test-keys"]
    assert main(args) == 4  # refused without the leakage acknowledgement
    assert main(args + ["--heuristic", "--verify", str(model_files / "svm.json")]) == 0


def test_infer_ffnn_loopback(key_files, model_files, capsys):
    code = main(["infer", "--loopback", "--protocol", "ffnn-sign",
                 "--model", str(model_files / "net.json"),
                 "--server-keys", str(key_files / "srv"),
                 "--keys", str(key_files / "cli"),
                 "--input", str(model_files / "xnet.txt"),
                 "--precision", "0", "--kappa", "40",
                 "--verify", str(model_files / "net.json"),
                 "--insecure-test-keys"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verify: matches" in out


def _infer_argv(protocol, model_files, key_files, precision):
    """A loopback ``infer`` of ``protocol`` on its test model and input, with
    the input read at ``precision``."""
    info = wire.PROTOCOLS[protocol]
    if info.mode:
        model, features = "relu-net.json" if info.activation == "relu" else "net.json", "xnet.txt"
    else:
        model, features = "svm.json" if "svm" in info.model_types else "logistic.json", "x.txt"
    return ["infer", "--loopback", "--protocol", protocol, "--model", str(model_files / model),
            "--server-keys", str(key_files / "srv"), "--keys", str(key_files / "cli"),
            "--input", str(model_files / features), "--precision", str(precision),
            "--kappa", "40", "--heuristic", "--insecure-test-keys"]


@pytest.mark.parametrize("protocol", sorted(wire.PROTOCOL_IDS))
def test_input_at_another_precision_is_a_configuration_error(key_files, model_files, capsys,
                                                             protocol):
    # The linear models are at precision 12, the networks at 0.
    precision = 1 if wire.PROTOCOLS[protocol].mode else 8
    assert main(_infer_argv(protocol, model_files, key_files, precision)) == 4
    assert capsys.readouterr().err.startswith("error: input does not fit the model: ")


@pytest.mark.parametrize("case,message", [
    ("no server", "pass --server host:port or --loopback"),
    ("loopback without a model", "--loopback needs --model to run the server side"),
    ("fresh test key without the flag",
     "512-bit keys are test-scale only; pass --insecure-test-keys")])
def test_infer_refusals(key_files, model_files, capsys, case, message):
    argv = _infer_argv("regr-core", model_files, key_files, 12)
    if case == "no server":
        argv.remove("--loopback")
    elif case == "loopback without a model":
        del argv[argv.index("--model"):argv.index("--model") + 2]
    else:
        del argv[argv.index("--keys"):argv.index("--keys") + 2]
        argv.remove("--insecure-test-keys")
        argv += ["--bits", "512"]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_infer_refuses_a_key_of_equal_factors_or_a_missing_input(key_files, model_files,
                                                                 tmp_path, capsys):
    # A secret key file whose two factors are the same prime.
    doc = json.loads((key_files / "cli.key.json").read_text())
    doc["q"] = doc["p"]
    (tmp_path / "same.key.json").write_text(json.dumps(doc))
    shutil.copy(key_files / "cli.pub.json", tmp_path / "same.pub.json")
    argv = _infer_argv("regr-core", model_files, key_files, 12)
    argv[argv.index("--keys") + 1] = str(tmp_path / "same")
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: prime factors must be distinct\n"
    # A file that cannot be opened is a configuration error too.
    missing = tmp_path / "missing.txt"
    argv = _infer_argv("regr-core", model_files, key_files, 12)
    argv[argv.index("--input") + 1] = str(missing)
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_infer_without_keys_makes_a_fresh_pair(key_files, model_files, capsys):
    argv = _infer_argv("regr-core", model_files, key_files, 12)
    del argv[argv.index("--keys"):argv.index("--keys") + 2]
    code = main(argv + ["--bits", "512", "--verify", str(model_files / "logistic.json")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.endswith("verify: matches the plaintext oracle\n")


def test_infer_kappa_zero_is_kept(key_files, tmp_path, capsys):
    # At kappa 0 an svm-core model of ell = 450 fits 512-bit keys; at the
    # default kappa of 95 it would not, so a 0 read as "unset" is refused.
    model = LinearModel((3, -2, 1), ell=450, precision=2)
    save_model(tmp_path / "wide.json", model, "svm", kappa=40)
    (tmp_path / "x.txt").write_text("0.5\n-0.75\n")
    argv = ["infer", "--loopback", "--protocol", "svm-core",
            "--model", str(tmp_path / "wide.json"), "--server-keys", str(key_files / "srv"),
            "--keys", str(key_files / "cli"), "--input", str(tmp_path / "x.txt"),
            "--precision", "2", "--kappa", "0", "--verify", str(tmp_path / "wide.json"),
            "--insecure-test-keys"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verify: matches" in out


def test_serve_on_a_port_in_use_is_a_configuration_error(model_files, capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        address = f"127.0.0.1:{taken.getsockname()[1]}"
        codes = []
        # In a thread of its own, so a server that binds anyway fails the test.
        thread = threading.Thread(daemon=True, target=lambda: codes.append(main(
            ["serve", "--protocol", "regr-core", "--listen", address,
             "--model", str(model_files / "logistic.json")])))
        thread.start()
        thread.join(timeout=30)
    assert codes == [4]
    assert capsys.readouterr().err.startswith(f"error: cannot listen on {address}: ")


def test_serve_refuses_incompatible_protocol(key_files, model_files, capsys):
    code = main(["serve", "--protocol", "svm-core",
                 "--model", str(model_files / "logistic.json"),
                 "--keys", str(key_files / "srv"),
                 "--insecure-test-keys"])
    assert code == 4


@pytest.mark.parametrize("address", ["localhost", "127.0.0.1:abc", "127.0.0.1:",
                                     "127.0.0.1:70000", "127.0.0.1:-1"])
@pytest.mark.parametrize("command", ["serve", "infer"])
def test_bad_address_is_a_configuration_error(key_files, model_files, capsys, command,
                                              address):
    if command == "serve":
        argv = ["serve", "--protocol", "regr-core", "--listen", address,
                "--model", str(model_files / "logistic.json")]
    else:
        argv = ["infer", "--protocol", "regr-core", "--server", address,
                "--keys", str(key_files / "cli"), "--input", str(model_files / "x.txt"),
                "--precision", "12", "--insecure-test-keys"]
    assert main(argv) == 4
    assert "host:port" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_input_is_a_configuration_error(model_files, tmp_path, capsys, value):
    (tmp_path / "x.txt").write_text(f"0.5\n{value}\n0.25\n")
    code = main(["oracle", "--model", str(model_files / "logistic.json"),
                 "--input", str(tmp_path / "x.txt"), "--allow-unscaled"])
    assert code == 4
    assert "x.txt:2: not a finite number" in capsys.readouterr().err


def test_oracle_refuses_a_model_file_without_precision(model_files, tmp_path, capsys):
    doc = json.loads((model_files / "logistic.json").read_text())
    del doc["precision"]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code = main(["oracle", "--model", str(tmp_path / "bad.json"),
                 "--input", str(model_files / "x.txt")])
    assert code == 4
    assert "malformed model" in capsys.readouterr().err


def test_oracle_refuses_a_network_file_sized_under_the_2p_bound(tmp_path, capsys):
    spec = NetworkSpec.from_real([([(1, 1, 1)], "softplus"), ([(0, 1)], "identity")],
                                 precision=4)
    save_model(tmp_path / "net.json", spec, "ffnn")
    doc = json.loads((tmp_path / "net.json").read_text())
    doc["ell"] = [10, 9]  # layer 1 as a smooth output bounded by 2**precision sized it
    (tmp_path / "net.json").write_text(json.dumps(doc))
    (tmp_path / "x.txt").write_text("1\n1\n")
    code = main(["oracle", "--model", str(tmp_path / "net.json"),
                 "--input", str(tmp_path / "x.txt")])
    assert code == 4
    assert "layer 1: declared ell 9 below required 11" in capsys.readouterr().err


def test_oracle_beyond_the_float_range_is_a_configuration_error(tmp_path, capsys):
    save_model(tmp_path / "m.json", LinearModel.from_real([1.0, 1.0], 0.0, 12), "linear")
    (tmp_path / "x.txt").write_text("1.7e308\n1.7e308\n")
    code = main(["oracle", "--model", str(tmp_path / "m.json"),
                 "--input", str(tmp_path / "x.txt"), "--allow-unscaled"])
    assert code == 4
    assert "beyond the float range" in capsys.readouterr().err


def test_infer_over_real_socket(key_files, model_files, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    server = threading.Thread(
        target=main,
        args=(["serve", "--protocol", "regr-core",
               "--model", str(model_files / "logistic.json"),
               "--listen", f"127.0.0.1:{port}", "--kappa", "40"],),
        daemon=True)
    server.start()
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            break
        except OSError:
            time.sleep(0.05)
    code = main(["infer", "--server", f"127.0.0.1:{port}",
                 "--protocol", "regr-core",
                 "--keys", str(key_files / "cli"),
                 "--input", str(model_files / "x.txt"),
                 "--precision", "12", "--kappa", "40",
                 "--verify", str(model_files / "logistic.json"),
                 "--insecure-test-keys"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verify: matches" in out


def _regr_core_infer(port, key_files, model_files):
    return ["infer", "--server", f"127.0.0.1:{port}", "--protocol", "regr-core",
            "--keys", str(key_files / "cli"), "--input", str(model_files / "x.txt"),
            "--precision", "12", "--kappa", "40",
            "--verify", str(model_files / "logistic.json"), "--insecure-test-keys"]


def test_serve_drops_a_peer_that_stalls_mid_frame(key_files, model_files, monkeypatch):
    monkeypatch.setattr(runner, "PEER_TIMEOUT_S", 1)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    threading.Thread(target=main, daemon=True, args=(
        ["serve", "--protocol", "regr-core", "--model", str(model_files / "logistic.json"),
         "--listen", f"127.0.0.1:{port}", "--kappa", "40"],)).start()
    deadline = time.time() + 5
    while True:
        try:
            stalled = socket.create_connection(("127.0.0.1", port), timeout=10)
            break
        except OSError:
            assert time.time() < deadline
            time.sleep(0.05)
    with stalled:
        # Ten bytes of a 100-byte frame, then silence: the server closes.
        stalled.sendall(struct.pack(">I", 100) + bytes(10))
        start = time.monotonic()
        assert stalled.recv(1) == b""
        assert 1 <= time.monotonic() - start < 10
    assert main(_regr_core_infer(port, key_files, model_files)) == 0


def test_infer_gives_up_on_a_silent_server(key_files, model_files, monkeypatch, capsys):
    monkeypatch.setattr(runner, "PEER_TIMEOUT_S", 1)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        accepted = []
        thread = threading.Thread(target=lambda: accepted.append(listener.accept()[0]),
                                  daemon=True)
        thread.start()
        # In a thread of its own, so a client that waits for ever fails the test.
        codes, argv = [], _regr_core_infer(listener.getsockname()[1], key_files, model_files)
        client = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        start = time.monotonic()
        client.start()
        client.join(timeout=10)
        elapsed = time.monotonic() - start
        thread.join(timeout=10)
        for conn in accepted:
            conn.close()
    assert codes == [3]
    assert capsys.readouterr().err == "connection lost: receive failed: timed out\n"
    assert 1 <= elapsed < 10


def test_infer_against_a_server_of_another_protocol_exits_3(key_files, model_files, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    threading.Thread(target=main, daemon=True, args=(
        ["serve", "--protocol", "regr-core", "--model", str(model_files / "logistic.json"),
         "--listen", f"127.0.0.1:{port}", "--kappa", "40"],)).start()
    argv = _regr_core_infer(port, key_files, model_files)
    argv[argv.index("regr-core")] = "svm-heur"
    deadline = time.time() + 5
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            break
        except OSError:
            assert time.time() < deadline
            time.sleep(0.05)
    assert main(argv + ["--heuristic"]) == 3
    assert "protocol violation: server reported: server is running regr-core" in \
        capsys.readouterr().err


@pytest.mark.parametrize("case", ["short ciphertext", "unknown activation", "sign activation"])
def test_infer_exits_3_on_a_malformed_reply(key_files, model_files, capsys, case):
    # A regr-core server that answers the request with one canned reply.
    pk = load_key(str(key_files / "cli.pub.json"))
    ct = wire.serialize_ciphertext(pk.encrypt(1), pk)
    parts = {"short ciphertext": (bytes(5), b"sigmoid", wire.pack_u32(12)),
             "unknown activation": (ct, b"bogus", wire.pack_u32(12)),
             "sign activation": (ct, b"sign", wire.pack_u32(12))}[case]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer():
            channel = runner.SocketChannel(listener.accept()[0])
            request = wire.unframe(channel.recv())
            channel.send(wire.frame(request.protocol_id, wire.STEP_RESPONSE,
                                    request.session_id, parts))
            channel.close()

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        code = main(_regr_core_infer(listener.getsockname()[1], key_files, model_files))
        thread.join(timeout=10)
    assert code == 3
    assert capsys.readouterr().err.startswith("protocol violation: ")


def test_serve_names_its_arithmetic(model_files, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    server = threading.Thread(
        target=main,
        args=(["serve", "--protocol", "regr-core",
               "--model", str(model_files / "logistic.json"),
               "--listen", f"127.0.0.1:{port}", "--kappa", "40"],),
        daemon=True)
    server.start()
    deadline = time.time() + 30
    while "serving" not in (out := capsys.readouterr().out) and time.time() < deadline:
        time.sleep(0.05)
    assert out.rstrip("\n").endswith(
        f"on 127.0.0.1:{port}, powers in {pinfer.numutil.BACKEND}"), out


def test_concurrent_sessions_over_socket(key_files, model_files):
    # One server, several clients at once; every session must verify.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    server = threading.Thread(
        target=main,
        args=(["serve", "--protocol", "svm-heur", "--heuristic",
               "--model", str(model_files / "svm.json"),
               "--listen", f"127.0.0.1:{port}", "--kappa", "40"],),
        daemon=True)
    server.start()
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            break
        except OSError:
            time.sleep(0.05)

    from pinfer.modelfile import load_input_vector, load_model
    from pinfer.runner import SocketChannel, run_inference
    loaded = load_model(model_files / "svm.json")
    x = load_input_vector(model_files / "x.txt", 12)
    client_keys = (load_key(str(key_files / "cli.pub.json")),
                   load_key(str(key_files / "cli.key.json")))
    results, errors = [], []

    def one_query():
        try:
            sock = socket.create_connection(("127.0.0.1", port))
            channel = SocketChannel(sock)
            try:
                result = run_inference(channel, "svm-heur", x, client_keys, kappa=40)
            finally:
                channel.close()
            results.append(result.labels)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=one_query) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors
    from pinfer.reference import eval_svm
    expected = (eval_svm(loaded.model, x).class_label,)
    assert results == [expected] * 4


def test_serve_makes_a_connection_beyond_the_cap_wait(key_files, model_files, monkeypatch):
    monkeypatch.setattr(runner, "MAX_CONNECTIONS", 2)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    threading.Thread(target=main, daemon=True, args=(
        ["serve", "--protocol", "regr-core", "--model", str(model_files / "logistic.json"),
         "--listen", f"127.0.0.1:{port}", "--kappa", "40"],)).start()
    deadline = time.time() + 5
    while True:
        try:
            held = [socket.create_connection(("127.0.0.1", port), timeout=30)]
            break
        except OSError:
            assert time.time() < deadline
            time.sleep(0.05)
    held.append(socket.create_connection(("127.0.0.1", port), timeout=30))

    from pinfer.modelfile import load_input_vector, load_model
    from pinfer.reference import eval_logistic
    x = load_input_vector(model_files / "x.txt", 12)
    expected = eval_logistic(load_model(model_files / "logistic.json").model, x).value
    client_keys = _load_keys(str(key_files / "cli"))

    def query(sock):
        return runner.run_inference(runner.SocketChannel(sock), "regr-core", x, client_keys,
                                    kappa=40).value

    codes = []
    third = threading.Thread(daemon=True, target=lambda: codes.append(
        main(_regr_core_infer(port, key_files, model_files))))
    try:
        # Two idle connections hold both slots, so the third query waits.
        third.start()
        third.join(timeout=2)
        assert third.is_alive() and codes == []
        # A held connection is answered meanwhile; once it closes, the
        # third query runs, and the other held connection is answered too.
        assert query(held[0]) == expected
        held[0].close()
        third.join(timeout=30)
        assert codes == [0]
        assert query(held[1]) == expected
    finally:
        for sock in held:
            sock.close()


def test_console_entry_point():
    # The script declared in pyproject.toml must resolve to pinfer.cli.main,
    # and `python -m pinfer` must run it from this checkout without install.
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pinfer"]
    assert target == "pinfer.cli:main"
    module_name, attr = target.split(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry is main and callable(entry)

    src_dir = str(Path(pinfer.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir, inherited] if inherited else [src_dir]))
    out = subprocess.run([sys.executable, "-m", "pinfer", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: pinfer")
    for command in ("keygen", "serve", "infer", "oracle", "bench"):
        assert command in out.stdout


#: Imported at start-up from the first PYTHONPATH entry, before pinfer, so
#: its exit handler runs last: by then no child may be left.
_NO_CHILD_AT_EXIT = """
import atexit, os

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    os.write(2, b"a child process outlived the exit handlers\\n")

atexit.register(no_child_left)
"""


def test_keygen_command_leaves_no_process_or_warning_at_exit(tmp_path, checkout_env):
    # keygen runs its prime tests as batches of powers on two threads, and
    # must exit with no child process and no ResourceWarning.
    (tmp_path / "sitecustomize.py").write_text(_NO_CHILD_AT_EXIT)
    env = dict(checkout_env, PYTHONPATH=os.pathsep.join([str(tmp_path),
                                                         checkout_env["PYTHONPATH"]]))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "pinfer", "keygen", "--bits",
                          "512", "--insecure-test-keys", "--out", str(tmp_path / "k")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert load_key(str(tmp_path / "k.key.json")).public_key.bit_length == 512


@pytest.mark.skipif(shutil.which("pinfer") is None,
                    reason="the pinfer script exists only after pip install")
def test_installed_console_script():
    out = subprocess.run(["pinfer", "--help"], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0
    assert "keygen" in out.stdout and "bench" in out.stdout


def test_bench_small_key(capsys):
    code = main(["bench", "--protocol", "regr-core", "--d", "5",
                 "--ell-m", "512", "--precision", "12", "--kappa", "40",
                 "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "match the closed-form plan" in out


@pytest.mark.parametrize("protocol", sorted(wire.PROTOCOL_IDS))
def test_bench_network_counts(capsys, protocol):
    # Every protocol's bench plan, the encrypted networks layer by layer.
    code = main(["bench", "--protocol", protocol, "--d", "3",
                 "--layers", "2", "--ell-m", "512", "--precision", "8",
                 "--kappa", "40", "--seed", "6"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "match the closed-form plan" in out
