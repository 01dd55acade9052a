import importlib
import json
import os
import shutil
import socket
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
from pinfer import wire
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
#: its exit handler runs after pinfer's: by then no child may be left.
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
    # keygen runs its prime tests across the power worker, which must be
    # reaped at exit with no ResourceWarning.
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
