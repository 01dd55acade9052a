"""Which model, key and acknowledgement each protocol accepts at set-up, and
that the docs and the command line name the same protocols as the wire table."""

import argparse
import re
from pathlib import Path

import pytest

from pinfer import cli, wire
from pinfer.errors import ParameterError
from pinfer.linear import LinearModel
from pinfer.modelfile import LoadedModel
from pinfer.network import NetworkSpec
from pinfer.runner import prepare_served

KAPPA = 40

#: The model kinds each protocol serves.
SERVES = {
    "regr-core": {"linear", "logistic"},
    "regr-dual": {"linear", "logistic"},
    "svm-core": {"svm"},
    "svm-heur": {"svm"},
    "ffnn-generic": {"sign ffnn", "relu ffnn"},
    "ffnn-sign": {"sign ffnn"},
    "ffnn-sign-heur": {"sign ffnn"},
    "ffnn-relu": {"relu ffnn"},
    "ffnn-relu-heur": {"relu ffnn"},
}
NEEDS_SERVER_KEYS = {"regr-dual", "svm-core", "ffnn-sign", "ffnn-relu"}
PUBLISHES = {"regr-dual", "svm-core"}
HEURISTIC = {"svm-heur", "ffnn-sign-heur", "ffnn-relu-heur"}


def _model(kind: str) -> LoadedModel:
    if kind.endswith("ffnn"):
        hidden = kind.split()[0]
        net = NetworkSpec.from_integer(
            [([(0, 1, 1), (-1, 1, -1)], hidden), ([(0, 1, -2)], "identity")])
        return LoadedModel("ffnn", net, KAPPA)
    linear = LinearModel.from_real([0.5, -0.25, 0.125], bias=0.1, precision=8)
    return LoadedModel(kind, linear, KAPPA)


@pytest.mark.parametrize("with_keys", [False, True], ids=["no-keys", "server-keys"])
@pytest.mark.parametrize("kind", ["linear", "logistic", "svm", "sign ffnn", "relu ffnn"])
@pytest.mark.parametrize("protocol", sorted(SERVES))
def test_prepare_served_matrix(server_keys, rng, protocol, kind, with_keys):
    keys = server_keys if with_keys else None
    accepted = kind in SERVES[protocol] and (with_keys or protocol not in NEEDS_SERVER_KEYS)
    if not accepted:
        with pytest.raises(ParameterError):
            prepare_served(protocol, _model(kind), keys, rng=rng)
        return
    served = prepare_served(protocol, _model(kind), keys, rng=rng)
    assert (served.published is not None) == (protocol in PUBLISHES)


@pytest.mark.parametrize("protocol", sorted(SERVES))
def test_heuristic_protocols_need_the_flag(protocol):
    cli._require_heuristic_ack(protocol, True)
    if protocol in HEURISTIC:
        with pytest.raises(ParameterError, match="--heuristic"):
            cli._require_heuristic_ack(protocol, False)
    else:
        cli._require_heuristic_ack(protocol, False)


def _readme_catalogue() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("## Protocol catalogue")[1].split("\n## ")[0]


def test_readme_and_command_line_name_the_table_protocols():
    catalogue = _readme_catalogue()
    assert sorted(re.findall(r"^\| `([a-z-]+)`", catalogue, re.M)) == sorted(wire.PROTOCOLS)
    [commands] = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    offered = {name: action.choices for name, sub in commands.choices.items()
               for action in sub._actions if action.dest == "protocol"}
    assert set(offered) == {"serve", "infer", "bench"}
    for choices in offered.values():
        assert sorted(choices) == sorted(wire.PROTOCOLS)


def _catalogue_count(cell: str, ell: int) -> int:
    """The ciphertext count a catalogue cell opens with, such as "(ℓ+2) cts
    per unit" or "1 + ℓ ciphertexts", at bound length ``ell``."""
    expr = re.match(r"\(?([ℓ\d+ ]+?)\)? (?:cts?|ciphertexts|blinded)", cell.strip())[1]
    return sum(ell if term.strip() == "ℓ" else int(term) for term in expr.split("+"))


@pytest.mark.parametrize("protocol", ["svm-core", "ffnn-sign", "ffnn-relu",
                                      "ffnn-sign-heur", "ffnn-relu-heur"])
def test_readme_catalogue_counts_match_the_plan(protocol):
    [row] = [line for line in _readme_catalogue().splitlines()
             if line.startswith(f"| `{protocol}` ")]
    client, server = row.split("|")[3:5]
    for ell in (7, 20):
        plan = {r.direction: r.ciphertexts for r in wire.message_plan(
            protocol, d=1, ell=ell, layers=1, units=1) if r.label != "publish"}
        assert (_catalogue_count(client, ell), _catalogue_count(server, ell)) == \
            (plan["up"], plan["down"])
