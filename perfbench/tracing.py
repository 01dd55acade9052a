"""Spans around the calls into pinfer's layers, recorded from outside the package.

``Tracer.install`` replaces public functions and methods of ``paillier``,
``comparison``, ``linear`` (through the names ``runner`` imports),
``network``, ``wire`` and ``runner`` with wrappers that record one span per
call; ``uninstall`` puts the originals back, so untraced queries run the
unmodified code. Spans stay in memory, one list per thread, and are written
out once at the end of the run. The main thread is the client and any
other thread the server; spans opened while no query is running belong to
the set-up phase.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

from pinfer import comparison, network, paillier, runner, wire

CLIENT, SERVER = "client", "server"
#: A scalar whose reduced exponent min(e, N - e) is wider than this counts
#: as a full-width multiply.
SHORT_SCALAR_BITS = 256

_NAME, _START, _END, _PARENT, _QUERY = range(5)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        #: Moduli N**2 of the run's keys; powmod under any other modulus is
        #: a half-size (CRT) exponentiation.
        self.nsq_moduli: set[int] = set()
        #: Query id stamped on new spans; None during set-up.
        self.query: int | None = None
        self._client_thread = threading.current_thread()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, list]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            party = CLIENT if threading.current_thread() is self._client_thread else SERVER
            with self._lock:
                self._threads.append((party, local.spans))
            return local.spans, local.stack

    def begin(self, name: str) -> list:
        spans, stack = self._state()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.query]
        spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        stack = self._state()[1]
        if stack and stack[-1] is span:
            stack.pop()

    def call(self, name, fn, args, kwargs, outermost: bool = False):
        """Run fn inside a span; with ``outermost`` a call nested directly
        in a span of the same name records nothing of its own."""
        stack = self._state()[1]
        if outermost and stack and stack[-1][_NAME] == name:
            return fn(*args, **kwargs)
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def call_named_by(self, namer, fn, args):
        """Like ``call``, naming the span from the call's result."""
        span = self.begin("?")
        try:
            result = fn(*args)
            span[_NAME] = namer(args, result)
            return result
        finally:
            self.end(span)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _wrap(self, owner, attrs, name: str, outermost: bool = False) -> None:
        for attr in attrs:
            self._patch(owner, attr, lambda fn: lambda *a, **k: self.call(name, fn, a, k, outermost))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pk, sk, ct = paillier.PublicKey, paillier.SecretKey, paillier.Ciphertext
        self._wrap(pk, ("encrypt", "encrypt_unsigned"), "paillier.encrypt", outermost=True)
        self._wrap(sk, ("decrypt", "decrypt_unsigned"), "paillier.decrypt", outermost=True)
        self._wrap(pk, ("rerandomize",), "paillier.rerandomize")
        self._wrap(ct, ("__add__", "__sub__", "__neg__", "add_plain"), "paillier.linear",
                   outermost=True)
        for attr in ("__mul__", "__rmul__"):
            self._patch(ct, attr, self._scalar_wrapper)
        self._patch(paillier, "powmod", self._powmod_wrapper)
        self._wrap(paillier, ("keygen",), "paillier.keygen")

        for module in (comparison, network):
            self._wrap(module, ("evaluator_respond",), "comparison.evaluator_respond")
            self._wrap(module, ("bit_owner_finish",), "comparison.bit_owner_finish")

        self._wrap(runner, ("regr_core_request", "svm_core_request"), "stage.request")
        self._wrap(runner, ("regr_core_respond", "svm_core_respond"), "stage.respond")
        self._wrap(runner, ("regr_core_finish", "svm_core_finish"), "stage.finish")
        self._wrap(runner, ("regr_dual_publish",), "linear.regr_dual_publish")
        self._wrap(runner, ("fetch_published",), "runner.fetch_published")

        server_layer = lambda args, message: _layer_name(message)
        client_layer = lambda args, reply: _layer_name(args[1])
        for cls, attrs, namer in ((network.NetworkServerSession, ("start", "advance"), server_layer),
                                  (network.NetworkClientSession, ("handle",), client_layer)):
            for attr in attrs:
                self._patch(cls, attr, lambda fn, namer=namer:
                            lambda *a: self.call_named_by(namer, fn, a))

        self._wrap(wire, ("serialize_ciphertext", "serialize_scalar",
                          "serialize_public_key", "frame"), "wire.encode")
        self._wrap(wire, ("deserialize_ciphertext", "deserialize_scalar",
                          "deserialize_public_key", "unframe"), "wire.decode")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _scalar_wrapper(self, fn):
        def scalar(ct, value):
            if not isinstance(value, int):
                return fn(ct, value)
            n = ct.public_key.n
            e = value % n
            wide = min(e, n - e).bit_length() > SHORT_SCALAR_BITS
            name = "paillier.scalar_full" if wide else "paillier.scalar_short"
            return self.call(name, fn, (ct, value), {})
        return scalar

    def _powmod_wrapper(self, fn):
        def powmod(base, exp, mod):
            name = "paillier.powmod.nsq" if mod in self.nsq_moduli else "paillier.powmod.half"
            return self.call(name, fn, (base, exp, mod), {})
        return powmod

    # -- results -----------------------------------------------------------

    def totals(self, queries) -> dict:
        """{(party, name): [count, ms, self_ms]} summed over the given
        queries; set-up spans are keyed under the party ``setup``."""
        queries = set(queries)
        out: dict = {}
        for party, spans in self._threads:
            child_s: dict[int, float] = {}
            for span in spans:
                if span[_PARENT] is not None and span[_END] is not None:
                    key = id(span[_PARENT])
                    child_s[key] = child_s.get(key, 0.0) + span[_END] - span[_START]
            for span in spans:
                if span[_END] is None:
                    continue
                if span[_QUERY] is None:
                    key = ("setup", span[_NAME])
                elif span[_QUERY] in queries:
                    key = (party, span[_NAME])
                else:
                    continue
                dur = span[_END] - span[_START]
                row = out.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur * 1e3
                row[2] += (dur - child_s.get(id(span), 0.0)) * 1e3
        return out

    def write(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for party, spans in self._threads:
                index = {id(span): i for i, span in enumerate(spans)}
                for i, span in enumerate(spans):
                    parent = span[_PARENT]
                    fh.write(json.dumps({
                        "id": f"{party}:{i}", "name": span[_NAME],
                        "start": span[_START], "end": span[_END],
                        "parent": None if parent is None else f"{party}:{index[id(parent)]}",
                        "query": span[_QUERY], "party": party,
                        "phase": "setup" if span[_QUERY] is None else "query"}) + "\n")
                    count += 1
        return count


def span_cost_s(calls: int = 5000, repeats: int = 5) -> float:
    """Time one traced call adds to a plain call, measured on a no-op
    through a separate tracer: the median of ``repeats`` loops."""
    probe = Tracer()
    noop = lambda: None  # noqa: E731
    traced = lambda: probe.call("probe", noop, (), {})  # noqa: E731

    def loop_s(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    costs = [(loop_s(traced) - loop_s(noop)) / calls for _ in range(repeats)]
    return statistics.median(costs)


def _layer_name(message) -> str:
    layer = getattr(message, "layer", None)
    return "network.output" if layer is None else f"network.layer{layer}"
