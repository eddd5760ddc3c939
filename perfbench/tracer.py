"""Per-layer tracing from outside the program.

The layers are the cclab modules.  install() replaces each traced function
at every cclab module that binds its name (``from .protocol import run``
copies the binding, so patching one module is not enough) and on the
classes whose methods are traced.  While a tracer is active every wrapped
call is a span: operation id, layer, function, start, end and the span that
caused it.  Calls to hot functions, which run once per tree or per pair,
are summed per (operation, function, parent span) instead of kept one by
one, so the trace fits in memory.

Self time of a layer is the time of its spans minus the time of the
wrapped calls nested in them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "bits", "functions", "protocol", "codes", "complexity", "constructions",
    "rectangles", "reference", "solver", "verify", "cli",
)

# (module, attribute) -> (layer, metric name, hot)
FUNCTIONS = {
    ("bits", "check_bits"): ("bits", "check_bits", True),
    ("functions", "identity_fn"): ("functions", "identity_fn", False),
    ("functions", "equality_fn"): ("functions", "equality_fn", False),
    ("functions", "inner_product_fn"): ("functions", "inner_product_fn", False),
    ("protocol", "run"): ("protocol", "run", True),
    ("protocol", "cc_on_input"): ("protocol", "cc_on_input", True),
    ("protocol", "cc_with_help"): ("protocol", "cc_with_help", True),
    ("protocol", "computes_on"): ("protocol", "computes_on", True),
    ("protocol", "computes_everywhere"): ("protocol", "computes_everywhere", True),
    ("protocol", "is_total"): ("protocol", "is_total", True),
    ("protocol", "is_one_way"): ("protocol", "is_one_way", True),
    ("protocol", "bob_message"): ("protocol", "bob_message", True),
    ("protocol", "help_bit_totalizer"): ("protocol", "help_bit_totalizer", True),
    ("codes", "pdl_encode"): ("codes", "pdl_encode", True),
    ("codes", "decode_signature"): ("codes", "decode", True),
    ("codes", "sdl_encode"): ("codes", "sdl_encode", True),
    ("codes", "sdl_decode"): ("codes", "sdl_decode", True),
    ("codes", "budget_cap"): ("codes", "budget_cap", True),
    ("complexity", "individual_cc"): ("complexity", "individual_cc", False),
    ("complexity", "tcc_identity_profile"): ("complexity", "profile", False),
    ("complexity", "structure_function_profile"): ("complexity", "structure_function_profile", False),
    ("complexity", "find_hard_y"): ("complexity", "find_hard_y", False),
    ("complexity", "set_to_oneway"): ("complexity", "set_to_oneway", True),
    ("complexity", "oneway_to_set"): ("complexity", "oneway_to_set", True),
    ("rectangles", "transcript_partition"): ("rectangles", "transcript_partition", False),
    ("rectangles", "ip_rectangle_audit"): ("rectangles", "audit", False),
    ("rectangles", "equality_diagonal_bound"): ("rectangles", "audit", False),
    ("rectangles", "rectangle_color"): ("rectangles", "rectangle_color", True),
    ("rectangles", "gf2_rank"): ("rectangles", "gf2_rank", True),
    ("constructions", "th7_hard_instance"): ("constructions", "hard_instance", False),
    ("constructions", "helpbit_hard_instance"): ("constructions", "hard_instance", False),
    ("constructions", "replay_hard_instance"): ("constructions", "replay", False),
    ("constructions", "verify_certificate"): ("constructions", "verify_certificate", False),
    ("constructions", "th7_protocol"): ("constructions", "th7_protocol", False),
    ("constructions", "large_rectangle_shortcut"): ("constructions", "large_rectangle_shortcut", False),
    ("constructions", "message_protocol"): ("constructions", "message_protocol", True),
    ("constructions", "prefix_protocol"): ("constructions", "prefix_protocol", True),
    ("constructions", "fit_node_function"): ("constructions", "fit_node_function", True),
    ("constructions", "separating_index_set"): ("constructions", "separating_index_set", True),
    ("solver", "dcc_exact"): ("solver", "dcc_exact", False),
}

# generator functions: the time inside each next() is the busy time
GENERATORS = {
    ("codes", "enumerate_signature"): ("codes", "enumerate"),
    ("codes", "enumerate_sets"): ("codes", "enumerate_sets"),
}

# (module, class, method) -> (layer, metric name, hot)
METHODS = {
    ("functions", "FunctionSpec", "value"): ("functions", "value", True),
    ("protocol", "ProtocolTree", "__post_init__"): ("protocol", "tree_builds", True),
    ("constructions", "HardInstance", "to_json"): ("constructions", "to_json", False),
    ("constructions", "HardInstance", "from_json"): ("constructions", "from_json", False),
}

LAYERS = ("bits", "functions", "protocol", "codes", "complexity", "rectangles", "constructions", "solver")


class Tracer:
    """Spans, counts and busy and self times of wrapped calls while active."""

    def __init__(self) -> None:
        self.active = False
        self.op = None
        self._root: list = []
        self._stack: list[list] = []  # [id, layer, name, start, nested time, hot, anchor id]
        self._next_id = 0
        self._depth: Counter = Counter()
        self.spans: list[tuple] = []
        self.rollups: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self.families: set = set()

    # -- spans --------------------------------------------------------------

    def enter(self, layer: str, name: str, hot: bool) -> list:
        key = f"{layer}.{name}"
        self.calls[key] += 1
        self._depth[key] += 1
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        # hot calls are summed under their nearest recorded ancestor
        anchor = (parent[6] if parent else None) if hot else self._next_id
        frame = [self._next_id, layer, name, perf_counter(), 0.0, hot, anchor]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        span_id, layer, name, start, nested, hot, anchor = frame
        duration = end - start
        self._stack.pop()
        key = f"{layer}.{name}"
        self._depth[key] -= 1
        if self._depth[key] == 0:
            self.busy[key] += duration
        self.self_s[layer] += duration - nested
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        if hot:
            roll = self.rollups[self.op, layer, name, anchor]
            roll[0] += 1
            roll[1] += duration
            roll[2] += duration - nested
        else:
            parent_id = parent[6] if parent is not None else None
            self.spans.append((span_id, self.op, layer, name, start, end, parent_id))

    def begin(self, op: str) -> None:
        """Start an operation: its root span has layer "op" and the operation's kind."""
        self.op = op
        self.active = True
        self._root = self.enter("op", op.split("/")[0], False)

    def end(self) -> None:
        self.leave(self._root)
        self.active = False

    def inside(self, layer: str, name: str) -> bool:
        return self._depth[f"{layer}.{name}"] > 0

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, hot: bool, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer: str, name: str, on_call=None):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, name, False)
            try:
                inner = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(bound.arguments)
            return tracer._iterate(inner, layer, name)

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, inner, layer: str, name: str):
        key = f"{layer}.{name}"
        while True:
            frame = self.enter(layer, f"{name}.next", True)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self.leave(frame)
            self.extra[f"{key}.yielded"] += 1
            if self.inside("complexity", "individual_cc"):
                self.extra["complexity.individual_cc.trees"] += 1
            yield item

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        c, b, e = self.calls, self.busy, self.extra
        enum_calls = c["codes.enumerate"]
        icc_calls = c["complexity.individual_cc"]
        cc_calls = c["protocol.cc_on_input"]
        values = {
            "bits.check_bits.calls": c["bits.check_bits"],
            "functions.value.calls": c["functions.value"],
            "protocol.run.calls": c["protocol.run"],
            "protocol.run.busy_s": b["protocol.run"],
            "protocol.tree_builds": c["protocol.tree_builds"],
            "protocol.cc_on_input.calls": cc_calls,
            "protocol.cc_on_input.correct_ratio": e["protocol.cc_on_input.finite"] / cc_calls if cc_calls else 0.0,
            "protocol.cc_with_help.calls": c["protocol.cc_with_help"],
            "protocol.cc_with_help.busy_s": b["protocol.cc_with_help"],
            "protocol.help_bit_totalizer.calls": c["protocol.help_bit_totalizer"],
            "protocol.help_bit_totalizer.busy_s": b["protocol.help_bit_totalizer"],
            "protocol.computes_everywhere.calls": c["protocol.computes_everywhere"],
            "protocol.computes_everywhere.busy_s": b["protocol.computes_everywhere"],
            "protocol.is_total.calls": c["protocol.is_total"],
            "protocol.bob_message.calls": c["protocol.bob_message"],
            "protocol.bob_message.busy_s": b["protocol.bob_message"],
            "codes.enumerate.calls": enum_calls,
            "codes.enumerate.yielded": e["codes.enumerate.yielded"],
            "codes.enumerate.busy_s": b["codes.enumerate.next"],
            "codes.enumerate.repeat_ratio": e["codes.enumerate.repeats"] / enum_calls if enum_calls else 0.0,
            "codes.enumerate_sets.yielded": e["codes.enumerate_sets.yielded"],
            "codes.sdl_encode.calls": c["codes.sdl_encode"],
            "codes.sdl_encode.busy_s": b["codes.sdl_encode"],
            "codes.pdl_encode.calls": c["codes.pdl_encode"],
            "codes.pdl_encode.busy_s": b["codes.pdl_encode"],
            "codes.decode.calls": c["codes.decode"],
            "codes.decode.busy_s": b["codes.decode"],
            "complexity.individual_cc.calls": icc_calls,
            "complexity.individual_cc.busy_s": b["complexity.individual_cc"],
            "complexity.individual_cc.trees_per_call": e["complexity.individual_cc.trees"] / icc_calls if icc_calls else 0.0,
            "complexity.profile.calls": c["complexity.profile"],
            "complexity.profile.busy_s": b["complexity.profile"],
            "complexity.find_hard_y.calls": c["complexity.find_hard_y"],
            "complexity.find_hard_y.busy_s": b["complexity.find_hard_y"],
            "rectangles.transcript_partition.calls": c["rectangles.transcript_partition"],
            "rectangles.transcript_partition.busy_s": b["rectangles.transcript_partition"],
            "rectangles.audit.busy_s": b["rectangles.audit"],
            "constructions.hard_instance.calls": c["constructions.hard_instance"],
            "constructions.hard_instance.busy_s": b["constructions.hard_instance"],
            "constructions.replay.busy_s": b["constructions.replay"],
            "constructions.verify_certificate.busy_s": b["constructions.verify_certificate"],
            "solver.dcc_exact.calls": c["solver.dcc_exact"],
            "solver.dcc_exact.busy_s": b["solver.dcc_exact"],
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s[layer]
        return values

    def write(self, path) -> None:
        """Spans and hot-call sums as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, op, layer, name, start, end, parent in self.spans:
                out.write(json.dumps({"span": span_id, "op": op, "layer": layer, "fn": name,
                                      "start": start, "end": end, "parent": parent}) + "\n")
            for (op, layer, name, parent), (count, total, own) in self.rollups.items():
                out.write(json.dumps({"op": op, "layer": layer, "fn": name, "parent": parent,
                                      "calls": count, "total": total, "self": own}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each cclab module that binds it."""
    package = importlib.import_module("cclab")
    modules = [package] + [importlib.import_module(f"cclab.{m}") for m in MODULES]
    replacements: dict = {}

    def note_finite(result) -> None:
        if result != math.inf:
            tracer.extra["protocol.cc_on_input.finite"] += 1

    def note_family(arguments) -> None:
        key = tuple(sorted(arguments.items()))
        if key in tracer.families:
            tracer.extra["codes.enumerate.repeats"] += 1
        tracer.families.add(key)

    for (mod, attr), (layer, name, hot) in FUNCTIONS.items():
        original = getattr(importlib.import_module(f"cclab.{mod}"), attr)
        hook = note_finite if name == "cc_on_input" else None
        replacements[id(original)] = (original, tracer.wrap(original, layer, name, hot, hook))
    for (mod, attr), (layer, name) in GENERATORS.items():
        original = getattr(importlib.import_module(f"cclab.{mod}"), attr)
        hook = note_family if name == "enumerate" else None
        replacements[id(original)] = (original, tracer.wrap_generator(original, layer, name, hook))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for (mod, cls_name, method), (layer, name, hot) in METHODS.items():
        cls = getattr(importlib.import_module(f"cclab.{mod}"), cls_name)
        raw = inspect.getattr_static(cls, method)
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(raw.__func__, layer, name, hot)))
        else:
            setattr(cls, method, tracer.wrap(raw, layer, name, hot))
