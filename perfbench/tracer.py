"""Outside-in tracing: spans and counts around each module's public functions.

The wrappers live here, not in the program.  A function is replaced under
every name a caller looks it up by: the module global it was defined as, and
each `from .x import f` copy in another module of the package (`engine`
binds `check_partition` that way; `young_decompose` recurses through its own
module global, and `orbit` reaches `label_text` through its own).  Modules
are taken from `importlib.import_module`, because the package re-exports a
function named `partitions` that shadows the `sylowbranch.partitions`
attribute.

A span records its name, its parent span, and its start and end; spans stay
in memory until `write_spans`.  Self time is a span's duration minus the
durations of its child spans.  Functions too hot to span (`label_text`,
`check_partition`, `character_value`) are only counted, so their time is
part of their caller's self time.  Counts of `functools.cache` hits and
misses come from `cache_info()`.

A target missing from the program (renamed or removed by a later change) is
reported on stderr and its metrics read 0.
"""

import contextlib
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import workloads

SPANNED = (
    ("characters", "young_decompose", "characters.young_decompose"),
    ("characters", "split_pairs", "characters.split_pairs"),
    ("characters", "stretch_coefficient", "characters.stretch_coefficient"),
    ("tower", "orbit", "tower.orbit"),
    ("tower", "parse_label", "tower.parse_label"),
    ("engine", "_stage_a", "engine.stage_a"),
    ("engine", "restrict_tower", "engine.restrict_tower"),
    ("engine", "linear_tower", "engine.linear_tower"),
    ("engine", "restrict_sylow", "engine.restrict_sylow"),
    ("engine", "linear_sylow", "engine.linear_sylow"),
    ("engine", "load_cache", "engine.load_cache"),
    ("engine", "save_cache", "engine.save_cache"),
    ("oracle", "oracle_linear_multiplicity", "oracle.oracle_linear_multiplicity"),
    ("oracle", "oracle_full_restriction", "oracle.oracle_full_restriction"),
    ("cli", "main", "cli.main"),
)
COUNTED = (
    ("partitions", "check_partition", "partitions.check_partition"),
    ("characters", "character_value", "characters.character_value"),
    ("tower", "label_text", "tower.label_text"),
)
CACHED = (
    ("characters", "split_pairs", "characters.split_pairs"),
    ("characters", "_mn", "characters.mn"),
    ("oracle", "_label_value", "oracle.label_value"),
)
MEMOS = (
    ("_full_memo", "engine.full_memo"),
    ("_lin_memo", "engine.lin_memo"),
    ("_stage_a_memo", "engine.stage_a_memo"),
)
MEMO_OF = {"engine.restrict_tower": "_full_memo", "engine.linear_tower": "_lin_memo"}
TOWER_LEVELS = (1, 2, 3, 4, 5)
ROOT_SPAN = "item"


def _module(name):
    return importlib.import_module(f"sylowbranch.{name}")


def _package_modules():
    return [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "sylowbranch"]


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.spans = array("q")  # flat (id, name, parent, start_ns, end_ns)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = []  # [span id, ns covered by child spans]
        self._next_id = 0
        self.active = True
        self.missing = []
        self._patched = []  # (module, global name, original)
        self._cache_start = {}
        self.elements = 0
        self.peak_vector_len = 0
        self.memo_hits = defaultdict(int)
        self.cache_io = defaultdict(int)
        self._loaded_keys = set()
        self._used_keys = set()

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _replace(self, module, attr, make):
        original = getattr(_module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._patched.append((m, key, original))

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(*args) returns a token for after(token, result)."""
        idx = self._name_id(name)
        stack, depth, spans, clock = self._stack, self._depth, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = before(*args) if before else None
            self.calls[idx] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            depth[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                duration = end - start
                self.self_ns[idx] += duration - frame[1]
                if not depth[idx]:
                    self.incl_ns[idx] += duration
                if stack:
                    stack[-1][1] += duration
                spans.extend((span_id, idx, parent, start, end))
            if after:
                after(token, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        idx = self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.active:
                calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _elements(self, fn):
        def wrapper(*args, **kwargs):
            for element in fn(*args, **kwargs):
                if self.active:
                    self.elements += 1
                yield element

        return wrapper

    def install(self):
        engine = _module("engine")
        for module, attr, name in CACHED:  # before split_pairs is wrapped
            info = getattr(getattr(_module(module), attr, None), "cache_info", None)
            if info is None:
                self.missing.append(f"{module}.{attr}.cache_info")
            else:
                self._cache_start[name] = (info, info())
        hooks = {
            "engine.load_cache": (self._before_load, self._after_load),
            "engine.save_cache": (lambda path, *_: path, self._after_save),
            "engine.restrict_sylow": (None, self._after_vector),
            "engine.linear_sylow": (None, self._after_vector),
        }
        for name, memo in MEMO_OF.items():
            hooks[name] = (self._memo_probe(name, getattr(engine, memo, None)), self._after_vector)
        for module, attr, name in SPANNED:
            before, after = hooks.get(name, (None, None))
            self._replace(module, attr, lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))
        for module, attr, name in COUNTED:
            self._replace(module, attr, lambda fn, n=name: self._counter(n, fn))
        self._replace("tower", "sylow_elements", self._elements)
        cf = _module("closedform")
        for attr, value in list(vars(cf).items()):
            public = not attr.startswith("_") and not isinstance(value, type)
            if public and callable(value) and getattr(value, "__module__", None) == cf.__name__:
                self._replace("closedform", attr, lambda fn: self._span("closedform", fn))
        for attr, _ in MEMOS:
            if not hasattr(engine, attr):
                self.missing.append(f"engine.{attr}")
        for target in self.missing:
            print(f"tracer: {target} not found; its metrics read 0", file=sys.stderr)

    def uninstall(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def root(self, fn, *args):
        """Run one item under a root span, which every other span descends from."""
        return self._span(ROOT_SPAN, fn)(*args)

    # -- per-call hooks --------------------------------------------------

    def _memo_probe(self, name, store):
        def before(la, p, k, *_):
            key = (p, k, tuple(int(x) for x in la))
            if store is not None and key in store:
                self.memo_hits[name] += 1
                if key in self._loaded_keys:
                    self._used_keys.add(key)

        return before

    def _after_vector(self, _token, vec):
        self.peak_vector_len = max(self.peak_vector_len, len(vec))

    def _before_load(self, path, *_):
        if os.path.exists(path):
            self.cache_io["bytes_read"] += os.path.getsize(path)

    def _after_load(self, _token, loaded):
        # Every key of the memo after a load came from the file: the memo
        # starts empty and each call saves all of it back.
        self.cache_io["entries_loaded"] += loaded
        self._loaded_keys = set(getattr(_module("engine"), "_full_memo", ()))
        self._used_keys = set()

    def _after_save(self, path, _result):
        self.cache_io["bytes_written"] += os.path.getsize(path)
        self.cache_io["entries_used"] += len(self._used_keys)
        self._loaded_keys = set()
        self._used_keys = set()

    # -- results ---------------------------------------------------------

    def metrics(self, items):
        """Every per-layer metric of one traced pass, by name."""
        def calls(name):
            return self.calls.get(self._index.get(name), 0)

        def self_s(name):
            return self.self_ns.get(self._index.get(name), 0) / 1e9

        def incl_s(name):
            return self.incl_ns.get(self._index.get(name), 0) / 1e9

        def hits_misses(name):
            if name not in self._cache_start:
                return 0, 0
            info, start = self._cache_start[name]
            end = info()
            return end.hits - start.hits, end.misses - start.misses

        out = {"partitions.check_partition.calls": calls("partitions.check_partition")}
        out["characters.young_decompose.calls"] = calls("characters.young_decompose")
        out["characters.young_decompose.self_s"] = self_s("characters.young_decompose")
        hits, misses = hits_misses("characters.split_pairs")
        out["characters.split_pairs.hits"] = hits
        out["characters.split_pairs.misses"] = misses
        out["characters.split_pairs.self_s"] = self_s("characters.split_pairs")
        out["characters.stretch_coefficient.calls"] = calls("characters.stretch_coefficient")
        out["characters.stretch_coefficient.self_s"] = self_s("characters.stretch_coefficient")
        out["characters.character_value.calls"] = calls("characters.character_value")
        out["characters.mn.hits"], out["characters.mn.misses"] = hits_misses("characters.mn")
        out["tower.orbit.calls"] = calls("tower.orbit")
        out["tower.orbit.self_s"] = self_s("tower.orbit")
        out["tower.label_text.calls"] = calls("tower.label_text")
        out["tower.parse_label.calls"] = calls("tower.parse_label")
        out["tower.parse_label.self_s"] = self_s("tower.parse_label")
        out["tower.sylow_elements.elements"] = self.elements
        for name in MEMO_OF:
            n = calls(name)
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.memo_hit_ratio"] = self.memo_hits[name] / n if n else 0
        out["engine.stage_a.calls"] = calls("engine.stage_a")
        out["engine.stage_a.self_s"] = self_s("engine.stage_a")
        out["engine.restrict_sylow.self_s"] = self_s("engine.restrict_sylow")
        out["engine.linear_sylow.self_s"] = self_s("engine.linear_sylow")
        engine = _module("engine")
        for attr, name in MEMOS:
            out[f"{name}.entries"] = len(getattr(engine, attr, ()))
        full = getattr(engine, "_full_memo", {})
        for k in TOWER_LEVELS:
            out[f"engine.labels.k{k}"] = sum(len(vec) for (_, kk, _), vec in full.items() if kk == k)
        out["engine.peak_vector_len"] = self.peak_vector_len
        for name in ("engine.load_cache", "engine.save_cache"):
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.incl_s"] = incl_s(name)
        for key in ("bytes_read", "bytes_written", "entries_loaded"):
            out[f"engine.cache.{key}"] = self.cache_io[key]
        loaded = self.cache_io["entries_loaded"]
        out["engine.cache.entries_used_ratio"] = self.cache_io["entries_used"] / loaded if loaded else 0
        for name in ("oracle.oracle_linear_multiplicity", "oracle.oracle_full_restriction"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        out["oracle.label_value.hits"], out["oracle.label_value.misses"] = hits_misses("oracle.label_value")
        out["closedform.calls"] = calls("closedform")
        out["closedform.self_s"] = self_s("closedform")
        latency = {r["id"]: r["latency_s"] for r in items}
        for suite in workloads.SUITES:
            out[f"verify.suite_s.{suite}"] = latency.get(f"suite {suite}", 0)
        out["cli.main.calls"] = calls("cli.main")
        out["cli.main.self_s"] = self_s("cli.main")
        out["bench.unattributed_s"] = self_s(ROOT_SPAN)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["id", "name", "parent", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": self.spans.tolist(),
                },
                fh,
            )
