"""Spans around the public functions of the program's modules, for the traced run.

`Tracer.install` wraps every public function defined in a layer module and
rebinds every attribute of every loaded `eicp` module that holds the same
function object, because the modules import each other's functions by name
(`from .gf import basis_insert`). `FieldOrder` is a class, so its `__new__`
is wrapped to count constructions; it records no span. `uninstall` restores
every rebound attribute. The untraced run never installs anything. A metric
whose function was not there to wrap is reported absent, with the reason,
never as 0, so that a renamed or removed function does not read as a gain.

A span records name, start, end, parent span and item id. Spans live in
compact arrays in memory and are written out by `write_spans` at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

WRAPPED_MARK = "__perfbench_wrapped__"

# Functions whose span name gains "_exact" when called with exact=True.
EXACT_SPLIT = ("covers.tree_cover", "covers.biclique_cover")

# MinrankResult.stats keys behind the minrank counters.
BNB_COUNTERS = {
    "minrank.stage1_nodes": "nodes_explored",
    "minrank.stage2_nodes": "column_nodes_explored",
    "minrank.stage2_pool": "column_pool_size",
    "minrank.candidates_total": "candidates_total",
}
ORACLE_COUNTER = ("minrank.oracle_subsets", "subsets_examined")


def _exact_flag(args, kwargs) -> bool:
    return bool(kwargs.get("exact", args[1] if len(args) > 1 else False))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self._stack: list[int] = []
        # Per name id: open spans now, and total ns of spans not nested in a
        # span of the same name.
        self._depth: list[int] = []
        self._outer_ns: list[int] = []
        self.field_order_calls: int | None = None
        self.inserts_grew = 0
        self.bnb_results: list[tuple[int, dict]] = []
        self.oracle_stats: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self._field_order = None

    # ---------- recording ----------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._outer_ns.append(0)
        return nid

    def _observer(self, name: str):
        if name == "gf.basis_insert":
            def observe(result):
                self.inserts_grew += bool(result[1])
        elif name == "minrank.minrank_bnb":
            def observe(result):
                self.bnb_results.append((result.kappa, result.stats))
        elif name == "minrank.minrank_oracle":
            def observe(result):
                self.oracle_stats.append(result.stats)
        else:
            observe = None
        return observe

    def wrap(self, fn, name: str):
        plain = self.name_id(name)
        exact = self.name_id(name + "_exact") if name in EXACT_SPLIT else None
        observe = self._observer(name)
        clock = time.perf_counter_ns
        stack, depth, outer_ns = self._stack, self._depth, self._outer_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = exact if exact is not None and _exact_flag(args, kwargs) else plain
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.item_id)
            self.end.append(0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                stack.pop()
                depth[nid] -= 1
                if not depth[nid]:
                    outer_ns[nid] += t1 - t0
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # ---------- installation ----------

    def install(self, layers) -> None:
        mods = loaded_modules()
        wrappers = {}
        for layer in layers:
            mod = mods.get(f"eicp.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

        field_order = getattr(mods.get("eicp.gf"), "FieldOrder", None)
        if field_order is None:
            return
        self.field_order_calls = 0
        original = field_order.__dict__["__new__"]
        new_fn = original.__func__ if isinstance(original, staticmethod) else original

        @functools.wraps(new_fn)
        def counting_new(cls, *args, **kwargs):
            self.field_order_calls += 1
            return new_fn(cls, *args, **kwargs)

        setattr(counting_new, WRAPPED_MARK, True)
        field_order.__new__ = staticmethod(counting_new)
        self._field_order = (field_order, original)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        if self._field_order is not None:
            cls, original = self._field_order
            cls.__new__ = original
            self._field_order = None

    # ---------- per-layer metrics ----------

    def layer_metrics(self) -> dict[str, tuple[float | None, str]]:
        """{metric: (value, note)}; value None means absent, and note says why."""
        ids = self._name_ids
        calls = [0] * len(self.names)
        for nid in self.name:
            calls[nid] += 1

        def absent(*names):
            missing = [n for n in names if n not in ids]
            return f"no function {missing[0]} to wrap" if missing else None

        def n_calls(name):
            why = absent(name)
            return (None, why) if why else (calls[ids[name]], "")

        def seconds(*names, note=""):
            why = absent(*names)
            if why:
                return None, why
            return sum(self._outer_ns[ids[n]] for n in names) / 1e9, note

        out: dict[str, tuple[float | None, str]] = {}
        out["gf.basis_insert.calls"] = n_calls("gf.basis_insert")
        out["gf.basis_insert.s"] = seconds("gf.basis_insert")
        inserts, why = out["gf.basis_insert.calls"]
        if inserts is None:
            out["gf.basis_insert.grew_frac"] = (None, why)
        else:
            out["gf.basis_insert.grew_frac"] = (
                self.inserts_grew / inserts if inserts else 0.0,
                f"{self.inserts_grew} of {inserts} inserts grew the basis")
        for fn in ("gf.in_span", "gf.rank", "graphs.canonical_form", "codes.decodable_from"):
            out[f"{fn}.calls"] = n_calls(fn)
            out[f"{fn}.s"] = seconds(fn)
        out["gf.FieldOrder.calls"] = (
            (self.field_order_calls, "") if self.field_order_calls is not None
            else (None, "no class gf.FieldOrder to wrap"))

        out.update(self._minrank_counters())
        for fn in ("minrank.build_candidates", "minrank.minrank_bnb", "minrank.extract_code",
                   "minrank.minrank_oracle", "graphs.search_bicliques",
                   "graphs.find_covered_pairs", "covers.tree_cover", "covers.tree_cover_exact",
                   "covers.biclique_cover", "covers.biclique_cover_exact", "codes.verify_code",
                   "codes.decode_coeffs", "experiments.experiment_theorem2",
                   "experiments.experiment_lemma_sweep", "experiments.experiment_fig5",
                   "model.parse_instance"):
            out[f"{fn}.s"] = seconds(fn, note=f"{n_calls(fn)[0]} calls")
        bnb = absent("minrank.minrank_bnb")
        out["minrank.minrank_bnb.self_s"] = (
            (None, bnb) if bnb else (self._bnb_self_seconds(), "gf and codes spans removed"))
        out["model.gen.s"] = seconds("model.gen_random", "model.gen_vanet",
                                     note="gen_random and gen_vanet")
        return out

    def _minrank_counters(self) -> dict[str, tuple[float | None, str]]:
        out = {}
        stats = [s for _kappa, s in self.bnb_results]
        for metric, key in BNB_COUNTERS.items():
            out[metric] = _stats_sum(stats, key, f"{len(stats)} minrank_bnb results")
        ran = improved = 0
        missing = [k for k in ("column_nodes_explored", "row_rank_bound")
                   if any(k not in s for s in stats)]
        if missing:
            out["minrank.stage2_improved_frac"] = (
                None, f"MinrankResult.stats has no {missing[0]!r}")
        else:
            for kappa, s in self.bnb_results:
                if s["column_nodes_explored"]:
                    ran += 1
                    improved += kappa < s["row_rank_bound"]
            out["minrank.stage2_improved_frac"] = (
                improved / ran if ran else 0.0,
                f"stage two beat the row rank in {improved} of {ran} solves where it ran")
        metric, key = ORACLE_COUNTER
        out[metric] = _stats_sum(self.oracle_stats, key,
                                 f"{len(self.oracle_stats)} minrank_oracle results")
        return out

    def _bnb_self_seconds(self) -> float:
        """minrank_bnb span time minus the outermost gf and codes spans inside it."""
        bnb = self._name_ids["minrank.minrank_bnb"]
        removable = [n.startswith(("gf.", "codes.")) for n in self.names]
        # owner[i]: the minrank_bnb span whose self time span i is removed
        # from, or -1 when none is, or when a gf/codes span already covers i.
        owner = array("i", [-1]) * len(self.start)
        total = removed = 0
        for i, (p, nid) in enumerate(zip(self.parent, self.name)):
            if nid == bnb:
                total += self.end[i] - self.start[i]
            if p < 0:
                continue
            pname = self.name[p]
            if pname == bnb:
                owner[i] = p
            elif not removable[pname]:
                owner[i] = owner[p]
            if removable[nid] and owner[i] >= 0:
                removed += self.end[i] - self.start[i]
        return (total - removed) / 1e9

    # ---------- output ----------

    def write_spans(self, path: Path) -> None:
        """`path` gets the raw arrays; `path` + ".json" describes them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("start_ns", self.start), ("end_ns", self.end), ("name", self.name),
                   ("parent", self.parent), ("item", self.item))
        with open(path, "wb") as f:
            for _label, arr in columns:
                arr.tofile(f)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[label, arr.typecode] for label, arr in columns],
        }
        Path(f"{path}.json").write_text(json.dumps(header))


def _stats_sum(stats: list[dict], key: str, note: str) -> tuple[float | None, str]:
    if any(key not in s for s in stats):
        return None, f"MinrankResult.stats has no {key!r}"
    return sum(s[key] for s in stats), note


def read_spans(path: Path) -> dict:
    """Inverse of Tracer.write_spans: {"names": [...], column label: array}."""
    header = json.loads(Path(f"{path}.json").read_text())
    out = {"names": header["names"]}
    with open(path, "rb") as f:
        for label, typecode in header["columns"]:
            arr = array(typecode)
            arr.fromfile(f, header["spans"])
            out[label] = arr
    return out


def loaded_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "eicp" or name.startswith("eicp.")}


def leftover_wrappers() -> list[str]:
    """Attributes of loaded eicp modules that still hold a wrapper."""
    found = [f"{name}.{attr}" for name, mod in loaded_modules().items()
             for attr, obj in vars(mod).items() if getattr(obj, WRAPPED_MARK, False)]
    gf = sys.modules.get("eicp.gf")
    if gf is not None:
        new = gf.FieldOrder.__dict__.get("__new__")
        if getattr(getattr(new, "__func__", new), WRAPPED_MARK, False):
            found.append("eicp.gf.FieldOrder.__new__")
    return found
