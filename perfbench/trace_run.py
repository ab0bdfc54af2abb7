"""Run one growth command with every public function of the growth modules
wrapped in a span recorder, and write per-function counts and times.

    python3 perfbench/trace_run.py STATS_JSON SPANS_BIN growth-arguments...

The command's output goes to stdout exactly as `growth` would print it, and
the exit code is the command's.  The spans stay in memory while the command
runs; at exit they are written to SPANS_BIN and summarised in STATS_JSON.
Nothing in the growth package is edited: the wrappers are installed by
rebinding names, both in the module that defines a function and in every
growth module that imported it by name.
"""

import functools
import importlib
import json
import pkgutil
import sys
import time
import types
from array import array

# Methods traced besides each module's public functions: the solver's
# steps, and the class constructor that the tableaux layer spends its
# time in.
METHODS = (
    ("cylgrowth", "_Completion", "solve"),
    ("cylgrowth", "_Completion", "_square"),
    ("cylgrowth", "_Completion", "_glide"),
    ("tableaux", "DualClass", "of"),
)

# Cached functions whose cache_info() change is reported.
CACHES = (
    ("tableaux", "canonical_rep"),
    ("partitions", "_lr2"),
    ("partitions", "_lr_multi"),
    ("partitions", "_chain_count"),
    ("partitions", "_shapes_between"),
)

# Functions whose results are measured as well: the cover graph's edge
# count is the numerator of moduli.edge_yield.
RESULTS = {"moduli.build_cover_graph": lambda graph: len(graph.edges)}

SPAN_FORMAT = "one record per span: name id (int32), parent index (int32, " \
    "-1 at the root), start and end (float64 seconds), as four arrays"


class Tracer:
    """Spans in four parallel arrays: name id, parent index, start, end.
    A span's index is its position in start order."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self):
        """Per name: calls, inclusive seconds (time covered by the name's
        spans, so recursion is not counted twice) and self seconds (span
        time not covered by child spans).  Also the same per module."""
        n = len(self.starts)
        child = array("d", bytes(8 * n))
        starts, ends, parents, name_ids = (
            self.starts, self.ends, self.parents, self.name_ids)
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        modules = sorted({name.split(".")[0] for name in self.names})
        module_of = [modules.index(name.split(".")[0]) for name in self.names]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        covered_to = [0.0] * len(self.names)
        mod_incl = [0.0] * len(modules)
        mod_covered_to = [0.0] * len(modules)
        for i in range(n):
            nid = name_ids[i]
            start, end = starts[i], ends[i]
            calls[nid] += 1
            self_s[nid] += end - start - child[i]
            # spans are properly nested and in start order, so a span
            # starting before the last counted one ended lies inside it
            if start >= covered_to[nid]:
                incl[nid] += end - start
                covered_to[nid] = end
            m = module_of[nid]
            if start >= mod_covered_to[m]:
                mod_incl[m] += end - start
                mod_covered_to[m] = end
        functions = {name: {"calls": calls[k], "s": incl[k],
                            "self_s": self_s[k]}
                     for k, name in enumerate(self.names)}
        per_module = {}
        for k, name in enumerate(self.names):
            entry = per_module.setdefault(
                name.split(".")[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls[k]
            entry["self_s"] += self_s[k]
        for m, module in enumerate(modules):
            per_module[module]["s"] = mod_incl[m]
        return functions, per_module

    def descendant_calls(self, ancestor_name, names):
        """Number of spans named in names with an ancestor named
        ancestor_name."""
        aid = self.names.index(ancestor_name)
        wanted = {self.names.index(c) for c in names}
        name_ids, parents = self.name_ids, self.parents
        inside = array("b", bytes(len(parents)))
        count = 0
        for i, p in enumerate(parents):
            if p >= 0 and (inside[p] or name_ids[p] == aid):
                inside[i] = 1
                if name_ids[i] in wanted:
                    count += 1
        return count

    def write_spans(self, path):
        with open(path, "wb") as handle:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(handle)


def _public_functions(module):
    """Functions a module defines under public names, including cached
    ones."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            out[attr] = obj
    return out


def _measuring(fn, measure, into):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        result = fn(*args, **kwargs)
        into.append(measure(result))
        return result

    return measured


def install(tracer, modules, results):
    """Wrap the public functions of every module and rebind each wrapper
    wherever a growth module holds the original by name.  The measures in
    RESULTS are appended to results[name]."""
    wrapped = {}
    for short, module in modules.items():
        for attr, fn in _public_functions(module).items():
            name = f"{short}.{attr}"
            if name in RESULTS:
                fn = _measuring(fn, RESULTS[name],
                                results.setdefault(name, []))
            wrapped[id(getattr(module, attr))] = tracer.wrap(name, fn)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    # run_checks reads its checks from this table, not from module names
    checks = modules["checks"]
    checks.CHECKS = tuple((name, suite, wrapped.get(id(fn), fn))
                          for name, suite, fn in checks.CHECKS)
    for short, cls_name, attr in METHODS:
        cls = getattr(modules[short], cls_name)
        raw = cls.__dict__[attr]
        name = f"{short}.{cls_name}.{attr}"
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))


def _cache_infos(caches):
    return {name: fn.cache_info() for name, fn in caches.items()}


def main(argv):
    stats_path, spans_path, growth_argv = argv[0], argv[1], argv[2:]
    import growth
    modules = {info.name: importlib.import_module(f"growth.{info.name}")
               for info in pkgutil.iter_modules(growth.__path__)}
    caches = {f"{short}.{attr}": getattr(modules[short], attr)
              for short, attr in CACHES}
    tracer = Tracer()
    results = {}
    install(tracer, modules, results)
    before = _cache_infos(caches)
    code = modules["cli"].main(growth_argv)
    after = _cache_infos(caches)
    sys.stdout.flush()
    functions, per_module = tracer.summary()
    stats = {
        "exit_code": code,
        "spans": len(tracer.starts),
        "span_format": SPAN_FORMAT,
        "span_names": tracer.names,
        "functions": functions,
        "modules": per_module,
        "caches": {key: {"hits": after[key].hits - before[key].hits,
                         "misses": after[key].misses - before[key].misses}
                   for key in before},
        "fiber_enumerations": tracer.descendant_calls(
            "moduli.build_cover_graph",
            ["cylgrowth.cgd_enumerate", "decgd.decgd_enumerate"]),
        "cover_edges": sum(results["moduli.build_cover_graph"]),
        "cover_crossings": tracer.descendant_calls(
            "moduli.build_cover_graph",
            ["moduli.cross_cgd", "moduli.cross_decgd"]),
    }
    tracer.write_spans(spans_path)
    with open(stats_path, "w") as handle:
        json.dump(stats, handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
