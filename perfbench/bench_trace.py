"""Spans and counts around the public functions of ainfbg.

The tracer rebinds each public name where its caller looks it up: the
glin kernels in `ainfbg.dga`, `contraction` in `ainfbg.transfer` and
`ainfbg.koszul`, and so on.  Calls made inside the defining module, such
as the `row_reduce` that `rank_nullspace` runs inside `glin`, stay out of
the count, so every span is a call across a module boundary.  Nothing
under `src/` changes; `uninstall` restores every original binding.

Spans live in memory as [name, start, end, parent, op] lists and are
written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import time

GLIN_KERNELS = ("row_reduce", "rank_nullspace", "solve", "invert",
                "greedy_extend")

# span name -> the module attributes (or class methods) it is looked up as
SPANS: dict[str, tuple[str, ...]] = {
    "grp.build_end_dga": ("ainfbg.transfer:build_end_dga",),
    "dga.contraction": ("ainfbg.transfer:contraction",
                        "ainfbg.koszul:contraction"),
    "dga.cobar": ("ainfbg.koszul:cobar",),
    "dga.validate_dga": ("ainfbg.dga:validate_dga",),
    "dga.massey_power": ("ainfbg.dga:massey_power",
                         "ainfbg.transfer:massey_power",
                         "ainfbg.koszul:massey_power"),
    **{f"glin.{k}": (f"ainfbg.dga:{k}",) for k in GLIN_KERNELS},
    "transfer.group_minimal_model": ("ainfbg.transfer:group_minimal_model",),
    "transfer.minimal_model": ("ainfbg.transfer:MerkulovTransfer.minimal_model",),
    "transfer.compare_models": ("ainfbg.transfer:compare_models",),
    "ainf.stasheff_defect": ("ainfbg.ainf:stasheff_defect",),
    "ainf.normalize_generators": ("ainfbg.transfer:normalize_generators",
                                  "ainfbg.koszul:normalize_generators"),
    "ainf.classify_admissible": ("ainfbg.ainf:classify_admissible",),
    "koszul.loop_minimal_model": ("ainfbg.koszul:loop_minimal_model",),
    "koszul.poincare_roundtrip": ("ainfbg.koszul:poincare_roundtrip",),
    "koszul.loop_word_count": ("ainfbg.koszul:loop_word_count",),
    "cli.main": ("ainfbg.cli:main",),
    "cli.run_with_cache": ("ainfbg.cli:run_with_cache",),
    "cli.document_hash_ok": ("ainfbg.cli:document_hash_ok",),
    "cli.canonical_json": ("ainfbg.cli:canonical_json",),
}

# called hundreds of thousands of times per tuple: counted, never spanned
COUNTED: dict[str, tuple[str, ...]] = {
    "transfer.op": ("ainfbg.transfer:MerkulovTransfer.op",),
}


def _space_sizes(space) -> tuple[int, int]:
    return (space.total_dim(),
            max((len(labs) for labs in space.blocks.values()), default=0))


def _count_end_dga(tracer: "Tracer", dga) -> None:
    dim, block = _space_sizes(dga.space)
    tracer.add("grp.end_dga.dim", dim)
    tracer.maximum("grp.end_dga.max_block", block)


def _count_cobar(tracer: "Tracer", dga) -> None:
    dim, block = _space_sizes(dga.space)
    tracer.add("dga.cobar.dim", dim)
    tracer.maximum("dga.cobar.max_block", block)


def _count_validation(tracer: "Tracer", report) -> None:
    tracer.add("dga.validate_dga.triples", report.assoc_checked)
    tracer.add("dga.validate_dga.pairs", report.leibniz_checked)


RESULT_COUNTS = {
    "grp.build_end_dga": _count_end_dga,
    "dga.cobar": _count_cobar,
    "dga.validate_dga": _count_validation,
    "ainf.stasheff_defect":
        lambda tracer, rep: tracer.add("ainf.stasheff_defect.words", rep.checked),
    "koszul.loop_word_count":
        lambda tracer, words: tracer.add("koszul.loop_word_count.words", words),
}


def _resolve(site: str):
    """(owner, attribute) for "module:attr" or "module:Class.attr"."""
    module, _, attrs = site.partition(":")
    owner = importlib.import_module(module)
    *path, attr = attrs.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, sites in SPANS.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = getattr(owner, attr)
                if name == "cli.run_with_cache":
                    wrapper = self._cache_span(original)
                else:
                    wrapper = self._span(name, original, RESULT_COUNTS.get(name))
                self._rebind(owner, attr, wrapper)
        for name, sites in COUNTED.items():
            for site in sites:
                owner, attr = _resolve(site)
                self._rebind(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    def _span(self, name: str, fn, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_span(self, fn):
        """run_with_cache, counting a lookup as a hit when `build` is not
        called."""
        spanned = self._span("cli.run_with_cache", fn, None)

        def wrapper(command, args, parameters, build):
            built = []

            def counted_build():
                built.append(True)
                return build()

            result = spanned(command, args, parameters, counted_build)
            self.add("cli.cache.lookups", 1)
            self.add("cli.cache.hits", 0 if built else 1)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Inclusive time, self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["calls"] += 1
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
