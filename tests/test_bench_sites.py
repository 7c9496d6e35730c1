"""The library names the benchmark's tracer rebinds.

`perfbench/bench_trace.py` wraps public names of ainfbg where their
callers look them up, some of them imported only for that purpose.  A
deleted or moved name would otherwise surface only in the benchmark's own
subprocess runs.
"""

import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_sites",
                                                  BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    trace = load_bench_trace()
    sites = [site for table in (trace.SPANS, trace.COUNTED)
             for group in table.values() for site in group]
    assert sites
    missing = []
    for site in sites:
        try:
            owner, attr = trace._resolve(site)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{site}: {exc}")
            continue
        if not hasattr(owner, attr):
            missing.append(site)
    assert missing == []
