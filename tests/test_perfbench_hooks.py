"""The places perfbench/tracer.py hooks, against this library.

The tracer replaces a function at the place its caller looks it up, and a
place that no longer resolves is left out of its layer with only a note in
the trace.  This test pins which places resolve, so a change that drops or
renames a hooked name fails here, and names the place.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Places the library no longer has: term_mod and perfect_power_decompose
# moved to tests/refmath.py, verify stopped importing qpow and gcd, the
# process pool was deleted, and search_pair replaced the three pair searches.
MISSING = {
    "ballab.modular:term_mod",
    "ballab.diophantine:perfect_power_decompose",
    "ballab.verify:qpow",
    "ballab.verify:gcd",
    "ballab.diophantine:ProcessPoolExecutor",
    "ballab.cli:search_sum_power",
    "ballab.cli:search_square_diff",
    "ballab.cli:search_cube_sum",
}


def load_tracer() -> types.ModuleType:
    """perfbench/tracer.py as a module, compiled from its source so no bytecode is written."""
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), TRACER, "exec"), module.__dict__)
    return module


def test_every_hook_resolves_but_the_known_missing():
    tracer = load_tracer()
    places = [place for layers in (tracer.LEAVES, tracer.CACHE_FILLS, tracer.SUITES)
              for group in layers.values() for place in group]
    places += [*tracer.SEARCHES, tracer.POOL]
    assert len(places) == 36
    assert {place for place in places if tracer._resolve(place)[2] is None} == MISSING
