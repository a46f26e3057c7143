"""Call tracing for one ballab job process, installed from outside the program.

The tracer replaces public functions at the place their caller looks them up
(``ballab.diophantine.power_residue_sieve``, not only ``ballab.modular``), so
the program itself is unchanged.  Boundary calls (the job, ``cli.main``, each
search and each verify suite) are recorded as spans; hot leaves are only
aggregated as call counts, total time and self time (total minus the time of
traced calls made inside them).  Everything stays in memory and is returned
by ``Tracer.report()`` when the job ends.

Two modes:

``full``  every layer below; used for serial jobs.
``pool``  only the search boundary and the process pool.  Pool workers are
          forked from the job process and would inherit leaf wrappers whose
          counts are lost with the worker, so pool jobs trace the pool alone
          and their layers come from a serial traced run of the same job.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import resource
import time

_clock = time.perf_counter_ns

# layer -> places the callers look the function up, as "module:attribute"
LEAVES = {
    "cli.serialize": ["ballab.cli:canonical_json"],
    "diophantine.power_test": ["ballab.diophantine:_maybe_decompose"],
    "modular.sieve": ["ballab.diophantine:power_residue_sieve"],
    "modular.period": ["ballab.cli:period", "ballab.verify:period"],
    "modular.term_mod": ["ballab.modular:term_mod"],
    "bigmath.decompose": ["ballab.diophantine:perfect_power_decompose"],
    "bigmath.kth_root": ["ballab.bigmath:integer_kth_root", "ballab.diophantine:integer_kth_root"],
    "bigmath.strip": ["ballab.diophantine:strip_prime"],
    "bigmath.gcd": ["ballab.verify:gcd"],
    "sequences.values": ["ballab.diophantine:values_up_to", "ballab.verify:values_up_to",
                         "ballab.sequences:values_up_to"],
    "sequences.term": ["ballab.cli:term", "ballab.diophantine:term"],
    "quadring.binet": ["ballab.quadring:binet_extract", "ballab.verify:binet_extract"],
    "quadring.qpow": ["ballab.quadring:qpow", "ballab.verify:qpow"],
    "verify.run_suite": ["ballab.cli:run_suite"],
    "diophantine.reverify": ["ballab.diophantine:SolutionRecord.verify",
                             "ballab.diophantine:SpecialFormRecord.verify",
                             "ballab.diophantine:ProductFormRecord.verify"],
}

# layer -> places of one functools.lru_cache; only cache misses are timed
CACHE_FILLS = {
    "modular.moduli_fill": ["ballab.modular:default_sieve_moduli"],
    "bigmath.primes_fill": ["ballab.bigmath:primes_up_to", "ballab.diophantine:primes_up_to"],
}

SEARCHES = ["ballab.cli:search_sum_power", "ballab.cli:search_square_diff",
            "ballab.cli:search_cube_sum", "ballab.cli:search_product_form",
            "ballab.cli:search_special_form"]

SUITES = {
    "verify.identities": ["ballab.verify:identity_suite"],
    "verify.gcd": ["ballab.verify:gcd_suite"],
    "verify.modular": ["ballab.verify:modular_suite"],
}

POOL = "ballab.diophantine:ProcessPoolExecutor"


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _resolve(place: str):
    """(owner, attribute name, current value) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.agg: dict[str, list[int]] = {}   # layer -> [calls, total_ns, self_ns]
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []           # [span_id, parent_id, name, start_ns, end_ns]
        self.missing: list[str] = []          # patch points the program no longer has
        self._child_ns = [0]
        self._open_spans = [None]

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, fn, after=None, span: bool = False):
        agg = self.agg.setdefault(layer, [0, 0, 0])
        child_ns = self._child_ns
        open_spans = self._open_spans
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span:
                record = [len(spans), open_spans[-1], layer, 0, 0]
                spans.append(record)
                open_spans.append(record[0])
            child_ns.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - inner
                if span:
                    open_spans.pop()
                    record[3], record[4] = start, start + elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) as a recorded span."""
        return self.wrap(name, fn, span=True)(*args)

    def patch(self, layer: str, places: list[str], after=None, span: bool = False) -> None:
        for place in places:
            owner, attr, fn = _resolve(place)
            if fn is None:
                self.missing.append(place)
                continue
            setattr(owner, attr, self.wrap(layer, fn, after, span))

    def patch_cache(self, layer: str, places: list[str]) -> None:
        """Re-create an lru_cache around a timed copy of the function it caches.

        One new cache object is installed at every place, so the places keep
        sharing one cache as they do in the program.
        """
        _, _, cached = _resolve(places[0])
        raw = getattr(cached, "__wrapped__", None)
        if raw is None:
            self.missing.append(places[0])
            return
        replacement = functools.lru_cache(maxsize=None)(self.wrap(layer, raw))
        for place in places:
            owner, attr, fn = _resolve(place)
            if fn is None:
                self.missing.append(place)
            else:
                setattr(owner, attr, replacement)

    def patch_pool(self) -> None:
        owner, attr, base = _resolve(POOL)
        if base is None:
            self.missing.append(POOL)
            return
        tracer = self

        class TracedPool(base):
            """Times the pool's life, its start-up, its workers' CPU and pickled bytes."""

            def __init__(self, max_workers=None, *args, **kwargs):
                self._bench_start = _clock()
                self._bench_cpu = _children_cpu_s()
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                columns = [list(column) for column in iterables]
                tracer.count("pool.bytes", sum(len(pickle.dumps((fn, task)))
                                               for task in zip(*columns)))
                results = super().map(fn, *columns, **kwargs)
                # submitting the first task forks every worker
                tracer.count("pool.startup_ns", _clock() - self._bench_start)
                return self._bench_result_bytes(results)

            def _bench_result_bytes(self, results):
                for result in results:
                    tracer.count("pool.bytes", len(pickle.dumps(result)))
                    yield result

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    wall_ns = _clock() - self._bench_start
                    tracer.count("pool.wall_ns", wall_ns)
                    tracer.count("pool.worker_cpu_s", _children_cpu_s() - self._bench_cpu)
                    tracer.count("pool.capacity_s", self._max_workers * wall_ns / 1e9)
                    tracer.spans.append([len(tracer.spans), tracer._open_spans[-1],
                                         "diophantine.pool", self._bench_start,
                                         self._bench_start + wall_ns])

        setattr(owner, attr, TracedPool)

    def install(self, mode: str) -> None:
        self.patch("diophantine.search", SEARCHES, span=True)
        if mode == "pool":
            self.patch_pool()
            return
        if mode != "full":
            raise ValueError(f"unknown trace mode {mode!r}")
        count = self.count
        after = {
            "cli.serialize": lambda args, result: count("cli.serialize_bytes", len(result)),
            "bigmath.decompose": lambda args, result: count(
                "bigmath.decompose_hits", int(result.is_perfect_power)),
            "sequences.values": lambda args, result: count("sequences.values_terms", len(result)),
            "verify.run_suite": lambda args, result: count(
                "verify.cases", sum(check.checked for check in result)),
        }
        for layer, places in LEAVES.items():
            self.patch(layer, places, after.get(layer))
        for layer, places in CACHE_FILLS.items():
            self.patch_cache(layer, places)
        for layer, places in SUITES.items():
            self.patch(layer, places, span=True)

    def report(self) -> dict:
        return {
            "agg": self.agg,
            "counts": self.counts,
            "spans": [[self.job_id, *span] for span in self.spans],
            "missing": self.missing,
        }
