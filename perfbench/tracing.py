"""Per-layer tracing of hesspave from outside the package.

``Tracer.install`` rebinds each traced function in every hesspave module that
holds it, so calls through names re-imported into ``paving``,
``orbit_oracle`` or ``cli`` are traced too, and ``uninstall`` restores the
originals.  Boundary functions become spans (name, start, end, parent id,
run id) kept in memory; the hot leaves keep counts (and, for
``WeylElement.act``, accumulated time) instead of spans.  A span's self time
is its duration minus the time of the spans and timed leaves it encloses.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs traced as spans: the functions other modules
# import, plus the entry points the workloads call.
SPANS = (
    ("cli", "main"),
    ("paving", "pave"),
    ("paving", "cell_report"),
    ("paving", "poincare"),
    ("weyl", "enumerate_weyl"),
    ("weyl", "inversion_set"),
    ("hessenberg", "complement_roots"),
    ("hessenberg", "enumerate_spaces"),
    ("operators", "canonical_form"),
    ("operators", "levi_roots"),
    ("operators", "semisimple_functional"),
    ("operators", "multidiagram_of"),
    ("orbit_oracle", "orbit_roots"),
    ("orbit_oracle", "restricted_orbit_roots"),
    ("orbit_oracle", "generic_conjugate"),
    ("orbit_oracle", "cell_dim_oracle"),
    ("orbit_oracle", "operator_matrix"),
    ("tableaux", "multidiagram_nonempty"),
    ("tableaux", "multidiagram_dimension"),
)
# (module, class, method, name, timed): hot leaves, counted without spans.
LEAVES = (
    ("weyl", "WeylElement", "act", "weyl.act", True),
    ("polynomial", "Poly", "__mul__", "polynomial.mul", False),
    ("polynomial", "Poly", "__add__", "polynomial.add", False),
)

# Reported call counts and self-time shares, by span or leaf name.
CALLS = (
    "paving.cell_report",
    "weyl.inversion_set",
    "weyl.act",
    "hessenberg.complement_roots",
    "operators.canonical_form",
    "operators.levi_roots",
    "operators.semisimple_functional",
    "orbit_oracle.operator_matrix",
    "orbit_oracle.cell_dim_oracle",
    "polynomial.mul",
    "polynomial.add",
)
SELF_SHARES = (
    "paving.cell_report",
    "paving.poincare",
    "weyl.enumerate_weyl",
    "weyl.inversion_set",
    "weyl.act",
    "hessenberg.complement_roots",
    "hessenberg.enumerate_spaces",
    "orbit_oracle.orbit_roots.symbolic",
    "orbit_oracle.orbit_roots.randomized",
    "orbit_oracle.generic_conjugate",
    "orbit_oracle.cell_dim_oracle",
    "tableaux.multidiagram_nonempty",
    "tableaux.multidiagram_dimension",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stack = [[0, 0.0]]  # [span id, seconds of enclosed children]
        self._ids = itertools.count(1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inconsistent = 0
        self._inversion_args: set = set()
        self._restore: list[tuple] = []
        self._weyl_caches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, rename=None, after=None):
        spans, stack, ids = self.spans, self.stack, self._ids
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            label = rename(args, kwargs) if rename else name
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent[1] += dur
                calls[label] += 1
                self_s[label] += dur - frame[1]
                spans.append((frame[0], label, start, end, parent[0]))
            if after:
                after(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn, timed):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        if not timed:
            def counter(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counter

        def timer(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                calls[name] += 1
                self_s[name] += dur
                stack[-1][1] += dur

        return timer

    # -- install / uninstall ------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        """Point every module- or class-level binding of ``original`` in the
        hesspave package at ``replacement``."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("hesspave") or mod is None:
                continue
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, attr, value))
                        setattr(owner, attr, replacement)

    def install(self):
        import hesspave.cli  # noqa: F401  (loads every module)

        mods = {name: sys.modules[f"hesspave.{name}"] for name, _ in SPANS}
        mods["polynomial"] = sys.modules["hesspave.polynomial"]
        orbit = mods["orbit_oracle"]
        self._weyl_caches = [
            v for v in vars(mods["weyl"]).values() if hasattr(v, "cache_info")
        ]

        def orbit_mode(args, kwargs):
            system = kwargs.get("system", args[1] if len(args) > 1 else None)
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "auto")
            if mode == "auto":
                auto_rank = getattr(orbit, "AUTO_SYMBOLIC_RANK", 3)
                mode = "symbolic" if system.rank <= auto_rank else "randomized"
            return f"orbit_oracle.orbit_roots.{mode}"

        def note_inversion(args, result):
            self._inversion_args.add(args[0])

        def note_verdict(args, verdict):
            if getattr(verdict, "kind", None) == "inconsistent":
                self.inconsistent += 1

        hooks = {
            "orbit_oracle.orbit_roots": {"rename": orbit_mode},
            "weyl.inversion_set": {"after": note_inversion},
            "orbit_oracle.cell_dim_oracle": {"after": note_verdict},
        }
        for modname, fname in SPANS:
            name = f"{modname}.{fname}"
            fn = getattr(mods[modname], fname)
            self._rebind_everywhere(fn, self._span(name, fn, **hooks.get(name, {})))
        for modname, cls, meth, name, timed in LEAVES:
            fn = vars(getattr(mods[modname], cls))[meth]
            self._rebind_everywhere(fn, self._leaf(name, fn, timed))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def _pct_ms(self, name, q):
        """Percentile q of the span's inclusive durations, in ms."""
        d = sorted(end - start for _, n, start, end, _ in self.spans if n == name)
        if not d:
            return 0.0
        return 1000 * d[min(len(d) - 1, int(q * len(d)))]

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics.  Self times are shares of the traced wall time:
        on a host whose speed drifts they compare across runs where seconds
        do not, and ``trace.wall_s`` turns them back into seconds."""
        c = self.calls
        share = defaultdict(float, {k: v / wall_s for k, v in self.self_s.items()})
        out = {f"{name}.calls": c[name] for name in CALLS}
        out.update({f"{name}.self_share": share[name] for name in SELF_SHARES})
        inv_calls = c["weyl.inversion_set"]
        out.update({
            "orbit_oracle.orbit_roots.calls": (
                c["orbit_oracle.orbit_roots.symbolic"]
                + c["orbit_oracle.orbit_roots.randomized"]
            ),
            "operators.self_share": sum(
                v for k, v in share.items() if k.startswith("operators.")
            ),
            "paving.cell_report.p50_ms": self._pct_ms("paving.cell_report", 0.50),
            "paving.cell_report.p99_ms": self._pct_ms("paving.cell_report", 0.99),
            # share of calls whose argument an earlier call already had
            "weyl.inversion_set.hit_ratio": (
                (inv_calls - len(self._inversion_args)) / inv_calls if inv_calls else 0.0
            ),
            "weyl.cache_entries": sum(f.cache_info().currsize for f in self._weyl_caches),
            "orbit_oracle.cell_dim_oracle.inconsistent": self.inconsistent,
            "trace.wall_s": wall_s,
            "trace.coverage": sum(share.values()),
        })
        return out

    def write_spans(self, path):
        """One CSV line per span: id, name, start, end, parent id, run id."""
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,run\n")
            for sid, name, start, end, parent in self.spans:
                f.write(f"{sid},{name},{start:.9f},{end:.9f},"
                        f"{parent},{self.run_id}\n")
