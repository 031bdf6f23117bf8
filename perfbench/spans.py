"""In-memory call tracing for the benchmark's traced runs.

`Tracer.install` swaps every public function and method of the given
modules for a wrapper that records one span per call: a key naming the
call, its start and end time, and the index of the span that was open when
it began (its parent). Spans stay in memory, in compact arrays, until
`fold` turns them into per-key call counts, inclusive times and self times.
`uninstall` puts the original functions back.

Everything here runs in the benchmark process; the program under test is
not modified on disk.
"""

import contextlib
import functools
import inspect
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

ROOT = -1


def percentile(values, q):
    """q-th percentile (0-100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(parents, starts, ends):
    """Each span's duration minus the part of it covered by its children.

    Spans come from one thread, so a parent's children are disjoint
    intervals inside it and their coverage is the sum of their durations.
    """
    parents = np.asarray(parents)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def inside(parents, marked):
    """Flag each span that is marked or has a marked ancestor.

    Parents precede their children, so each pass settles one more level of
    nesting; the loop ends once a pass changes nothing.
    """
    parents = np.asarray(parents)
    flags = np.asarray(marked, dtype=bool).copy()
    nested = parents >= 0
    safe = np.where(nested, parents, 0)
    while True:
        nxt = flags | (nested & flags[safe])
        if np.array_equal(nxt, flags):
            return flags
        flags = nxt


@dataclass
class Agg:
    """Folded spans of one key."""

    calls: int = 0
    total: float = 0.0  # inclusive seconds
    self_s: float = 0.0
    calls_in: int = 0  # calls made inside a context span (see Tracer.context)
    durations: list = field(default_factory=list)  # kept for Tracer.keep names


class Tracer:
    """Records spans around calls; folds them into per-key aggregates.

    A key is (name, tag). The name is "<layer>.<qualified name>"; the tag
    is None unless a tag function was given for that name, in which case
    it is computed from the call's positional arguments (for example the
    network and batch size of an Mlp.forward call).
    """

    def __init__(self, tags=None, context=(), keep=()):
        self.tags = dict(tags or {})
        self.context = frozenset(context)  # names whose subtree calls_in counts
        self.keep = frozenset(keep)  # names whose span durations are kept
        self.current = ROOT
        self.table = {}  # key -> Agg
        self._key_ids = {}
        self._keys = []
        self._patches = []
        self._clear_spans()

    def _clear_spans(self):
        self._key_of = array("i")
        self._parent_of = array("i")
        self._start = array("d")
        self._end = array("d")

    def span_count(self):
        return len(self._key_of)

    def _key(self, name, tag):
        k = (name, tag)
        kid = self._key_ids.get(k)
        if kid is None:
            kid = self._key_ids[k] = len(self._keys)
            self._keys.append(k)
        return kid

    def _open(self, kid):
        i = len(self._key_of)
        self._key_of.append(kid)
        self._parent_of.append(self.current)
        self._end.append(0.0)
        self.current = i
        self._start.append(perf_counter())
        return i

    def _close(self, i):
        self._end[i] = perf_counter()
        self.current = self._parent_of[i]

    @contextlib.contextmanager
    def span(self, name):
        """Record one span under `name` around the with-block."""
        i = self._open(self._key(name, None))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn):
        tag = self.tags.get(name)
        fixed = self._key(name, None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kid = fixed if tag is None else tracer._key(name, tag(args))
            i = tracer._open(kid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def install(self, modules, aliases=()):
        """Wrap the public functions and class methods defined in `modules`.

        A module-level function is replaced under every name that refers to
        it in `modules` and `aliases` (the package re-exports and imports
        functions by name). Names are "<layer>.<qualname>" with the layer
        being the module's last dotted component.
        """
        where = list(modules) + list(aliases)
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _is_function(value, module):
                    wrapper = self.wrap(f"{layer}.{attr}", value)
                    for m in where:
                        for name, v in list(vars(m).items()):
                            if v is value:
                                self._patch(m, name, value, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(layer, value)

    def _install_class(self, layer, cls):
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(desc, (classmethod, staticmethod)):
                wrapped = type(desc)(self.wrap(name, desc.__func__))
            elif inspect.isfunction(desc):
                wrapped = self.wrap(name, desc)
            else:  # properties, constants, dataclass fields
                continue
            self._patch(cls, attr, desc, wrapped)

    def hook_init(self, cls, after):
        """Call after(instance) once cls.__init__ returns (no span)."""
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            after(obj)

        self._patch(cls, "__init__", original, init)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fold(self):
        """Move every recorded span into `table`; all spans must be closed."""
        if self.current != ROOT:
            raise RuntimeError("fold called with a span still open")
        n = len(self._key_of)
        if n == 0:
            return
        keys = np.frombuffer(self._key_of, dtype=np.int32)
        parents = np.frombuffer(self._parent_of, dtype=np.int32)
        starts = np.frombuffer(self._start, dtype=float)
        ends = np.frombuffer(self._end, dtype=float)
        nkeys = len(self._keys)
        dur = ends - starts
        selfs = self_times(parents, starts, ends)
        ctx_ids = [i for i, (name, _) in enumerate(self._keys) if name in self.context]
        in_ctx = inside(parents, np.isin(keys, ctx_ids))
        calls = np.bincount(keys, minlength=nkeys)
        total = np.bincount(keys, weights=dur, minlength=nkeys)
        self_sum = np.bincount(keys, weights=selfs, minlength=nkeys)
        calls_in = np.bincount(keys[in_ctx], minlength=nkeys)
        for kid in np.flatnonzero(calls):
            key = self._keys[kid]
            agg = self.table.setdefault(key, Agg())
            agg.calls += int(calls[kid])
            agg.total += float(total[kid])
            agg.self_s += float(self_sum[kid])
            agg.calls_in += int(calls_in[kid])
            if key[0] in self.keep:
                agg.durations.extend(dur[keys == kid].tolist())
        del keys, parents, starts, ends
        self._clear_spans()


def _is_function(value, module):
    return inspect.isfunction(value) and value.__module__ == module.__name__
