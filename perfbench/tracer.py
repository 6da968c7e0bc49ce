"""Outside-in span tracer for the h32fem layers.

The tracer wraps every public function of each layer module, the method
`MeshLocator.locate`, and the scipy kernels `scipy.linalg.eigh` and
`scipy.sparse.linalg.factorized`. h32fem modules import by name
(`from .norms import spectral_decomp`), so every module of the package
that binds an original function gets the same wrapper; `uninstall` puts
every original back. Spans (name, start, end, parent, size, run id) are
kept in flat arrays in memory and written out once, by `save`, with the
time one wrapper adds to a call, so that the tracing overhead of a run is
its span count times that cost.
"""

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "h32fem"
LAYERS = (
    "meshing", "quadrature", "basis", "assembly", "norms", "gagliardo",
    "lifting", "interp", "multilinear", "solvers", "studies", "experiments",
    "harness",
)
# (span name, owning module, attribute) of each wrapped scipy kernel.
KERNELS = (
    ("kernel.eigh", "scipy.linalg", "eigh"),
    ("kernel.factorized", "scipy.sparse.linalg", "factorized"),
)
LOCATE = "lifting.MeshLocator.locate"
RUN_EXPERIMENT = "experiments.run_experiment"


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# Work size recorded with each span of these names.
SIZES = {
    "kernel.eigh": lambda a, k: _arg(a, k, 0, "a").shape[0],
    LOCATE: lambda a, k: len(np.atleast_2d(_arg(a, k, 1, "pts"))),
    "gagliardo.gagliardo_seminorms": lambda a, k: _arg(a, k, 1, "mesh").n_elements,
}
# Spans of these names are split by a label taken from the call.
LABELS = {RUN_EXPERIMENT: lambda a, k: _arg(a, k, 0, "name")}


class Tracer:
    """Records one span per call of a wrapped function, tagged with run_id."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self._stack = [-1]
        self._restore = []

    def _name(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name):
        """A wrapper of `fn` that records one span named `name` per call."""
        fixed = self._name(name)
        sizer, labeler = SIZES.get(name), LABELS.get(name)
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            nid = fixed if labeler is None else self._name(f"{name}:{labeler(args, kwargs)}")
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.size.append(0.0 if sizer is None else float(sizer(args, kwargs)))
            self.end.append(np.nan)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function in every module that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import scipy.linalg
        import scipy.sparse.linalg  # noqa: F401  (binds the kernel modules)

        from h32fem.lifting import MeshLocator

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for name, modname, attr in KERNELS:
            obj = getattr(sys.modules[modname], attr)
            wrappers[id(obj)] = (obj, self.wrap(obj, name))
            self._set(sys.modules[modname], attr, wrappers[id(obj)][1])
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:  # originals stay alive in `wrappers`
                    self._set(mod, attr, wrappers[id(obj)][1])
        self._set(MeshLocator, "locate", self.wrap(MeshLocator.locate, LOCATE))
        return self

    def uninstall(self):
        """Put back every original binding, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """The recorded spans as a dict of numpy arrays plus the name table."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
            "run_id": np.full(len(self.start), self.run_id, dtype=np.int32),
        }

    def cost_per_span(self, calls=20000, repeats=5):
        """Seconds a wrapper adds to one call, timed on a no-op function.

        The wrapper belongs to a throwaway tracer, so the timing records no
        spans here; the fastest of `repeats` timings of each side is used.
        """

        def noop():
            return None

        wrapped = Tracer().wrap(noop, "noop")
        best = []
        for fn in (noop, wrapped):
            times = []
            for _ in range(repeats):
                t = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - t)
            best.append(min(times))
        return max(best[1] - best[0], 0.0) / calls

    def save(self, path):
        np.savez(path, cost_per_span=self.cost_per_span(), **self.spans())
