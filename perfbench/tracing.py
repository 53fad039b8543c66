"""Per-layer tracing from outside the package.

A ``Tracer`` replaces chosen ``mecpe`` functions and methods with wrappers that
record a span per call: the call count, the inclusive time and the self time
(the span minus the time covered by its child spans).  Spans are aggregated
per name in memory and read out when the benchmark ends.

A wrapper has to sit where the caller resolves the name.  ``training`` binds
``save_model`` and ``cli`` binds ``load_stage_model`` with ``from ... import``,
so patching ``checkpoint.save_model`` alone would miss those calls; ``install``
therefore rebinds every ``mecpe`` module global that refers to the original
function.  Methods are patched on their class, which every caller reaches.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import sys
import time


class Tracer:
    """Calls and self time per span name, plus calls counted within scopes.

    ``scopes`` names spans (usually the benchmark's own operations) inside
    which calls are counted separately, in ``within[(name, scope)]``.
    """

    def __init__(self, scopes=()):
        self.calls = collections.Counter()
        self.total_s = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.within = collections.Counter()
        self.counts = collections.Counter()  # filled by hooks
        self.missing: list[str] = []
        self.enabled = True
        self._scopes = tuple(scopes)
        self._active = collections.Counter()
        self._stack: list[list] = []  # [name, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def _enter(self, name):
        for scope in self._scopes:
            if self._active[scope]:
                self.within[(name, scope)] += 1
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def active(self, name) -> bool:
        return self._active[name] > 0

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrappers

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            done = hook(self, args, kwargs) if hook is not None else None
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if done is not None:
                done(result)
            return result

        return wrapper

    def install(self, targets, hooks=None, package="mecpe"):
        """Wrap each ``"<module>.<function>"`` or ``"<module>.<Class>.<method>"``
        of ``package``.  Targets that do not exist are listed in ``missing``.

        ``hooks`` maps a target to ``hook(tracer, args, kwargs)``, called before
        each recorded call; it may return a function that receives the result.
        """
        hooks = hooks or {}
        for target in targets:
            module_name, _, qualname = target.partition(".")
            module = importlib.import_module(f"{package}.{module_name}")
            owner_name, _, method = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(original):
                    self.missing.append(target)
                    continue
                self._patch(owner, method, self._wrap(target, original, hooks.get(target)))
                continue
            original = getattr(module, qualname, None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, hooks.get(target))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == package or loaded_name.startswith(package + ".")
                ):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> dict:
        """Every recorded span: calls, inclusive and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }


class NullTracer:
    """Stands in for a ``Tracer`` when tracing is off: records no spans."""

    def __init__(self):
        self.counts = collections.Counter()

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()
