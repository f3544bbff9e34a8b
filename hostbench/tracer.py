"""Per-function spans for sl3web, installed from outside the package.

Every public function of every sl3web module is replaced by a wrapper in
every sl3web namespace that holds it (including the ``checks.CHECKS``
table), so calls made through imported names are seen too.  A few
methods that carry the costs the layer metrics name are wrapped on their
class.  Each wrapper records calls, inclusive seconds, self seconds
(inclusive minus the time of wrapped calls it made) and, for list or
tuple results, the number of items returned.  Nothing under src/ is
edited; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Methods wrapped on their class: filling construction and validation,
# filling entries, and Laurent arithmetic.
METHODS = (
    ("sl3web.tableaux", "StdMultitableau3", "__init__"),
    ("sl3web.tableaux", "StdMultitableau3", "entries"),
    ("sl3web.laurent", "LaurentPoly", "__add__"),
    ("sl3web.laurent", "LaurentPoly", "__mul__"),
)


def sl3web_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "sl3web" or name.startswith("sl3web.")]


def _is_public_function(obj, module_name: str, name: str) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or callable(getattr(obj, "cache_clear", None))


class Tracer:
    def __init__(self):
        # key -> [calls, inclusive s, self s, items]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self.wrapped = 0
        self.flow_webs = 0
        self._webs_seen: set = set()

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if stack:
                    stack[-1] += dt
            if isinstance(result, (list, tuple)):
                stats[3] += len(result)
            return result

        return span

    def install(self) -> None:
        modules = sl3web_modules()
        spans: dict[int, object] = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if _is_public_function(obj, mod.__name__, name):
                    key = f"{mod.__name__.removeprefix('sl3web.')}.{name}"
                    spans[id(obj)] = self._wrap(key, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in spans:
                    setattr(mod, name, spans[id(obj)])
                    self.wrapped += 1
        checks = sys.modules["sl3web.checks"]
        for name, fn in checks.CHECKS.items():
            if id(fn) in spans:
                checks.CHECKS[name] = spans[id(fn)]
                self.wrapped += 1
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            key = f"{mod_name.removeprefix('sl3web.')}.{cls_name}.{attr}"
            setattr(cls, attr, self._wrap(key, getattr(cls, attr)))
            self.wrapped += 1
        # distinct webs that flows were enumerated on, for the wasted-work ratio
        flows = sys.modules["sl3web.flows"]
        counted = flows.enumerate_flows
        seen = self._webs_seen

        @functools.wraps(counted)
        def enumerate_flows(web):
            seen.add(web)
            return counted(web)

        for mod in modules:
            if getattr(mod, "enumerate_flows", None) is counted:
                mod.enumerate_flows = enumerate_flows

    def end_command(self) -> None:
        """Close one command: its distinct webs count towards flow_webs."""
        self.flow_webs += len(self._webs_seen)
        self._webs_seen.clear()

    def report(self) -> dict:
        return {"functions": self.stats, "flow_webs": self.flow_webs}
