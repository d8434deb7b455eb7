"""In-memory span recorder that wraps callables from outside the code it times.

A span is one call of a wrapped callable: its name, start and end on the
`perf_counter_ns` clock, and the index of the span that was open when it
began (its parent). Spans are appended to flat arrays while the program
runs and turned into numpy arrays, self times and totals only at the end.
A span's self time is its duration minus the durations of its children;
children nest inside their parent, so it is never negative.

The recorder assumes one thread: the open-span stack is shared.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # 1 when no enclosing open span has the same name, so totals of a
        # recursive name count each outermost call once
        self.outer = array("b")
        self.tags: dict[int, object] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, fn, name: str, tag=None):
        """Wrap fn so each call records a span; tag(args, kwargs, result) is stored."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack, open_count = self._stack, self._open
        name_ix, parent, start, end, outer = (
            self.name_ix, self.parent, self.start, self.end, self.outer
        )
        tags = self.tags

        def wrapper(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            depth = open_count.get(nid, 0)
            outer.append(depth == 0)
            open_count[nid] = depth + 1
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                open_count[nid] = depth
            if tag is not None:
                tags[i] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, observe):
        """Wrap fn so observe(counters, args, kwargs, result) runs after each call."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def wrap_here(self, owner, attr: str, make) -> bool:
        """Replace one binding, owner.attr (a module, class or dict), by make(original).

        A classmethod is unwrapped and re-wrapped so the class still binds it.
        Returns False, patching nothing, when the binding no longer exists.
        """
        where = owner if isinstance(owner, dict) else vars(owner)
        if attr not in where:
            return False
        original = where[attr]
        if isinstance(original, classmethod):
            self._patch(owner, attr, classmethod(make(original.__func__)))
        else:
            self._patch(owner, attr, make(original))
        return True

    def wrap_everywhere(self, module, attr: str, make, package: str) -> bool:
        """Wrap module.attr in every module of the package that binds the same object.

        Returns False, patching nothing, when module.attr no longer exists.
        """
        if attr not in vars(module):
            return False
        original = vars(module)[attr]
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, replacement)
        return True

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with durations and self times in ns."""
        name_ix = np.frombuffer(self.name_ix, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name_ix": name_ix,
            "parent": parent,
            "start_ns": start,
            "end_ns": end,
            "duration_ns": duration,
            "self_ns": duration - child,
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }

    def save(self, path: str) -> None:
        """Write the spans (with self times) and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())
