"""In-memory spans around calls into the program's modules.

The tracer never edits the program: it replaces module attributes with
wrappers for the duration of a traced section and puts the originals back
afterwards. A span records its name, start, end, parent and the run id;
spans are kept in memory and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [span_id, name, start, end, parent_id]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Open a span named `name` around every call of `module.attr`."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.patch(module, attr, traced)

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def busy_seconds(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover.

        The program runs on one thread, so children of a span never overlap
        and the time they cover is the sum of their durations.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
