"""Run one aurcase command in-process with its layer functions wrapped.

    python trace_child.py SPANS_JSON INVOCATION_ID -- AURCASE_ARGV...

The process imports `aurcase.cli` fresh and times that import. It then
replaces each function in `LAYERS` at every `aurcase` module binding that
holds it with a wrapper recording a span (name, start, end, parent span,
invocation id), runs `aurcase.cli.run(argv)`, puts the original functions
back and writes the spans to SPANS_JSON.  Spans stay in memory until the
command has finished.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import sys
import time

# Module -> public functions wrapped.  Each is timed wherever it is bound,
# so a call through `aurcase.cli`, a deferred import or `coverage_mod.*`
# is seen the same way.
LAYERS = {
    "cli": ("run",),
    "dsl": ("parse", "serialize"),
    "model": ("resolve_references",),
    "rules": ("validate",),
    "diagnostics": ("sort_diagnostics",),
    "coverage": ("coverage_map", "gap_report", "aggregation_balance"),
    "report": (
        "trace_matrix",
        "build_report",
        "render_text",
        "render_machine",
        "render_heatmap",
        "render_trace_text",
        "render_diagnostics",
    ),
    "lifecycle": ("parse_ledger", "readiness_review", "rate_upper_bound"),
}


def _aurcase_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "aurcase"]


class Tracer:
    """Wraps the `LAYERS` functions; `restore` undoes every replacement."""

    def __init__(self, invocation: int = 0):
        self.invocation = invocation
        # [name, start_ns, end_ns, parent index, invocation, detail]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.invocation, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "rules.validate":
                span[5] = len(result)
            elif name == "dsl.parse" and args:
                text = args[0]
                span[5] = text.count(b"\n" if isinstance(text, bytes) else "\n")
            return result

        return wrapper

    def install(self) -> None:
        modules = _aurcase_modules()
        for module_name, names in LAYERS.items():
            home = sys.modules[f"aurcase.{module_name}"]
            for func_name in names:
                original = getattr(home, func_name)
                name = f"{module_name}.{func_name}"
                wrapper = self._wrap(name, original)
                self.wrappers[name] = wrapper
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left bound."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        wrappers = {id(w) for w in self.wrappers.values()}
        return not any(
            id(value) in wrappers for m in _aurcase_modules() for value in vars(m).values()
        )


def main(argv: list[str]) -> int:
    spans_path, invocation, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON INVOCATION_ID -- ARGV...")
    started = time.perf_counter_ns()
    import aurcase.cli

    imported = time.perf_counter_ns()
    tracer = Tracer(int(invocation))
    tracer.install()
    try:
        code = aurcase.cli.run(command)
    finally:
        restored = tracer.restore()
        sys.stdout.flush()
    import json  # here, so that the import timed above is aurcase's alone

    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_ns": imported - started,
                "restored": restored,
                "spans": tracer.spans,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
