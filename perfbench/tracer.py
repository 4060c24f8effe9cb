"""Spans and counters recorded around the public functions of each layer.

The benchmark measures the library from the outside: entering a
`Tracer` replaces each declared function with a timing wrapper in every
`supervir` module namespace that binds it (a `from .x import y` makes a
second binding that patching the defining module alone would miss), and
the two hot `ModeOperator` methods on the class.  Leaving it puts every
original back.

Every wrapped call adds to its name's call count, total time and self
time (duration minus the time covered by wrapped calls made inside it).
Calls of the coarse layer functions (everything outside HOT) are also
kept as spans: name, start, end, parent span and item id, held in memory
and written out by the caller when the run ends.  The hot functions run
hundreds of thousands of times per item, so they are aggregated only.

`ScalarCounter` counts the `GaussianRational` operations exactly.  It is
used in a separate pass: wrapping a path of over a million calls would
distort the traced timings.
"""

from __future__ import annotations

import sys
import time

# span name -> (defining module, attribute); the class methods are
# looked up on supervir.oscillators.ModeOperator
SPANS = {
    "cli.main": ("supervir.cli", "main"),
    "verify.check_relations": ("supervir.verify", "check_relations"),
    "verify.check_weak_symmetry": ("supervir.verify", "check_weak_symmetry"),
    "verify.fock_pairing_crosscheck": ("supervir.verify", "fock_pairing_crosscheck"),
    "verify.oracle_compare": ("supervir.verify", "oracle_compare"),
    "verify.single_mode_symmetry_control": ("supervir.verify", "single_mode_symmetry_control"),
    "verify.borcherds_consistency": ("supervir.verify", "borcherds_consistency"),
    "realizations.make_mode": ("supervir.realizations", "make_mode"),
    "realizations.realize_word": ("supervir.realizations", "realize_word"),
    "oscillators.apply_state": ("ModeOperator", "apply_state"),
    "oscillators.call": ("ModeOperator", "__call__"),
    "fock.enumerate_basis": ("supervir.fock", "enumerate_basis"),
    "fock.inner_product": ("supervir.fock", "inner_product"),
    "superalg.abstract_gram": ("supervir.superalg", "abstract_gram"),
    "superalg.vacuum_expectation": ("supervir.superalg", "vacuum_expectation"),
    "superalg.pbw_words": ("supervir.superalg", "pbw_words"),
    "superalg.psd_check": ("supervir.superalg", "psd_check"),
}

HOT = {
    "realizations.make_mode",
    "oscillators.apply_state",
    "oscillators.call",
    "fock.inner_product",
    "superalg.vacuum_expectation",
}


def _supervir_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "supervir" or name.startswith("supervir."))]


class _Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_everywhere(self, original, value):
        """Rebind `original` to `value` in every supervir module namespace."""
        found = 0
        for module in _supervir_modules():
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, attr, value)
                    found += 1
        if not found:
            raise LookupError(f"{original!r} is bound in no supervir module")

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total_s, self_s
        self.counts: dict[str, int] = {
            "oscillators.apply_state.memo_hits": 0,
            "fock.basis_states": 0,
            "superalg.gram_entries": 0,
        }
        self.spans: list[list] = []  # [name, start, end, parent index or -1, item]
        self.item = None
        self._stack: list[list] = []  # [start, child_s]
        self._open_span = -1
        self._patches = _Patches()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        keep = name not in HOT

        def traced(*args, **kwargs):
            if keep:
                index = len(spans)
                parent = self._open_span
                spans.append([name, 0.0, 0.0, parent, self.item])
                self._open_span = index
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[index][1:3] = frame[0], end
                    self._open_span = parent
            if after is not None:
                after(result, args)
            return result

        return traced

    def __enter__(self):
        from supervir.oscillators import ModeOperator

        counts = self.counts

        def after_basis(result, args):
            counts["fock.basis_states"] += len(result)

        def after_gram(result, args):
            counts["superalg.gram_entries"] += result.size ** 2

        after = {"fock.enumerate_basis": after_basis, "superalg.abstract_gram": after_gram}
        for name, (home, attr) in SPANS.items():
            if home not in sys.modules:
                continue  # ModeOperator below; a module not imported cannot be called
            original = getattr(sys.modules[home], attr)
            self._patches.set_everywhere(original, self._wrap(name, original, after.get(name)))

        apply_state = self._wrap("oscillators.apply_state", ModeOperator.apply_state)

        def apply_state_memo(op, state):
            if state in op._state_cache:
                counts["oscillators.apply_state.memo_hits"] += 1
            return apply_state(op, state)

        self._patches.set(ModeOperator, "apply_state", apply_state_memo)
        self._patches.set(ModeOperator, "__call__", self._wrap("oscillators.call", ModeOperator.__call__))
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        out.update(self.counts)
        return out


class ScalarCounter:
    """Exact counts of GaussianRational multiplications, additions
    (subtractions included) and divisions."""

    OPS = {
        "mul": ("__mul__", "__rmul__"),
        "add": ("__add__", "__radd__", "__sub__", "__rsub__"),
        "div": ("__truediv__", "__rtruediv__"),
    }

    def __init__(self):
        self.counts = {op: 0 for op in self.OPS}
        self._patches = _Patches()

    def _counting(self, op, fn):
        counts = self.counts

        def counted(a, b):
            counts[op] += 1
            return fn(a, b)

        return counted

    def __enter__(self):
        from supervir.scalars import GaussianRational

        for op, methods in self.OPS.items():
            for method in methods:
                original = GaussianRational.__dict__[method]
                self._patches.set(GaussianRational, method, self._counting(op, original))
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    def summary(self) -> dict:
        return {f"scalars.{op}.calls": n for op, n in self.counts.items()}
