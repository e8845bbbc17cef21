"""Per-layer spans for polyadj, recorded from outside the library.

Each traced function is replaced by a wrapper in every loaded
``polyadj`` module that holds it by name: ``from .hull import
enumerate_vertices`` copies the binding, so rebinding only the defining
module would miss those call sites.  Spans stay in memory as columns;
a span's self time is its duration minus the time covered by its child
spans, accumulated per function as the spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> (defining module, traced public functions)
LAYERS = {
    "simplex": ("polyadj.simplex", ("feasible_point",)),
    "linalg": ("polyadj.linalg", ("gauss_solve", "kernel_vector", "affine_dependency")),
    "enum": ("polyadj.hull", ("enumerate_vertices",)),
    "hull": (
        "polyadj.hull",
        ("are_adjacent", "is_face", "in_convex_hull", "in_convex_hull_bruteforce",
         "caratheodory_reduce"),
    ),
    "model": ("polyadj.model", ("membership",)),
    "witness": (
        "polyadj.witness",
        ("refute_face", "pair_extension_oracle", "build_pair_family", "find_t",
         "construct_witness"),
    ),
    "reductions": (
        "polyadj.reductions",
        ("reduction_chain", "stable_to_part", "part_to_npadj", "npadj_to_dcp",
         "verify_reduction", "face_slice"),
    ),
    "matsui": ("polyadj.matsui", ("matsui_check", "special_vertices", "face_decomposition")),
    "cli": ("polyadj.cli", ("main",)),
    "formats": (
        "polyadj.formats",
        ("parse_matrix", "parse_graph", "parse_vertex", "parse_vertex_list", "parse_pairs",
         "format_vertex", "format_matrix", "rat_str"),
    ),
}

ITEM = "bench.item"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ITEM]
        self.layer_of: list[str] = ["bench"]
        self.calls: list[int] = [0]
        self.self_ns: list[int] = [0]
        self.ids = {ITEM: 0}
        # span columns, one row per closed span
        self.span_id = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.fn = array("H")
        self.start = array("q")
        self.end = array("q")
        self.next_span = 0
        self.current_item = -1
        self._item_start = 0
        # open spans: [span id, function id, child time]
        self.stack: list[list[int]] = []
        # observations made from arguments and results
        self.simplex_infeasible = 0
        self.simplex_cells = 0
        self.simplex_max_bits = 0
        self.face_lp = 0
        self.face_none = 0
        self.segment_fallback = 0
        self.enum_vertices = 0
        self.enum_codes: set = set()

    # ---- installation ----------------------------------------------------

    def install(self) -> None:
        observers = {
            "feasible_point": self._see_simplex,
            "is_face": self._see_face,
            "are_adjacent": self._see_adjacent,
            "enumerate_vertices": self._see_enum,
        }
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                fid = self._register(f"{layer}.{name}", layer)
                wrapper = self._wrap(fid, original, observers.get(name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "polyadj" and not mod_name.startswith("polyadj."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _register(self, name: str, layer: str) -> int:
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.ids[name] = fid
        return fid

    def _wrap(self, fid, fn, observe):
        stack = self.stack
        clock = time.thread_time_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [tracer.next_span, fid, 0]
            tracer.next_span += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, parent, start, end)
            if observe is not None:
                observe(args, kwargs, result, parent)
            return result

        return traced

    def _close(self, frame, parent, start, end) -> None:
        span, fid, child_ns = frame
        duration = end - start
        self.calls[fid] += 1
        self.self_ns[fid] += duration - child_ns
        if parent is not None:
            parent[2] += duration
        self.span_id.append(span)
        self.parent.append(parent[0] if parent is not None else -1)
        self.item.append(self.current_item)
        self.fn.append(fid)
        self.start.append(start)
        self.end.append(end)

    # ---- item root spans -------------------------------------------------

    def begin_item(self, index: int) -> None:
        self.current_item = index
        frame = [self.next_span, 0, 0]
        self.next_span += 1
        self.stack.append(frame)
        self._item_start = time.thread_time_ns()

    def end_item(self) -> None:
        end = time.thread_time_ns()
        self._close(self.stack.pop(), None, self._item_start, end)

    # ---- observers -------------------------------------------------------

    def _see_simplex(self, args, kwargs, result, parent) -> None:
        matrix = args[0] if args else kwargs["matrix"]
        self.simplex_cells += len(matrix) * len(matrix[0])
        if parent is not None and parent[1] == self.ids["hull.is_face"]:
            self.face_lp += 1
        if result is None:
            self.simplex_infeasible += 1
            return
        for q in result:
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
            if bits > self.simplex_max_bits:
                self.simplex_max_bits = bits

    def _see_face(self, args, kwargs, result, parent) -> None:
        if result is None:
            self.face_none += 1

    def _see_adjacent(self, args, kwargs, result, parent) -> None:
        if result.segment_certificate is not None:
            self.segment_fallback += 1

    def _see_enum(self, args, kwargs, result, parent) -> None:
        self.enum_codes.add(args[0] if args else kwargs["code"])
        self.enum_vertices += len(result)

    # ---- results ---------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.ids[name]]

    def layer_self_s(self, layer: str) -> float:
        return sum(n for n, l in zip(self.self_ns, self.layer_of) if l == layer) / 1e9

    def metrics(self) -> dict[str, tuple[float, str]]:
        face_lp = self.face_lp
        useful = (face_lp - self.face_none) / face_lp if face_lp else 0.0
        linalg = LAYERS["linalg"][1]
        return {
            "simplex.calls": (self.count("simplex.feasible_point"), "count"),
            "simplex.self_s": (self.layer_self_s("simplex"), "s"),
            "simplex.infeasible": (self.simplex_infeasible, "count"),
            "simplex.cells": (self.simplex_cells, "count"),
            "simplex.max_bits": (self.simplex_max_bits, "bits"),
            "hull.adjacent.calls": (self.count("hull.are_adjacent"), "count"),
            "hull.face.calls": (self.count("hull.is_face"), "count"),
            "hull.face.lp": (face_lp, "count"),
            "hull.face.none": (self.face_none, "count"),
            "hull.face_lp_useful_share": (useful, "share"),
            "hull.membership.calls": (self.count("hull.in_convex_hull"), "count"),
            "hull.segment_fallback": (self.segment_fallback, "count"),
            "hull.bruteforce.calls": (self.count("hull.in_convex_hull_bruteforce"), "count"),
            "hull.self_s": (self.layer_self_s("hull"), "s"),
            "enum.calls": (self.count("enum.enumerate_vertices"), "count"),
            "enum.distinct_codes": (len(self.enum_codes), "count"),
            "enum.vertices": (self.enum_vertices, "count"),
            "enum.self_s": (self.layer_self_s("enum"), "s"),
            "model.membership.calls": (self.count("model.membership"), "count"),
            "model.self_s": (self.layer_self_s("model"), "s"),
            "witness.refute.calls": (self.count("witness.refute_face"), "count"),
            "witness.oracle.calls": (self.count("witness.pair_extension_oracle"), "count"),
            "witness.self_s": (self.layer_self_s("witness"), "s"),
            "linalg.calls": (sum(self.count(f"linalg.{n}") for n in linalg), "count"),
            "linalg.self_s": (self.layer_self_s("linalg"), "s"),
            "reductions.verify.calls": (self.count("reductions.verify_reduction"), "count"),
            "reductions.self_s": (self.layer_self_s("reductions"), "s"),
            "matsui.self_s": (self.layer_self_s("matsui"), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
            "formats.self_s": (self.layer_self_s("formats"), "s"),
            "bench.self_s": (self.layer_self_s("bench"), "s"),
        }

    def write_spans(self, path) -> None:
        """One tab-separated row per span; times in ns of the thread's CPU time."""
        names = self.names
        with open(path, "w", encoding="ascii") as out:
            out.write("span\tparent\titem\tfunction\tstart_ns\tend_ns\n")
            rows = zip(self.span_id, self.parent, self.item, self.fn, self.start, self.end)
            out.writelines(
                f"{s}\t{p}\t{i}\t{names[f]}\t{a}\t{b}\n" for s, p, i, f, a, b in rows
            )
