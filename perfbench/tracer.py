"""Span tracer that wraps tdg functions from outside the package.

``tdg.driver``, ``tdg.assembly``, ``tdg.solution``, ``tdg.problems`` and
others import functions by name, so a function is called through every
module that imported it.  ``install`` therefore replaces the function in
every ``tdg.*`` module namespace that holds it, plus a few methods on their
classes.  Each call records a span (name, start, end, parent) in memory and
may add work counts computed from its arguments and result.  The spans are
analysed into per-layer metrics after the run and can be saved with
``save``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np


def _rows(points):
    return int(np.atleast_2d(np.asarray(points)).shape[0])


# --- work counts, each computed from a call's arguments and result ---------

def _count_eval_basis(args, result):
    element, points = args[0], args[1]
    return {"basis.eval_values": _rows(points) * element.n_waves}


def _count_facet_rule(args, result):
    return {"quadrature.facet_points": int(result.points.shape[0])}


def _count_volume_rule(args, result):
    return {"quadrature.volume_points": int(result.points.shape[0])}


def _count_special(args, result):
    return {"special.points": int(np.size(args[1]))}


def _count_exact(args, result):
    # args[0] is the ProblemSpec instance
    return {"problems.exact_points": _rows(args[1])}


def _count_assembly(args, result):
    return {
        "assembly.blocks": len(result.blocks),
        "assembly.nnz": sum(int(b.size) for b in result.blocks.values()),
    }


def _count_solve(args, result):
    system = args[0]
    return {
        "solve.max_dim": system.dim,
        "solve.cond_max": float(result.condition_estimate),
        "solve.residual_max": float(result.residual),
    }


def _count_facets(args, result):
    return {"mesh.facets": len(result)}


def _count_refine(args, result):
    marked = set(args[1])
    return {"mesh.closure_splits": len(result.last_refined) - len(marked)}


def _count_plan(args, result):
    h_set, p_set = result
    return {"hp_adapt.h_marked": len(h_set), "hp_adapt.p_marked": len(p_set)}


def _count_direction(args, result):
    return {"directional.selected": 1}


def _count_directional(args, result):
    return {"directional.rotated": len(result)}


def _count_vtk(args, result):
    return {"vtkio.bytes": os.path.getsize(args[0])}


# Counts combined by maximum; every other count is summed over the run.
MAX_COUNTS = ("solve.max_dim", "solve.cond_max", "solve.residual_max")
# Summed counts, reported as 0 when no call added to them.
SUMMED = (
    "basis.eval_values", "quadrature.facet_points", "quadrature.volume_points",
    "special.points", "problems.exact_points", "mesh.closure_splits",
    "directional.selected", "directional.rotated", "hp_adapt.h_marked",
    "hp_adapt.p_marked", "vtkio.bytes", "solve.dense_s", "solve.sparse_s",
    "solve.failed",
)

# (module, attribute) of each traced function, with its count hook.  Classes
# are given as "module:Class" and their method is patched on the class.
TARGETS = [
    ("tdg.mesh", "build_initial_mesh", None),
    ("tdg.mesh", "skeleton_facets", _count_facets),
    ("tdg.mesh", "refine_elements", _count_refine),
    ("tdg.basis", "eval_basis", _count_eval_basis),
    ("tdg.quadrature", "facet_rule", _count_facet_rule),
    ("tdg.quadrature", "volume_rule", _count_volume_rule),
    ("tdg.special", "bessel_j", _count_special),
    ("tdg.special", "hankel1", _count_special),
    ("tdg.problems:ProblemSpec", "exact_solution", _count_exact),
    ("tdg.problems", "l2_errors", None),
    ("tdg.assembly", "assemble_system", _count_assembly),
    ("tdg.assembly:GlobalSystem", "to_sparse", None),
    ("tdg.solve", "solve", _count_solve),
    ("tdg.solve", "_inverse_one_norm_estimate", None),
    ("tdg.estimator", "indicators", None),
    ("tdg.estimator", "global_estimate", None),
    ("tdg.estimator", "effectivities", None),
    ("tdg.directional", "apply_directional_adaptivity", _count_directional),
    ("tdg.directional", "element_direction", _count_direction),
    ("tdg.hp_adapt", "mark_elements", None),
    ("tdg.hp_adapt", "plan_refinement", _count_plan),
    ("tdg.hp_adapt", "decide_and_refine", None),
    ("tdg.hp_adapt", "enforce_degree_compatibility", None),
    ("tdg.vtkio", "write_vtk", _count_vtk),
    ("tdg.driver", "write_outputs", None),
]

# Every span without a parent is one of these calls the driver makes
# directly; each maps to the top-level layer metric that sums it.
TOP_LEVEL = {
    "mesh.build_initial_mesh": "mesh.build_s",
    "assembly.assemble_system": "assembly.s",
    "solve.solve": "solve.s",
    "estimator.indicators": "estimator.s",
    "estimator.global_estimate": "estimator.s",
    "estimator.effectivities": "estimator.s",
    "problems.l2_errors": "problems.l2_errors_s",
    "directional.apply_directional_adaptivity": "directional.s",
    "hp_adapt.mark_elements": "hp_adapt.s",
    "hp_adapt.plan_refinement": "hp_adapt.s",
    "hp_adapt.decide_and_refine": "hp_adapt.s",
    "hp_adapt.enforce_degree_compatibility": "hp_adapt.s",
    "vtkio.write_vtk": "vtkio.s",
    "driver.write_outputs": "driver.write_outputs_s",
}

# Inclusive time of a group of spans: spans nested inside another span of
# the same group are not counted twice.
GROUPS = {
    "basis.eval_s": ("basis.eval_basis",),
    "quadrature.rule_s": ("quadrature.facet_rule", "quadrature.volume_rule"),
    "special.s": ("special.bessel_j", "special.hankel1"),
    "assembly.to_sparse_s": ("assembly.GlobalSystem.to_sparse",),
    "solve.cond_s": ("solve._inverse_one_norm_estimate",),
    "mesh.facets_s": ("mesh.skeleton_facets",),
    "mesh.refine_s": ("mesh.refine_elements",),
    "hp_adapt.compat_s": ("hp_adapt.enforce_degree_compatibility",),
}

# Self time: a group's span durations minus the time their children cover.
SELF_GROUPS = {
    "problems.l2_errors_self_s": ("problems.l2_errors",),
    "estimator.self_s": (
        "estimator.indicators",
        "estimator.global_estimate",
        "estimator.effectivities",
    ),
}

# Calls counted by name.
CALL_COUNTS = {
    "basis.eval_calls": "basis.eval_basis",
    "solve.calls": "solve.solve",
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._restore = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _add_counts(self, extra):
        for key, value in extra.items():
            if key in MAX_COUNTS:
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, func, name, count):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if count is not None:
                self._add_counts(count(args, result))
            return result

        return traced

    def install(self):
        """Patch every lookup site of every target; ``uninstall`` undoes it."""
        import importlib
        import pkgutil

        import tdg

        modules = [
            importlib.import_module(f"tdg.{info.name}")
            for info in pkgutil.iter_modules(tdg.__path__)
            if info.name != "cli"
        ]
        for where, attr, count in TARGETS:
            module_name, _, class_name = where.partition(":")
            owner = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            if class_name:
                cls = getattr(owner, class_name)
                func = cls.__dict__[attr]
                name = f"{short}.{class_name}.{attr}"
                self._patch(cls, attr, self.wrap(func, name, count))
                continue
            func = getattr(owner, attr)
            traced = self.wrap(func, f"{short}.{attr}", count)
            if attr == "solve":
                traced = self._wrap_solve(traced)
            sites = [m for m in modules if m.__dict__.get(attr) is func]
            for module in sites:
                self._patch(module, attr, traced)

    def _wrap_solve(self, traced):
        # Split solve time by path and count failures; the path is chosen
        # by system size against tdg.solve.DENSE_LIMIT.
        solve_module = sys.modules["tdg.solve"]

        @functools.wraps(traced)
        def solve_by_path(system, *args, **kwargs):
            t0 = time.perf_counter()
            dense = system.dim < solve_module.DENSE_LIMIT
            path = "solve.dense_s" if dense else "solve.sparse_s"
            try:
                return traced(system, *args, **kwargs)
            except solve_module.SingularSystemError:
                self._add_counts({"solve.failed": 1})
                raise
            finally:
                self._add_counts({path: time.perf_counter() - t0})

        return solve_by_path

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def save(self, path):
        """Write the spans as arrays: names, name index, parent, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self, run_s):
        """Per-layer times from the spans plus the collected work counts."""
        names = self.names
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child

        def ids(group):
            return [i for i, n in enumerate(names) if n in group]

        def outermost(group):
            # Spans with no ancestor in the same group.
            member = np.isin(name_id, ids(group))
            keep = member.copy()
            for i in np.flatnonzero(member):
                p = parent[i]
                while p >= 0:
                    if member[p]:
                        keep[i] = False
                        break
                    p = parent[p]
            return float(dur[keep].sum())

        out = {}
        roots = np.flatnonzero(parent < 0)
        for metric in sorted(set(TOP_LEVEL.values())):
            out[metric] = 0.0
        for i in roots:
            name = names[name_id[i]]
            if name not in TOP_LEVEL:
                raise RuntimeError(f"untraced top-level span {name!r}")
            out[TOP_LEVEL[name]] += float(dur[i])
        out["driver.other_s"] = run_s - sum(out[m] for m in set(TOP_LEVEL.values()))
        for metric, group in GROUPS.items():
            out[metric] = outermost(group)
        for metric, group in SELF_GROUPS.items():
            out[metric] = float(self_time[np.isin(name_id, ids(group))].sum())
        for metric, name in CALL_COUNTS.items():
            out[metric] = int(np.count_nonzero(np.isin(name_id, ids((name,)))))
        out.update(dict.fromkeys(SUMMED, 0))
        out.update(self.counts)
        selected = out["directional.selected"]
        out["directional.rotated_ratio"] = (
            out["directional.rotated"] / selected if selected else 0.0
        )
        out["trace.spans"] = int(dur.size)
        return out
