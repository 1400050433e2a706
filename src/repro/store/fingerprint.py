"""Canonical fingerprinting: stable keys for designs, artifacts, stages.

The design library caches flow stages under keys built from three
ingredients, so a cached artifact is reused only when *nothing that
could change it* has changed:

1. **What goes in** — a design fingerprint walking the live module
   hierarchy (class sources, template bindings, ports, signal initial
   values, hardware objects, process registrations, children), or the
   content digest of an upstream artifact (digest chaining).
2. **What runs** — a per-stage *code version*: the SHA-256 of the
   source files implementing that stage (see ``_STAGE_SOURCES``).
   Editing the optimizer invalidates ``opt`` and everything downstream
   of it, but leaves ``synthesize`` entries warm.
3. **The key schema itself** — :data:`~repro.store.common.STORE_SCHEMA`,
   so a layout change never resurrects stale entries.

All fingerprints are digests of canonical JSON documents built from
lists and insertion-ordered dicts — no set iteration anywhere — which
makes them identical across processes and ``PYTHONHASHSEED`` values
(asserted by the subprocess test in ``tests/synth/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
import inspect
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.hdl.module import Module
from repro.hdl.signal import Clock, Signal
from repro.osss.template import is_template, template_binding
from repro.store.common import STORE_SCHEMA, StoreError, digest_doc
from repro.types.spec import TypeSpec

_SRC_ROOT = Path(__file__).resolve().parent.parent

#: Source files whose content defines each stage's code version.  A
#: directory folds in all of its ``.py`` files.  Paths are relative to
#: ``src/repro``.
_STAGE_SOURCES: dict[str, tuple[str, ...]] = {
    "analyze": ("analyze", "hdl", "osss", "types"),
    "synthesize": ("synth", "osss", "hdl", "types", "rtl/ir.py",
                   "rtl/build.py"),
    "lint": ("rtl/lint.py", "rtl/ir.py", "analyze/diagnostics.py"),
    # One stage maps, links (VHDL flow) and optimizes on the gate arena,
    # and stores only the optimized netlist.
    "opt": ("netlist/techmap.py", "netlist/linker.py", "netlist/opt.py",
            "netlist/arena.py", "netlist/circuit.py", "netlist/cells.py",
            "rtl/ir.py"),
    "sta": ("netlist/sta.py", "netlist/cells.py"),
    "pnr": ("netlist/pnr.py", "netlist/circuit.py"),
    "sta_routed": ("netlist/sta.py", "netlist/pnr.py", "netlist/cells.py"),
    # The row's numbers come from the optimized netlist and the two
    # timing reports (its key chains on their digests), read through
    # these files; ``eval/summary.py`` holds the key and the row
    # builder.  ``netlist/cells.py`` holds the area table: editing it
    # can leave the netlist's bytes, and so its digest, unchanged.
    "summary": ("eval/summary.py", "netlist/area.py", "netlist/cells.py",
                "netlist/circuit.py", "netlist/sta.py"),
    "testability": ("analyze/netlist", "netlist/circuit.py",
                    "netlist/cells.py"),
    "harden": ("fault/harden.py", "netlist/circuit.py",
               "netlist/cells.py"),
    "dse_point": ("fault", "dse/evaluate.py", "netlist/sim.py",
                  "netlist/circuit.py", "netlist/cells.py",
                  "netlist/sta.py", "netlist/area.py", "rtl/simulate.py"),
}

#: Folded into every stage version: the serializers define the artifact
#: format, so changing them must invalidate everything.
_COMMON_SOURCES = ("store/serialize.py", "store/common.py")


def _template_value_doc(value: Any) -> Any:
    """A canonical document for one template argument."""
    if isinstance(value, type):
        return ["type", _class_fingerprint(value)]
    if isinstance(value, TypeSpec):
        return ["spec", value.kind, value.width, value.frac_bits]
    if isinstance(value, (int, str, bool)) or value is None:
        return ["lit", value]
    return ["repr", type(value).__name__, repr(value)]


@lru_cache(maxsize=None)
def _class_fingerprint(cls: type) -> str:
    """Digest of a class's behaviour-defining source.

    Template specializations are dynamic ``type()`` classes without
    retrievable source; they fingerprint as their generic base's source
    plus the bound template arguments — exactly the information that
    defines the specialization.
    """
    doc: list[Any] = [cls.__module__, cls.__qualname__]
    if is_template(cls):
        base = cls._template_base_
        doc.append([
            "template",
            _source_or_marker(base),
            [[name, _template_value_doc(value)]
             for name, value in template_binding(cls).items()],
        ])
    else:
        doc.append(["plain", _source_or_marker(cls)])
    # Fold in user-defined bases (hardware mixins change behaviour too).
    for parent in cls.__mro__[1:]:
        if parent.__module__ in ("builtins",):
            continue
        if is_template(parent) and parent is getattr(
                cls, "_template_base_", None):
            continue  # already captured above
        doc.append([parent.__qualname__, _source_or_marker(parent)])
    return digest_doc(doc)


def _source_or_marker(cls: type) -> str:
    try:
        return inspect.getsource(cls)
    except (OSError, TypeError):
        # Interactively defined or generated class: fall back to a
        # conservative marker so two such classes never collide silently.
        return f"<no-source {cls.__module__}.{cls.__qualname__}>"


def _value_state(value: Any) -> Any:
    """Best-effort canonical state of a hardware-object attribute."""
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    spec = getattr(value, "spec", None)
    raw = getattr(value, "raw", None)
    if isinstance(spec, TypeSpec) and raw is not None:
        return [spec.kind, spec.width, spec.frac_bits, raw]
    try:
        return [type(value).__name__,
                spec.describe() if isinstance(spec, TypeSpec) else None,
                repr(value)]
    except Exception:
        return [type(value).__name__]


def _signal_doc(sig: Signal) -> list:
    doc = [sig.name, sig.spec.kind, sig.spec.width, sig.spec.frac_bits,
           sig.spec.to_raw_unchecked(sig.read())]
    if isinstance(sig, Clock):
        doc.append(sig.period)
    return doc


def _process_doc(proc) -> list:
    """Canonical document for one registered process.

    Clock and reset signals ride on the process object, not on
    ``module.signals`` — so the period of the clock a ``cthread`` runs
    on (and the reset polarity/initial value) must be captured here.
    """
    doc: list[Any] = [type(proc).__name__, proc.name]
    clock = getattr(proc, "clock", None)
    if clock is not None:
        doc.append(["clock", _signal_doc(clock)])
    reset = getattr(proc, "reset", None)
    if reset is not None:
        doc.append(["reset", _signal_doc(reset),
                    getattr(proc, "reset_active", None)])
    for item in getattr(proc, "sensitivity", ()):
        if isinstance(item, tuple):
            doc.append(["sens", _signal_doc(item[0]), repr(item[1])])
        else:
            doc.append(["sens", _signal_doc(item)])
    return doc


def _module_doc(module: Module) -> dict:
    """Canonical document for one module instance (recursive)."""
    hw_objects = []
    for name in sorted(module.hw_objects()):
        obj = module.hw_objects()[name]
        state = []
        obj_vars = getattr(obj, "__dict__", None)
        if obj_vars is not None:
            for attr in sorted(obj_vars):
                if attr.startswith("_"):
                    continue
                state.append([attr, _value_state(obj_vars[attr])])
        hw_objects.append([name, _class_fingerprint(type(obj)), state])
    return {
        "class": _class_fingerprint(type(module)),
        "name": module.name,
        "ports": [[name, port.direction, port.spec.kind, port.spec.width,
                   port.spec.frac_bits]
                  for name, port in module._ports.items()],
        "signals": [_signal_doc(sig) for sig in module.signals],
        "processes": [_process_doc(proc) for proc in module.processes],
        "hw_objects": hw_objects,
        "children": [_module_doc(child) for child in module.children],
    }


def fingerprint_design(module: Module) -> str:
    """Stable fingerprint of a live design hierarchy.

    Covers everything the synthesizer reads: class sources (via
    :func:`inspect.getsource`, so editing a module class changes the
    fingerprint), template bindings, ports, signal initial values,
    hardware-object construction state, process registrations, and all
    children recursively.
    """
    if not isinstance(module, Module):
        raise StoreError(f"fingerprint_design needs a Module, "
                         f"got {type(module).__name__}")
    return digest_doc(["design/v1", _module_doc(module)])


def fingerprint_rtl(rtl) -> str:
    """Content digest of an RTL module tree (via its serialized form)."""
    from repro.store.serialize import serialize_rtl

    return digest_doc(serialize_rtl(rtl))


def fingerprint_circuit(circuit) -> str:
    """Content digest of a gate-level circuit (via its serialized form)."""
    from repro.store.serialize import serialize_circuit

    return digest_doc(serialize_circuit(circuit))


@lru_cache(maxsize=None)
def stage_version(stage: str) -> str:
    """Digest of the source files implementing *stage*.

    Unknown stages raise :class:`StoreError` — a typo here must never
    silently produce an always-miss (or worse, always-hit) key.
    """
    try:
        entries = _STAGE_SOURCES[stage]
    except KeyError:
        raise StoreError(f"unknown flow stage {stage!r}") from None
    hasher = hashlib.sha256()
    for entry in entries + _COMMON_SOURCES:
        path = _SRC_ROOT / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            hasher.update(str(file.relative_to(_SRC_ROOT)).encode())
            hasher.update(b"\x00")
            hasher.update(file.read_bytes())
            hasher.update(b"\x00")
    return hasher.hexdigest()


def stage_key(stage: str, *parts: str) -> str:
    """The cache key for one stage invocation.

    ``parts`` are the input fingerprints (design fingerprint or upstream
    artifact digests) — the digest-chaining that makes invalidation
    transitive: a changed design reshuffles every downstream key.
    """
    return digest_doc([STORE_SCHEMA, stage, stage_version(stage),
                       list(parts)])
