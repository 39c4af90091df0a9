"""Toolkit for five-action thinging-machine models.

Parse the textual model language, validate structural legality, switch
between full and simplified forms, bridge to and from UML activity graphs,
build event and behavioral models, check traces, and render DOT diagrams.

Submodules load on first use: `import tmkit` imports none of them, and
`tmkit.parse` (or `from tmkit import parse`) imports `tmkit.dsl` then.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, by its home module.  The only list of them: `__all__`,
# `__dir__` and the lazy lookup below all read it.
_HOMES = {
    "model": (
        "ActionKind",
        "BehavioralModel",
        "BehaviorEdge",
        "EmptyRegion",
        "Event",
        "Flow",
        "Machine",
        "ModelError",
        "Region",
        "Stage",
        "StaticModel",
        "TmError",
        "Trigger",
        "UnknownMachine",
        "UnknownStage",
        "find_stage",
        "induced_region",
        "model_isomorphic",
    ),
    "dsl": (
        "CommentMap",
        "ParseDiagnostic",
        "ParseError",
        "ParseResult",
        "SourceSpan",
        "format_text",
        "parse",
        "parse_or_raise",
    ),
    "printer": ("print_model",),
    "validate": (
        "Diagnostic",
        "LEGAL_INTRA_STEPS",
        "Severity",
        "has_errors",
        "validate_behavior",
        "validate_document",
        "validate_events",
        "validate_static",
    ),
    "transform": ("DanglingChain", "NotSimplified", "expand", "simplify"),
    "uml": (
        "ActivityEdge",
        "ActivityGraph",
        "ActivityNode",
        "AmbiguousInitial",
        "MalformedDecision",
        "UnsupportedConstruct",
        "activity_from_json",
        "activity_isomorphic",
        "activity_to_json",
        "export_activity",
        "import_activity",
    ),
    "behavior": ("MissingTime", "UnknownEvent", "Verdict", "conform", "coverage", "eventize"),
    "render": ("render_behavior", "render_static"),
    "jsonio": ("JsonFormatError", "document_from_json", "document_to_json"),
}

_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME, key=str.lower)


def __getattr__(name: str):
    """Imports a public name's home module on first use, or a home module
    asked for by name, and caches the result as a module attribute."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOMES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
