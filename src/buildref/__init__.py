"""Toolkit for mining, detecting, and scoring build-file refactorings.

Every name below is imported from its module on first access (PEP 562), so
``import buildref`` loads no submodule and each command loads only what it
runs.
"""

from importlib import import_module

_EXPORTS = {
    "mining": (
        "BuildSystem", "ChangeKind", "CommitRecord", "FileDiff", "MiningFilter", "MiningStats",
        "classify_build_file", "extract_diff", "mine_commits",
    ),
    "build_parsers": (
        "BuildElement", "BuildModel", "ElementKind", "infer_hierarchy", "parse_ant", "parse_build_file",
        "parse_gradle", "parse_maven",
    ),
    "taxonomy": (
        "DetectedRefactoring", "MainCategory", "RefactoringType", "TechnicalDebt", "registry", "td_categories_for",
    ),
    "detectors": ("CommitContext", "DetectorConfig", "detect_all"),
    "llm_backend": ("LlmConfig", "PromptMode", "PromptSpec", "build_prompt", "classify_commit", "parse_response"),
    "evaluation": ("EvaluationReport", "GoldLabel", "render_report", "score"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]  # what `import *` gave when every module was imported here
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as when this file imported them all
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
