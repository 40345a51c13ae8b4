"""Deterministic detection of the 24 refactoring types from commit context.

Each category detector compares the before/after build models of one commit
(plus the project hierarchy) and emits zero or more detections. Rules are
binary: a static detection always has confidence 1.0. Several rules firing on
one commit is normal; nothing is ranked or suppressed beyond exact-duplicate
removal.

Derived data is built once per commit and shared: `CommitContext` holds one
index per model (named elements, body-token counts, name reference counts),
the element pairing of every before-path, the elements whose (kind, name) key
left or arrived in each file, and the commit's one move list, each built on
first use. The detectors are pure queries over it.
"""

from __future__ import annotations

import itertools
import logging
import posixpath

from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .build_parsers import (
    ORDERING_KEYWORDS,
    BuildElement,
    BuildModel,
    ElementKind,
    HierarchyGraph,
    forget_tokens,
    infer_hierarchy,
    parse_build_file,
    tokenize,
)
from .mining import ChangeKind, CommitRecord, FileDiff
from .taxonomy import DetectedRefactoring, Evidence, detection_to_json, sort_key  # noqa: F401 (re-exported)

logger = logging.getLogger(__name__)

SUBROUTINE_KINDS = (ElementKind.TASK, ElementKind.TARGET, ElementKind.METHOD)
VALUE_KINDS = (ElementKind.VARIABLE, ElementKind.PROPERTY)
MIN_FRAGMENT_TOKENS = 5  # smallest new unit or unnamed block that counts as extracted
_KIND_VALUES = {kind: kind.value for kind in ElementKind}  # a lookup here is quicker than Enum.value
_NO_NAMES: Mapping[str, BuildElement] = {}  # never written


class DetectorConfig(NamedTuple):
    """Similarity thresholds; the defaults are deliberately conservative."""

    move_similarity: float = 0.7
    rename_similarity: float = 0.8


DEFAULT_CONFIG = DetectorConfig()


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    return len(sa & sb) / len(union)


def _token_matches_name(token: str, name: str) -> bool:
    return (
        token == name
        or token == f"${name}"
        or f"${{{name}}}" in token
        or f"@{{{name}}}" in token
    )


class _ModelIndex:
    """What the detectors ask of one model; each part is built on first use."""

    def __init__(self, model: BuildModel):
        self.model = model

    @cached_property
    def _names(self) -> dict[ElementKind, dict[str, Union[BuildElement, list[BuildElement]]]]:
        """Each kind's named elements by name: the element itself, or a list
        of them in file order for a name the model declares more than once.
        One dict slot per element, and only the kinds the model has; read
        through `named`."""
        index: dict[ElementKind, dict] = {}
        for el in self.model.elements:
            if el.name:
                names = index.get(el.kind)
                if names is None:
                    names = index[el.kind] = {}
                first = names.setdefault(el.name, el)
                if first is not el:
                    if type(first) is list:
                        first.append(el)
                    else:
                        names[el.name] = [first, el]
        return index

    def named(self, kind: ElementKind, name: Optional[str]) -> Sequence[BuildElement]:
        """The elements of the (kind, name) key in file order; none for an unnamed key."""
        found = self._names.get(kind, _NO_NAMES).get(name)
        if found is None:
            return ()
        return found if type(found) is list else (found,)

    @cached_property
    def tokens(self) -> Counter:
        """Body tokens of every element, with multiplicity."""
        return Counter(itertools.chain.from_iterable(el.body_tokens for el in self.model.elements))

    @cached_property
    def _references(self) -> tuple[Counter, Counter]:
        """Reference counts over body tokens and tokenized attribute values.

        A plain token refers to itself and, after a leading `$`, to the rest.
        A token embedding `${...}` or `@{...}` refers to every substring from
        such an opener to any later `}`, quadratically many names, so these
        few tokens are kept with their counts and matched per query.
        """
        plain = self.tokens.copy()  # the detectors that ask for references ask for these too
        plain.update(itertools.chain.from_iterable(
            tokenize(value) for el in self.model.elements for value in el.attributes.values()
        ))
        embedding = Counter({t: plain.pop(t) for t in list(plain) if "${" in t or "@{" in t})
        for tok, n in [(t, n) for t, n in plain.items() if t.startswith("$")]:
            plain[tok[1:]] += n
        return plain, embedding

    def reference_count(self, name: str, exclude: Optional[BuildElement] = None) -> int:
        """Tokens of the model that refer to `name`, leaving out those of
        `exclude`, an element of this model."""
        plain, embedding = self._references
        count = plain[name] + sum(
            n for tok, n in embedding.items() if _token_matches_name(tok, name)
        )
        if exclude is not None:
            own = itertools.chain(exclude.body_tokens, *map(tokenize, exclude.attributes.values()))
            count -= sum(1 for t in own if _token_matches_name(t, name))
        return count

    def references(self, name: str, exclude: Optional[BuildElement] = None) -> bool:
        """A token refers to `name`, or a module link has it as a whole path
        component (the module ``app``, not its letter ``p``)."""
        if self.reference_count(name, exclude):
            return True
        return any(name in link.target.split("/") for link in self.model.module_links)


class _FileChanges:
    def __init__(self, removed: Sequence[BuildElement] = ()) -> None:
        self.added: list[BuildElement] = []
        self.removed = list(removed)
        self.modified: list[tuple[BuildElement, BuildElement]] = []


class _Move(NamedTuple):
    kind: ElementKind
    name: str
    src_path: str
    dst_path: str
    src_el: BuildElement
    dst_el: BuildElement

    @property
    def family(self) -> str:
        """The family `_HIERARCHY_TYPES` knows the move by: a move from a
        script into a .properties file, which holds only properties, is
        externalized, whatever the relation."""
        if self.dst_path.endswith(".properties") and not self.src_path.endswith(".properties"):
            return "externalized"
        return "subroutine" if self.kind in SUBROUTINE_KINDS else self.kind.value


class CommitContext:
    def __init__(self, commit: CommitRecord, before_models: Mapping[str, BuildModel], after_models: Mapping[str, BuildModel]):
        self.commit = commit
        self.before_models = before_models
        self.after_models = after_models
        self.before_hierarchy: HierarchyGraph = infer_hierarchy(before_models)
        self.after_hierarchy: HierarchyGraph = infer_hierarchy(after_models)

    @classmethod
    def from_commit(cls, commit: CommitRecord) -> "CommitContext":
        """Parse every touched build-file version into models. Equal texts of
        the commit are tokenized once; those of earlier commits are forgotten."""
        forget_tokens()
        before: dict[str, BuildModel] = {}
        after: dict[str, BuildModel] = {}
        for fd in commit.file_diffs:
            if fd.before_content is not None:
                before[fd.old_path or fd.path] = parse_build_file(fd.old_path or fd.path, fd.before_content)
            if fd.after_content is not None:
                after[fd.path] = parse_build_file(fd.path, fd.after_content)
        return cls(commit, before, after)

    def diff_for(self, path: str) -> Optional[FileDiff]:
        return next((d for d in self.commit.file_diffs if d.path == path), None)

    # Derived data: built by the first detector that asks, then shared.

    @cached_property
    def before_index(self) -> dict[str, _ModelIndex]:
        return {path: _ModelIndex(m) for path, m in self.before_models.items()}

    @cached_property
    def after_index(self) -> dict[str, _ModelIndex]:
        return {path: _ModelIndex(m) for path, m in self.after_models.items()}

    @cached_property
    def shared_paths(self) -> list[str]:
        return sorted(set(self.before_models) & set(self.after_models))

    @cached_property
    def changes(self) -> dict[str, _FileChanges]:
        """Element pairing of every before-path; everything is removed when
        the path has no after-version. Same-key elements pair one to one, so
        where a key repeats in a file its unpaired copies are removed or added
        here even though `vanished` and `appeared` leave them out."""
        out = {}
        for path, b_index in self.before_index.items():
            a_index = self.after_index.get(path)
            out[path] = (
                _element_changes(b_index, a_index)
                if a_index is not None
                else _FileChanges(removed=b_index.model.elements)
            )
        return out

    @cached_property
    def vanished(self) -> list[tuple[str, BuildElement]]:
        """(path, element) for each named before-element, raw blocks aside,
        whose (kind, name) key is missing from its path's after-version (every
        one when the path has none), by path, then in file order. Unlike
        `changes`, this asks only whether the key is left."""
        out = []
        for path in sorted(self.before_index):
            a_index = self.after_index.get(path)
            out.extend(
                (path, el)
                for el in self.before_models[path].elements
                if el.name and el.kind is not ElementKind.RAW_BLOCK
                and not (a_index and a_index.named(el.kind, el.name))
            )
        return out

    @cached_property
    def appeared(self) -> list[tuple[str, BuildElement]]:
        """(path, element) for each after-element that is unnamed or whose
        (kind, name) key is missing from its path's before-version, by path,
        then in file order. Unlike `changes`, this asks only whether the key was there."""
        out = []
        for path in sorted(self.after_index):
            b_index = self.before_index.get(path)
            out.extend(
                (path, el)
                for el in self.after_models[path].elements
                if not (b_index and b_index.named(el.kind, el.name))
            )
        return out

    @cached_property
    def moves(self) -> list[_Move]:
        """Each `vanished` element paired with the first arrival of its key in
        every other path (never its own, which lost the key)."""
        arrivals: dict[tuple[ElementKind, Optional[str]], dict[str, BuildElement]] = {}
        for path, el in self.appeared:
            arrivals.setdefault((el.kind, el.name), {}).setdefault(path, el)
        return [
            _Move(el.kind, el.name, src_path, dst_path, el, dst_el)
            for src_path, el in self.vanished
            for dst_path, dst_el in arrivals.get((el.kind, el.name), {}).items()
        ]

    @cached_property
    def moved_sources(self) -> set[int]:
        return {id(m.src_el) for m in self.moves}

    def moves_of(self, kinds: Sequence[ElementKind]) -> list[_Move]:
        return [m for m in self.moves if m.kind in kinds]


# --- shared machinery --------------------------------------------------------

def _non_ordering_attrs(el: BuildElement) -> dict[str, str]:
    return {
        k: v
        for k, v in el.attributes.items()
        if k not in ORDERING_KEYWORDS and k != "ordering"
    }


def _ordering_attrs(el: BuildElement) -> dict[str, str]:
    return {k: v for k, v in el.attributes.items() if k in ORDERING_KEYWORDS}


def _element_changes(before: _ModelIndex, after: _ModelIndex) -> _FileChanges:
    """Pair elements across versions by (kind, name); unnamed ones by exact body."""
    changes = _FileChanges()
    for kind in sorted(before._names.keys() | after._names.keys(), key=_KIND_VALUES.get):
        for name in sorted(before._names.get(kind, _NO_NAMES).keys() | after._names.get(kind, _NO_NAMES).keys()):
            b_els = before.named(kind, name)
            a_els = after.named(kind, name)
            for b_el, a_el in zip(b_els, a_els):
                if b_el.body_tokens != a_el.body_tokens or dict(b_el.attributes) != dict(a_el.attributes):
                    changes.modified.append((b_el, a_el))
            changes.removed.extend(b_els[len(a_els):])
            changes.added.extend(a_els[len(b_els):])

    # unnamed elements pair only on an exact body match
    changes.removed.extend(_unpaired(before.model.elements, after.model.elements))
    changes.added.extend(_unpaired(after.model.elements, before.model.elements))
    return changes


def _unpaired(elements: Sequence[BuildElement], others: Sequence[BuildElement]) -> list[BuildElement]:
    """Unnamed `elements` left once each has taken an unnamed element of
    `others` with the same kind and body, if one is left."""
    pool = Counter((el.kind, el.body_tokens) for el in others if not el.name)
    out = []
    for el in elements:
        if el.name:
            continue
        key = (el.kind, el.body_tokens)
        if pool[key] > 0:
            pool[key] -= 1
        else:
            out.append(el)
    return out


def _relation(ctx: CommitContext, a: str, b: str) -> str:
    """'ancestor' when a is above b, 'descendant' when below, else 'sibling'."""
    for graph in (ctx.after_hierarchy, ctx.before_hierarchy):
        if graph.is_ancestor(a, b):
            return "ancestor"
        if graph.is_ancestor(b, a):
            return "descendant"
    a_dir, b_dir = posixpath.dirname(a), posixpath.dirname(b)
    if _dir_contains(a_dir, b_dir):
        return "ancestor"
    if _dir_contains(b_dir, a_dir):
        return "descendant"
    return "sibling"


def _dir_contains(outer: str, inner: str) -> bool:
    if outer == "":
        return inner != ""
    return inner.startswith(outer + "/")


_EXTRACTED = "literal '{literal}' used in {src} extracted into {kind} '{name}' defined in {dst}"

# The types named by where something went relative to where it came from:
# (family, relation of the destination file to the source file) gives the type
# and its Details. A missing key is a hole in the taxonomy and names no type:
# a property has no Push Down or Move type, and a subroutine, whose types pair
# Pull Up Method with Push Down Task, has no sideways move.
_HIERARCHY_TYPES: Mapping[tuple[str, str], tuple[str, str]] = {
    ("dependency", "ancestor"): ("Pull Up Dependency", "dependency {name} moved from {src} to {dst}"),
    ("dependency", "descendant"): ("Push Down Dependency", "dependency {name} moved from {src} to {dst}"),
    ("dependency", "sibling"): ("Move Dependency", "dependency {name} moved from {src} to {dst}"),
    ("variable", "ancestor"): ("Pull Up Variable", "variable '{name}' moved from {src} to {dst}"),
    ("variable", "descendant"): ("Push Down Variable", "variable '{name}' moved from {src} to {dst}"),
    ("variable", "sibling"): ("Move Variable", "variable '{name}' moved from {src} to {dst}"),
    ("property", "ancestor"): ("Pull Up Properties", "property '{name}' pulled up from {src} to {dst}"),
    ("externalized", "ancestor"): ("Externalize Properties", "property '{name}' moved out of {src} into {dst}"),
    ("externalized", "descendant"): ("Externalize Properties", "property '{name}' moved out of {src} into {dst}"),
    ("externalized", "sibling"): ("Externalize Properties", "property '{name}' moved out of {src} into {dst}"),
    ("subroutine", "ancestor"): ("Pull Up Method", "{kind} '{name}' pulled up from {src} to {dst}"),
    ("subroutine", "descendant"): ("Push Down Task", "{kind} '{name}' pushed down from {src} to {dst}"),
    ("module", "ancestor"): (
        "Extract And Pull Up Module", "logic from {src} extracted into a newly created parent build file {dst}"
    ),
    ("module", "descendant"): (
        "Extract And Push Down Module", "logic from {src} extracted into a newly created child build file {dst}"
    ),
    ("module", "sibling"): (
        "Extract Module", "logic from {src} extracted into a new build file at the same level {dst}"
    ),
    ("extracted variable", "ancestor"): ("Extract And Pull Up Variable", _EXTRACTED),
    ("extracted variable", "descendant"): ("Extract And Move Variable", _EXTRACTED),
    ("extracted variable", "sibling"): ("Extract And Move Variable", _EXTRACTED),
}

_Place = tuple[str, tuple[int, int]]  # a path and a line span in it


def _hierarchy_move(
    ctx: CommitContext, family: str, src: _Place, dst: _Place, **fields: str
) -> Optional[DetectedRefactoring]:
    """The detection of a `family` element that left `src` and appeared at
    `dst`, or None where the taxonomy has a hole; `fields` fill in the Details."""
    entry = _HIERARCHY_TYPES.get((family, _relation(ctx, dst[0], src[0])))
    if entry is None:
        return None
    type_id, details = entry
    return DetectedRefactoring(
        type=type_id,
        details=details.format(src=src[0], dst=dst[0], **fields),
        evidence=(Evidence(*src, "source"), Evidence(*dst, "destination")),
    )


def _move_detections(ctx: CommitContext, kinds: Sequence[ElementKind]) -> set[DetectedRefactoring]:
    found = (
        _hierarchy_move(
            ctx, m.family, (m.src_path, m.src_el.span), (m.dst_path, m.dst_el.span), name=m.name, kind=m.kind.value
        )
        for m in ctx.moves_of(kinds)
    )
    return {det for det in found if det is not None}


def _literal_value(el: BuildElement) -> Optional[str]:
    if el.kind in VALUE_KINDS and el.attributes.get("literal") == "true":
        value = el.attributes.get("value", "")
        return value or None
    return None


# --- category detectors --------------------------------------------------------

def _canonical_signature(el: BuildElement):
    """Element identity modulo known equivalent forms and pure formatting."""
    if el.kind is ElementKind.PLUGIN:
        return ("plugin", el.name)
    if el.kind is ElementKind.DEPENDENCY:
        return (
            "dependency",
            el.name,
            el.attributes.get("version", ""),
            el.attributes.get("configuration", ""),
        )
    if el.kind in VALUE_KINDS:
        return (el.kind.value, el.name, el.attributes.get("value", " ".join(el.body_tokens)))
    ordering = tuple(sorted(_ordering_attrs(el).items()))
    return (el.kind.value, el.name, el.body_tokens, ordering)


def detect_clean_up(ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG) -> set[DetectedRefactoring]:
    out: set[DetectedRefactoring] = set()
    renamed_sources: set[int] = set()

    # Reformat Code: same semantic element multiset, different text.
    for path in ctx.shared_paths:
        diff = ctx.diff_for(path)
        if diff.before_content == diff.after_content:
            continue
        before, after = ctx.before_models[path], ctx.after_models[path]
        if not before.elements and not after.elements:
            continue
        # equal multisets have equal sizes, so the signatures are counted only then
        if len(before.elements) == len(after.elements) and Counter(
            map(_canonical_signature, before.elements)
        ) == Counter(map(_canonical_signature, after.elements)):
            span = _changed_span(diff)
            out.add(
                DetectedRefactoring(
                    type="Reformat Code",
                    details=f"{path} rewritten in an equivalent form (layout or syntax style only)",
                    evidence=(Evidence(path, span, "destination"),),
                )
            )

    # Rename Field: same body, new name, within one file.
    for path in ctx.shared_paths:
        changes = ctx.changes[path]
        candidates = []
        for b_el in changes.removed:
            if not b_el.name:
                continue
            for a_el in changes.added:
                if not a_el.name or a_el.kind is not b_el.kind:
                    continue
                sim = jaccard(b_el.body_tokens, a_el.body_tokens)
                if sim >= config.rename_similarity:
                    candidates.append((sim, b_el, a_el))
        candidates.sort(key=lambda c: (-c[0], c[1].span, c[2].span))
        used_a: set[int] = set()
        for sim, b_el, a_el in candidates:
            if id(b_el) in renamed_sources or id(a_el) in used_a:
                continue
            renamed_sources.add(id(b_el))
            used_a.add(id(a_el))
            out.add(
                DetectedRefactoring(
                    type="Rename Field",
                    details=f"{b_el.kind.value} '{b_el.name}' renamed to '{a_el.name}' in {path}",
                    evidence=(
                        Evidence(path, b_el.span, "source"),
                        Evidence(path, a_el.span, "destination"),
                    ),
                )
            )

    # Remove Unused Code: deletion of an element nothing referenced. Raw
    # blocks carry lexical pseudo-names, not referenceable identifiers, so
    # they never vanish.
    for path, el in ctx.vanished:
        if id(el) in renamed_sources or id(el) in ctx.moved_sources:
            continue
        if any(m.references(el.name, exclude=el if p == path else None) for p, m in ctx.before_index.items()):
            continue
        if any(m.references(el.name) for m in ctx.after_index.values()):
            continue
        if any(
            a.kind is el.kind and jaccard(el.body_tokens, a.body_tokens) >= config.move_similarity
            for _, a in ctx.appeared
        ):
            continue  # something like it arrived: reworked, not unused
        out.add(
            DetectedRefactoring(
                type="Remove Unused Code",
                details=f"unreferenced {el.kind.value} '{el.name}' deleted from {path}",
                evidence=(Evidence(path, el.span, "source"),),
            )
        )
    return out


def _changed_span(diff: FileDiff) -> tuple[int, int]:
    hunks = diff.hunks
    if not hunks:
        return (1, 1)
    first = min(h.new_start if h.new_len else max(h.new_start, 1) for h in hunks)
    last = max(h.new_start + max(h.new_len - 1, 0) for h in hunks)
    return (max(first, 1), max(last, 1))


def detect_module_hierarchy(
    ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG
) -> set[DetectedRefactoring]:
    out: set[DetectedRefactoring] = set()
    added_paths = sorted(fd.path for fd in ctx.commit.file_diffs if fd.change_kind is ChangeKind.ADDED)
    for new_path in added_paths:
        new_model = ctx.after_models.get(new_path)
        if new_model is None:
            continue
        for src_path in sorted(ctx.before_models):
            if src_path == new_path:
                continue
            moved = _block_moved_from(ctx, src_path, new_model, config)
            if moved is None:
                continue
            src_el, dst_el = moved
            det = _hierarchy_move(ctx, "module", (src_path, src_el.span), (new_path, dst_el.span))
            if det is not None:
                out.add(det)
    return out


def _block_moved_from(
    ctx: CommitContext, src_path: str, new_model: BuildModel, config: DetectorConfig
) -> Optional[tuple[BuildElement, BuildElement]]:
    best: Optional[tuple[float, BuildElement, BuildElement]] = None
    for b_el in ctx.changes[src_path].removed:
        for n_el in new_model.elements:
            if n_el.kind is not b_el.kind:
                continue
            if not b_el.name and len(n_el.body_tokens) < MIN_FRAGMENT_TOKENS:
                continue
            sim = jaccard(b_el.body_tokens, n_el.body_tokens)
            if sim >= config.move_similarity:
                if best is None or sim > best[0]:
                    best = (sim, b_el, n_el)
    return None if best is None else best[1:]


def detect_subroutine(
    ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG
) -> set[DetectedRefactoring]:
    out: set[DetectedRefactoring] = set()

    for path in ctx.shared_paths:
        changes = ctx.changes[path]
        out.update(_extract_subroutines(path, changes))
        out.update(_detect_dry(path, changes, config))
        scheduled = _detect_scheduling(path, changes)
        if scheduled:
            out.add(scheduled)
    return out | _move_detections(ctx, SUBROUTINE_KINDS)


def _extract_subroutines(path: str, changes: _FileChanges) -> set[DetectedRefactoring]:
    """Extract Method / Extract Task: a fragment leaves a host element and
    reappears as a new named unit that the file now invokes."""
    out: set[DetectedRefactoring] = set()
    units = [
        el for el in changes.added
        if el.name and el.kind in SUBROUTINE_KINDS and len(el.body_tokens) >= MIN_FRAGMENT_TOKENS
    ]
    if not units:
        return out
    # each host with the tokens it lost: all of a removed one's, the dropped part of a modified one's
    hosts = [(b, Counter(b.body_tokens) - Counter(a.body_tokens)) for b, a in changes.modified] + [
        (el, Counter(el.body_tokens)) for el in changes.removed
    ]
    hosts = [(host, lost) for host, lost in hosts if lost]
    invokers = changes.added + [a for _, a in changes.modified]

    for new_el in units:
        if not any(_element_mentions(other, new_el.name) for other in invokers if other is not new_el):
            continue
        type_id, noun = ("Extract Method", "method") if new_el.kind is ElementKind.METHOD else ("Extract Task", "task")
        new_tokens = Counter(new_el.body_tokens)
        for host, lost in hosts:
            overlap = sum(min(n, lost[t]) for t, n in new_tokens.items())
            if overlap / len(new_el.body_tokens) >= 0.5:
                origin = host.name or "an existing block"
                out.add(
                    DetectedRefactoring(
                        type=type_id,
                        details=f"fragment of '{origin}' extracted into new {noun} '{new_el.name}' in {path}",
                        evidence=(
                            Evidence(path, host.span, "source"),
                            Evidence(path, new_el.span, "destination"),
                        ),
                    )
                )
                break
    return out


def _element_mentions(el: BuildElement, name: str) -> bool:
    if any(_token_matches_name(t, name) for t in el.body_tokens):
        return True
    return any(
        name in value for key, value in el.attributes.items() if key in ORDERING_KEYWORDS
    )


def _detect_scheduling(path: str, changes: _FileChanges) -> Optional[DetectedRefactoring]:
    """Fires when every change in the file is an ordering-constraint change."""
    ordering_evidence: list[Evidence] = []
    for b_el, a_el in changes.modified:
        if (
            b_el.body_tokens == a_el.body_tokens
            and _non_ordering_attrs(b_el) == _non_ordering_attrs(a_el)
            and _ordering_attrs(b_el) != _ordering_attrs(a_el)
        ):
            ordering_evidence.append(Evidence(path, a_el.span, "destination"))
        else:
            return None
    for el in changes.added:
        if el.is_ordering_only:
            ordering_evidence.append(Evidence(path, el.span, "destination"))
        else:
            return None
    for el in changes.removed:
        if el.is_ordering_only:
            ordering_evidence.append(Evidence(path, el.span, "source"))
        else:
            return None
    if not ordering_evidence:
        return None
    return DetectedRefactoring(
        type="Scheduling Tasks",
        details=f"task execution order constraints changed in {path}",
        evidence=tuple(ordering_evidence),
    )


def _detect_dry(
    path: str, changes: _FileChanges, config: DetectorConfig
) -> set[DetectedRefactoring]:
    """Near-identical removed definitions replaced by one parameterized construct."""
    out: set[DetectedRefactoring] = set()
    removed = [
        el
        for el in changes.removed
        if el.name and el.kind in (ElementKind.TASK, ElementKind.TARGET, ElementKind.RAW_BLOCK)
    ]
    if len(removed) < 2:
        return out
    groups: list[list[BuildElement]] = []
    for el in removed:
        for group in groups:
            if all(
                g.kind is el.kind
                and jaccard(g.body_tokens, el.body_tokens) >= config.move_similarity
                for g in group
            ):
                group.append(el)
                break
        else:
            groups.append([el])

    loop_markers = {"each", "for", "collect", "foreach"}
    for group in groups:
        if len(group) < 2:
            continue
        names = [el.name for el in group if el.name]
        total_tokens = sum(len(el.body_tokens) for el in group)
        for candidate in changes.added:
            tokens = set(candidate.body_tokens)
            mentioned = sum(1 for n in names if n in tokens)
            has_loop = bool(tokens & loop_markers)
            if mentioned >= 2 and has_loop and len(candidate.body_tokens) < total_tokens:
                evidence = tuple(
                    Evidence(path, el.span, "source") for el in group
                ) + (Evidence(path, candidate.span, "destination"),)
                out.add(
                    DetectedRefactoring(
                        type="DRY",
                        details=(
                            f"{len(group)} near-identical definitions ({', '.join(names)}) "
                            f"consolidated into one parameterized construct in {path}"
                        ),
                        evidence=evidence,
                    )
                )
                break
    return out


def detect_dependency(
    ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG
) -> set[DetectedRefactoring]:
    return _move_detections(ctx, (ElementKind.DEPENDENCY,))


_EXTERNAL_CONFIG_MARKERS = ("ConfigSlurper", "loadProperties", "withReader", "withInputStream")


def detect_properties(
    ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG
) -> set[DetectedRefactoring]:
    out = _move_detections(ctx, (ElementKind.PROPERTY,))

    # In-file externalization: a literal leaves the script and the script now
    # reads an external .properties (or similar) configuration source.
    for path in ctx.shared_paths:
        if path.endswith(".properties"):
            continue
        changes = ctx.changes[path]
        literal_gone: list[tuple[BuildElement, str]] = []  # (evidence anchor, its role)
        for b_el, a_el in changes.modified:
            if _literal_value(b_el) and not _literal_value(a_el):
                literal_gone.append((a_el, "destination"))
        for el in changes.removed:
            if _literal_value(el):
                literal_gone.append((el, "source"))
        if not literal_gone:
            continue
        gained = ctx.after_index[path].tokens.keys() - ctx.before_index[path].tokens.keys()
        if (
            any(t.endswith(".properties") for t in gained)
            or any(m in gained for m in _EXTERNAL_CONFIG_MARKERS)
            or any(  # an Ant-style <property file="..."/> read added
                el.kind is ElementKind.PROPERTY and el.attributes.get("file", "").endswith(".properties")
                for el in changes.added
            )
        ):
            anchor, role = literal_gone[0]
            out.add(
                DetectedRefactoring(
                    type="Externalize Properties",
                    details=f"hardcoded configuration moved out of {path} into an external properties file",
                    evidence=(Evidence(path, anchor.span, role),),
                )
            )
    return out


def detect_variables(
    ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG
) -> set[DetectedRefactoring]:
    out = _move_detections(ctx, (ElementKind.VARIABLE,))  # property moves: detect_properties

    # Extract Variable (same file) and the cross-file extract variants.
    for path, el in ctx.appeared:
        if el.kind not in VALUE_KINDS or not el.name:
            continue
        literal = _literal_value(el)
        if not literal:
            continue
        after = ctx.after_index[path]
        before = ctx.before_index.get(path)
        if before is not None:
            before_count = before.tokens[literal]
            after_count = after.tokens[literal] - el.body_tokens.count(literal)
            refs = after.reference_count(el.name, exclude=el)
            if before_count >= 2 and after_count < before_count and refs >= 1:
                out.add(
                    DetectedRefactoring(
                        type="Extract Variable",
                        details=f"repeated literal '{literal}' replaced by {el.kind.value} '{el.name}' in {path}",
                        evidence=(Evidence(path, el.span, "destination"),),
                    )
                )
        for other in sorted(set(ctx.shared_paths) - {path}):
            o_before = ctx.before_index[other]
            o_after = ctx.after_index[other]
            before_uses = o_before.tokens[literal]
            after_uses = o_after.tokens[literal]
            refs = o_after.reference_count(el.name)
            if before_uses >= 1 and after_uses < before_uses and refs >= 1:
                det = _hierarchy_move(
                    ctx, "extracted variable", (other, _first_literal_span(o_before.model, literal)),
                    (path, el.span), literal=literal, kind=el.kind.value, name=el.name,
                )
                if det is not None:
                    out.add(det)

    out.update(_detect_inline_variables(ctx))
    return out


def _first_literal_span(model: BuildModel, literal: str) -> tuple[int, int]:
    for el in model.elements:
        if literal in el.body_tokens:
            return el.span
    return (1, 1)


def _detect_inline_variables(ctx: CommitContext) -> set[DetectedRefactoring]:
    out: set[DetectedRefactoring] = set()
    # Inline Variable: definition removed, value substituted at its use sites.
    for path in ctx.shared_paths:
        before, after = ctx.before_index[path], ctx.after_index[path]
        for el in ctx.changes[path].removed:
            if el.kind not in VALUE_KINDS or not el.name or id(el) in ctx.moved_sources:
                continue
            literal = _literal_value(el)
            if not literal:
                continue
            before_refs = before.reference_count(el.name, exclude=el)
            after_refs = after.reference_count(el.name)
            before_uses = before.tokens[literal] - el.body_tokens.count(literal)
            after_uses = after.tokens[literal]
            if before_refs >= 1 and after_refs == 0 and after_uses >= before_uses + 1:
                out.add(
                    DetectedRefactoring(
                        type="Inline Variable",
                        details=f"{el.kind.value} '{el.name}' inlined as '{literal}' in {path}",
                        evidence=(Evidence(path, el.span, "source"),),
                    )
                )
    return out


_CATEGORY_DETECTORS = (
    detect_clean_up,
    detect_module_hierarchy,
    detect_subroutine,
    detect_dependency,
    detect_properties,
    detect_variables,
)


def detect_all(ctx: CommitContext, config: DetectorConfig = DEFAULT_CONFIG) -> set[DetectedRefactoring]:
    """Union of the six category detectors, deduplicated on (type, evidence).

    A detector blowing up on a pathological input is logged and skipped so one
    bad file cannot sink the whole commit.
    """
    merged: dict[tuple, DetectedRefactoring] = {}
    for detector in _CATEGORY_DETECTORS:
        try:
            found = detector(ctx, config)
        except Exception:
            logger.warning(
                "%s failed on commit %s", detector.__name__, ctx.commit.commit_hash, exc_info=True
            )
            continue
        for det in sorted(found, key=sort_key):  # the first in sort order wins, whatever the hash seed
            merged.setdefault((det.type, det.evidence), det)
    return set(merged.values())
