"""Structural parsers producing a unified model of one build-file version.

Maven POMs and Ant scripts are parsed as XML with line tracking; Gradle
scripts are parsed lexically (plugins, dependencies, tasks, variables, block
spans) rather than as full Groovy/Kotlin, and anything unrecognized degrades
to a raw block instead of failing. Properties files get a trivial key/value
parse. Comments are stripped and bodies are reduced to normalized token
sequences so detectors can compare element identity across versions.
"""

from __future__ import annotations

import posixpath
import re
import xml.parsers.expat
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence

from .mining import BuildSystem, DataError, classify_build_file


class ElementKind(Enum):
    TASK = "task"
    TARGET = "target"
    METHOD = "method"
    DEPENDENCY = "dependency"
    PROPERTY = "property"
    PLUGIN = "plugin"
    VARIABLE = "variable"
    RAW_BLOCK = "raw_block"


class LinkRelation(Enum):
    PARENT_OF = "parent_of"
    INCLUDES = "includes"
    IMPORTS = "imports"
    APPLIES_FROM = "applies_from"


class XmlMalformedError(DataError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"malformed XML at line {line}: {reason}")
        self.line = line
        self.reason = reason


# Ordering constructs recognized for task scheduling.
ORDERING_KEYWORDS = ("dependsOn", "mustRunAfter", "finalizedBy", "depends")


@dataclass(frozen=True)
class BuildElement:
    kind: ElementKind
    name: Optional[str]
    body_tokens: tuple[str, ...]
    attributes: Mapping[str, str]
    span: tuple[int, int]  # 1-based inclusive (start_line, end_line)

    @property
    def is_ordering_only(self) -> bool:
        return self.attributes.get("ordering") == "true"

    @property
    def depends_names(self) -> tuple[str, ...]:
        joined = ",".join(self.attributes.get(k, "") for k in ORDERING_KEYWORDS)
        return tuple(n.strip() for n in joined.split(",") if n.strip())


@dataclass(frozen=True)
class ModuleLink:
    relation: LinkRelation
    target: str

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("module link target must be non-empty")


@dataclass(frozen=True)
class BuildModel:
    build_system: BuildSystem
    elements: tuple[BuildElement, ...]
    module_links: tuple[ModuleLink, ...]
    source_path: str
    warnings: tuple[str, ...] = ()


# --- tokenization ----------------------------------------------------------

# The quotes sit outside the groups, so a string literal's group is its body;
# exactly one of the three groups takes part in each match.
_TOKEN_RE = re.compile(
    r"\"((?:[^\"\\\n]|\\.)*)\""
    r"|'((?:[^'\\\n]|\\.)*)'"
    r"|([A-Za-z_$][\w$]*|\d[\w.+-]*|[^\s])"
)


def tokenize(text: str) -> tuple[str, ...]:
    """Whitespace-normalized token sequence; string literals lose their quotes."""
    return tuple(map("".join, _TOKEN_RE.findall(text)))


def _scan_groovy(text: str) -> tuple[str, str]:
    """One pass over a script: (text with // and /* */ comments blanked, that
    text with string literals, quotes included, blanked as well). Both keep
    every newline, so lines stay aligned with the source."""
    stripped = list(text)
    masked = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            quote = c
            triple = text[i : i + 3] == quote * 3
            start, i = i, i + (3 if triple else 1)
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if triple and text[i : i + 3] == quote * 3:
                    i += 3
                    break
                if not triple and (text[i] == quote or text[i] == "\n"):
                    i += 1
                    break
                i += 1
            for k in range(start, min(i, n)):
                if text[k] != "\n":
                    masked[k] = " "
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                stripped[i] = masked[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    stripped[i] = masked[i] = " "
                i += 1
            if i < n:
                stripped[i] = stripped[i + 1] = masked[i] = masked[i + 1] = " "
                i += 2
            continue
        i += 1
    return "".join(stripped), "".join(masked)


# --- XML backbone ----------------------------------------------------------

class _XmlNode:
    __slots__ = ("tag", "attrib", "children", "text_parts", "start_line", "end_line")

    def __init__(self, tag: str, attrib: dict, start_line: int):
        self.tag = tag
        self.attrib = attrib
        self.children: list[_XmlNode] = []
        self.text_parts: list[str] = []
        self.start_line = start_line
        self.end_line = start_line

    @property
    def text(self) -> str:
        return "".join(self.text_parts)

    def find(self, tag: str) -> Optional["_XmlNode"]:
        return next((c for c in self.children if c.tag == tag), None)

    def findall(self, tag: str) -> list["_XmlNode"]:
        return [c for c in self.children if c.tag == tag]

    def child_text(self, tag: str) -> str:
        node = self.find(tag)
        return node.text.strip() if node is not None else ""

    def iter(self) -> Iterator["_XmlNode"]:
        """This node and its descendants in document order (no recursion, so
        nesting depth is not limited by the interpreter's stack)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _parse_xml(content: str) -> _XmlNode:
    parser = xml.parsers.expat.ParserCreate()
    root: list[_XmlNode] = []
    stack: list[_XmlNode] = []

    def start(tag, attrs):
        node = _XmlNode(tag, dict(attrs), parser.CurrentLineNumber)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag):
        node = stack.pop()
        node.end_line = parser.CurrentLineNumber

    def chars(data):
        if stack:
            stack[-1].text_parts.append(data)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(content, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlMalformedError(exc.lineno, str(exc)) from exc
    finally:
        # the handlers close over the parser; unhooking them breaks that cycle
        # so the tree is freed with its model, not at the next cyclic collection
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
    if not root:
        raise XmlMalformedError(1, "no root element")
    return root[0]


def _xml_inner_text(node: _XmlNode) -> str:
    parts = [node.text]
    stack: list = list(reversed(node.children))  # nodes to open, or end tags
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(f"<{item.tag}")
        for k, v in item.attrib.items():
            parts.append(f' {k}="{v}"')
        parts.append(">")
        parts.append(item.text)
        stack.append(f"</{item.tag}>")
        stack.extend(reversed(item.children))
    return "".join(parts)


def _xml_body_tokens(node: _XmlNode) -> tuple[str, ...]:
    return tokenize(_xml_inner_text(node))


def _is_literal_value(value: str) -> bool:
    return "${" not in value and "$" not in value


# --- Maven -----------------------------------------------------------------

_MAVEN_CONFIG_BLOCKS = (
    "scm", "url", "licenses", "developers", "organization", "distributionManagement",
    "repositories", "pluginRepositories", "issueManagement", "ciManagement", "reporting",
)


def parse_maven(content: str) -> BuildModel:
    """Parse a POM into dependency/property/plugin elements and module links.

    Dependency identity is groupId:artifactId; the version is kept as an
    attribute so version bumps do not read as moves.
    """
    root = _parse_xml(content)
    elements: list[BuildElement] = []
    links: list[ModuleLink] = []

    for node in root.iter():
        if node.tag == "dependency":
            group = node.child_text("groupId")
            artifact = node.child_text("artifactId")
            name = f"{group}:{artifact}" if group else artifact
            attrs = {"groupId": group, "artifactId": artifact}
            for extra in ("version", "scope"):
                value = node.child_text(extra)
                if value:
                    attrs[extra] = value
            elements.append(
                BuildElement(
                    kind=ElementKind.DEPENDENCY,
                    name=name or None,
                    body_tokens=_xml_body_tokens(node),
                    attributes=attrs,
                    span=(node.start_line, node.end_line),
                )
            )
        elif node.tag == "plugin":
            group = node.child_text("groupId")
            artifact = node.child_text("artifactId")
            name = f"{group}:{artifact}" if group else artifact
            elements.append(
                BuildElement(
                    kind=ElementKind.PLUGIN,
                    name=name or None,
                    body_tokens=_xml_body_tokens(node),
                    attributes={"artifactId": artifact},
                    span=(node.start_line, node.end_line),
                )
            )
        elif node.tag == "properties":
            for prop in node.children:
                value = prop.text.strip()
                elements.append(
                    BuildElement(
                        kind=ElementKind.PROPERTY,
                        name=prop.tag,
                        body_tokens=tokenize(value),
                        attributes={"value": value, "literal": str(_is_literal_value(value)).lower()},
                        span=(prop.start_line, prop.end_line),
                    )
                )

    parent = root.find("parent")
    if parent is not None:
        relative = parent.child_text("relativePath")
        group = parent.child_text("groupId")
        artifact = parent.child_text("artifactId")
        target = relative or (f"{group}:{artifact}" if artifact else "")
        if target:
            links.append(ModuleLink(LinkRelation.PARENT_OF, target))

    modules = root.find("modules")
    if modules is not None:
        for module in modules.findall("module"):
            name = module.text.strip()
            if name:
                links.append(ModuleLink(LinkRelation.INCLUDES, name))

    for tag in _MAVEN_CONFIG_BLOCKS:
        node = root.find(tag)
        if node is not None:
            elements.append(
                BuildElement(
                    kind=ElementKind.PROPERTY,
                    name=tag,
                    body_tokens=_xml_body_tokens(node),
                    attributes={"block": "true"},
                    span=(node.start_line, node.end_line),
                )
            )

    elements.sort(key=lambda e: e.span)
    return BuildModel(
        build_system=BuildSystem.MAVEN,
        elements=tuple(elements),
        module_links=tuple(links),
        source_path="",
    )


# --- Ant ---------------------------------------------------------------------

_ANT_TOP_LEVEL = {"target", "property", "taskdef", "typedef", "import", "macrodef"}


def parse_ant(content: str) -> BuildModel:
    """Parse an Ant build.xml: targets with ordered depends lists, properties,
    task/type definitions as plugins, macrodefs as methods, imports as links."""
    root = _parse_xml(content)
    elements: list[BuildElement] = []
    links: list[ModuleLink] = []

    for node in root.iter():
        if node.tag == "target":
            attrs = {k: v for k, v in node.attrib.items() if k != "name"}
            if "depends" in attrs:
                names = [n.strip() for n in attrs["depends"].split(",") if n.strip()]
                attrs["depends"] = ",".join(names)
            elements.append(
                BuildElement(
                    kind=ElementKind.TARGET,
                    name=node.attrib.get("name"),
                    body_tokens=_xml_body_tokens(node),
                    attributes=attrs,
                    span=(node.start_line, node.end_line),
                )
            )
        elif node.tag == "property":
            value = node.attrib.get("value", node.attrib.get("location", ""))
            attrs = dict(node.attrib)
            attrs.pop("name", None)
            attrs["literal"] = str(_is_literal_value(value)).lower()
            elements.append(
                BuildElement(
                    kind=ElementKind.PROPERTY,
                    name=node.attrib.get("name"),
                    body_tokens=tokenize(value) if value else tokenize(node.attrib.get("file", "")),
                    attributes=attrs,
                    span=(node.start_line, node.end_line),
                )
            )
        elif node.tag in ("taskdef", "typedef"):
            elements.append(
                BuildElement(
                    kind=ElementKind.PLUGIN,
                    name=node.attrib.get("name") or node.attrib.get("resource"),
                    body_tokens=tokenize(" ".join(node.attrib.values())),
                    attributes=dict(node.attrib),
                    span=(node.start_line, node.end_line),
                )
            )
        elif node.tag == "macrodef":
            elements.append(
                BuildElement(
                    kind=ElementKind.METHOD,
                    name=node.attrib.get("name"),
                    body_tokens=_xml_body_tokens(node),
                    attributes={},
                    span=(node.start_line, node.end_line),
                )
            )
        elif node.tag == "import":
            target = node.attrib.get("file", "")
            if target:
                links.append(ModuleLink(LinkRelation.IMPORTS, target))

    for node in root.children:
        if node.tag not in _ANT_TOP_LEVEL:
            elements.append(
                BuildElement(
                    kind=ElementKind.RAW_BLOCK,
                    name=node.attrib.get("id") or node.attrib.get("name"),
                    body_tokens=_xml_body_tokens(node),
                    attributes={"tag": node.tag},
                    span=(node.start_line, node.end_line),
                )
            )

    elements.sort(key=lambda e: e.span)
    return BuildModel(
        build_system=BuildSystem.ANT,
        elements=tuple(elements),
        module_links=tuple(links),
        source_path="",
    )


# --- properties files ------------------------------------------------------

def parse_properties(content: str) -> BuildModel:
    """key=value lines of a .properties file as property elements."""
    elements = []
    for lineno, raw in enumerate(content.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("!"):
            continue
        m = re.match(r"([^=:\s]+)\s*[=:]\s*(.*)$", line)
        if not m:
            continue
        key, value = m.group(1), m.group(2).strip()
        elements.append(
            BuildElement(
                kind=ElementKind.PROPERTY,
                name=key,
                body_tokens=tokenize(value),
                attributes={"value": value, "literal": str(_is_literal_value(value)).lower()},
                span=(lineno, lineno),
            )
        )
    return BuildModel(
        build_system=BuildSystem.GRADLE,
        elements=tuple(elements),
        module_links=(),
        source_path="",
    )


# --- Gradle ------------------------------------------------------------------

_RE_APPLY_PLUGIN = re.compile(r"^apply\s+plugin\s*:\s*['\"]([^'\"]+)['\"]")
_RE_APPLY_FROM = re.compile(r"^apply\s*\(?\s*from\s*[:=]\s*['\"]([^'\"]+)['\"]")
_RE_PLUGINS_BLOCK = re.compile(r"^plugins\s*\{")
_RE_DEPS_BLOCK = re.compile(r"^dependencies\s*\{")
_RE_EXT_BLOCK = re.compile(r"^(?:project\.)?ext\s*\{")
_RE_TASK = re.compile(
    r"^task(?:\s+|\s*\()\s*(?:[\"'](?P<q>[^\"']+)[\"']|(?P<n>[A-Za-z_]\w*))(?P<rest>.*)$", re.S
)
_RE_TASK_REG = re.compile(r"^tasks\.(?:register|create)\s*(?:<[\w.]+>)?\s*\(\s*[\"']([^\"']+)[\"']")
_RE_DEF_METHOD = re.compile(r"^(?:(?:private|static|protected)\s+)*def\s+([A-Za-z_]\w*)\s*\(")
_RE_DEF_VAR = re.compile(r"^def\s+([A-Za-z_]\w*)\s*=\s*(.+)$", re.S)
_RE_EXT_PROP = re.compile(r"^(?:project\.)?ext\.([A-Za-z_]\w*)\s*=\s*(.+)$", re.S)
_RE_ASSIGN = re.compile(r"^([A-Za-z_][\w.]*)\s*=(?!=)\s*(.+)$", re.S)
_RE_INCLUDE = re.compile(r"^include\b")
_RE_ORDER_RAW = re.compile(
    r"^([\w.]+)\.(dependsOn|mustRunAfter|finalizedBy)\s*\(?\s*([^(){}]*?)\)?\s*$"
)
_RE_ORDER_STMT = re.compile(r"^(dependsOn|mustRunAfter|finalizedBy)\b[\s(:]*([^(){}]*?)\)?\s*$")
_RE_NAMED_BLOCK = re.compile(r"^([A-Za-z_][\w.]*)\s*\{")
_RE_LEADING_IDENT = re.compile(r"^([A-Za-z_][\w.]*)")
_RE_ID_ENTRY = re.compile(
    r"id\s*\(?\s*[\"']([^\"']+)[\"']\s*\)?(?:\s+version\s+[\"']([^\"']+)[\"'])?"
)
_RE_DEP_STR = re.compile(r"^(\w+)\s*\(?\s*[\"']([^\"']+)[\"']")
_RE_DEP_MAP = re.compile(
    r"^(\w+)\s*\(?\s*group\s*:\s*[\"']([^\"']+)[\"']\s*,\s*name\s*:\s*[\"']([^\"']+)[\"']"
    r"(?:\s*,\s*version\s*:\s*[\"']([^\"']+)[\"'])?"
)
_RE_DEP_PROJECT = re.compile(r"^(\w+)\s*\(?\s*project\s*\(\s*[\"']([^\"']+)[\"']\s*\)")
_RE_QUOTED = re.compile(r"[\"']([^\"']+)[\"']")
_RE_GRADLE_LITERAL = re.compile(r"^(?:(['\"])[^'\"]*\1|\d[\w.+-]*|true|false)$")


def _bracket_net(masked_line: str) -> tuple[int, int]:
    opens = sum(masked_line.count(c) for c in "({[")
    closes = sum(masked_line.count(c) for c in ")}]")
    return opens, closes


def _statements(lines: list[str], masked: list[str], offset: int) -> Iterator[tuple[int, int, bool]]:
    """Yield (first_idx, last_idx, balanced) statement extents, 0-based into `lines`."""
    i = 0
    n = len(lines)
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        depth = 0
        j = i
        balanced = True
        while j < n:
            opens, closes = _bracket_net(masked[j])
            depth += opens - closes
            if depth <= 0:
                break
            j += 1
        if j >= n:
            j = n - 1
            balanced = False
        yield i + offset, j + offset, balanced
        i = j + 1


def _block_body(
    stmt_lines: list[str], masked_lines: list[str]
) -> tuple[Optional[str], str, int]:
    """Return (body text inside the outermost braces, the same slice of the
    masked text, body line offset)."""
    joined_masked = "\n".join(masked_lines)
    start = joined_masked.find("{")
    if start == -1:
        return None, "", 0
    depth = 0
    end = -1
    for idx in range(start, len(joined_masked)):
        c = joined_masked[idx]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                end = idx
                break
    if end == -1:
        end = len(joined_masked)
    joined = "\n".join(stmt_lines)
    body = joined[start + 1 : end]
    return body, joined_masked[start + 1 : end], joined[:start].count("\n")


def _value_attrs(raw_value: str) -> dict[str, str]:
    value = raw_value.strip().rstrip(";")
    literal = bool(_RE_GRADLE_LITERAL.match(value))
    if literal and len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        value = value[1:-1]
    return {"value": value, "literal": str(literal).lower()}


class _GradleParser:
    def __init__(self, content: str):
        stripped, masked = _scan_groovy(content)
        self.lines = stripped.split("\n")
        self.masked = masked.split("\n")
        self.elements: list[BuildElement] = []
        self.links: list[ModuleLink] = []
        self.warnings: list[str] = []

    def parse(self) -> BuildModel:
        self._scan(0, len(self.lines) - 1)
        self.elements.sort(key=lambda e: e.span)
        return BuildModel(
            build_system=BuildSystem.GRADLE,
            elements=tuple(self.elements),
            module_links=tuple(self.links),
            source_path="",
            warnings=tuple(self.warnings),
        )

    # -- statement dispatch --

    def _scan(self, first: int, last: int) -> None:
        lines = self.lines[first : last + 1]
        masked = self.masked[first : last + 1]
        for start, end, balanced in _statements(lines, masked, first):
            if not balanced:
                self.warnings.append(f"UnbalancedBraces(line {start + 1})")
                self._add_raw(start, end)
                return
            self._dispatch(start, end)

    def _stmt(self, start: int, end: int) -> str:
        return "\n".join(self.lines[start : end + 1]).strip()

    def _dispatch(self, start: int, end: int) -> None:
        stmt = self._stmt(start, end)
        span = (start + 1, end + 1)

        m = _RE_APPLY_PLUGIN.match(stmt)
        if m:
            self.elements.append(
                BuildElement(
                    kind=ElementKind.PLUGIN,
                    name=m.group(1),
                    body_tokens=(m.group(1),),
                    attributes={"form": "legacy"},
                    span=span,
                )
            )
            return
        m = _RE_APPLY_FROM.match(stmt)
        if m:
            self.links.append(ModuleLink(LinkRelation.APPLIES_FROM, m.group(1)))
            return
        if _RE_PLUGINS_BLOCK.match(stmt):
            self._parse_plugins_block(start, end)
            return
        if _RE_DEPS_BLOCK.match(stmt):
            self._parse_dependencies_block(start, end)
            return
        if _RE_EXT_BLOCK.match(stmt):
            self._parse_ext_block(start, end)
            return
        m = _RE_TASK_REG.match(stmt)
        if m:
            self._add_task(m.group(1), stmt[m.end() :], start, end)
            return
        m = _RE_TASK.match(stmt)
        if m:
            self._add_task(m.group("q") or m.group("n"), m.group("rest"), start, end)
            return
        m = _RE_DEF_METHOD.match(stmt)
        if m and "{" in "\n".join(self.masked[start : end + 1]):
            name = m.group(1)
            self.elements.append(
                BuildElement(
                    kind=ElementKind.METHOD,
                    name=name,
                    body_tokens=tokenize(stmt[m.end() :]),
                    attributes={},
                    span=span,
                )
            )
            return
        m = _RE_DEF_VAR.match(stmt)
        if m:
            self.elements.append(
                BuildElement(
                    kind=ElementKind.VARIABLE,
                    name=m.group(1),
                    body_tokens=tokenize(m.group(2)),
                    attributes=_value_attrs(m.group(2)),
                    span=span,
                )
            )
            return
        m = _RE_EXT_PROP.match(stmt)
        if m:
            self.elements.append(
                BuildElement(
                    kind=ElementKind.PROPERTY,
                    name=m.group(1),
                    body_tokens=tokenize(m.group(2)),
                    attributes=_value_attrs(m.group(2)),
                    span=span,
                )
            )
            return
        if _RE_INCLUDE.match(stmt):
            for name in _RE_QUOTED.findall(stmt):
                clean = name.lstrip(":").replace(":", "/")
                if clean:
                    self.links.append(ModuleLink(LinkRelation.INCLUDES, clean))
            return
        m = _RE_ORDER_RAW.match(stmt)
        if m:
            self.elements.append(
                BuildElement(
                    kind=ElementKind.RAW_BLOCK,
                    name=m.group(1),
                    body_tokens=(),
                    attributes={m.group(2): " ".join(tokenize(m.group(3))), "ordering": "true"},
                    span=span,
                )
            )
            return
        m = _RE_ASSIGN.match(stmt)
        if m and "{" not in "\n".join(self.masked[start : end + 1]):
            self.elements.append(
                BuildElement(
                    kind=ElementKind.PROPERTY,
                    name=m.group(1),
                    body_tokens=tokenize(m.group(2)),
                    attributes=_value_attrs(m.group(2)),
                    span=span,
                )
            )
            return
        self._add_raw(start, end)

    # -- element builders --

    def _add_raw(self, start: int, end: int) -> None:
        stmt = self._stmt(start, end)
        m = _RE_NAMED_BLOCK.match(stmt)
        name = m.group(1) if m else None
        if name is None:
            lead = _RE_LEADING_IDENT.match(stmt)
            name = lead.group(1) if lead else None
        self.elements.append(
            BuildElement(
                kind=ElementKind.RAW_BLOCK,
                name=name,
                body_tokens=tokenize(stmt),
                attributes={},
                span=(start + 1, end + 1),
            )
        )

    def _add_task(self, name: str, rest: str, start: int, end: int) -> None:
        attrs: dict[str, str] = {}
        type_m = re.search(r"type\s*:\s*([\w.]+)", rest)
        if type_m:
            attrs["type"] = type_m.group(1)
        decl_m = re.search(r"dependsOn\s*:\s*([^,){]+)", rest)
        if decl_m:
            attrs["dependsOn"] = decl_m.group(1).strip()

        body, _, _ = _block_body(self.lines[start : end + 1], self.masked[start : end + 1])
        body_text = body if body is not None else rest
        kept_lines = []
        for line in body_text.split("\n"):
            om = _RE_ORDER_STMT.match(line.strip())
            if om and "{" not in line:
                key = om.group(1)
                value = " ".join(tokenize(om.group(2)))
                attrs[key] = f"{attrs[key]},{value}" if key in attrs else value
                continue
            kept_lines.append(line)
        decl_args = ""
        if body is not None:
            brace_at = "\n".join(self.masked[start : end + 1]).find("{")
            decl_args = "\n".join(self.lines[start : end + 1])[:brace_at]
            decl_args = decl_args.split("task", 1)[-1]
        tokens = tokenize(decl_args + "\n" + "\n".join(kept_lines))
        self.elements.append(
            BuildElement(
                kind=ElementKind.TASK,
                name=name,
                body_tokens=tokens,
                attributes=attrs,
                span=(start + 1, end + 1),
            )
        )

    def _parse_plugins_block(self, start: int, end: int) -> None:
        body, _, offset = _block_body(self.lines[start : end + 1], self.masked[start : end + 1])
        if body is None:
            return
        for idx, line in enumerate(body.split("\n")):
            for m in _RE_ID_ENTRY.finditer(line):
                attrs = {"form": "dsl"}
                if m.group(2):
                    attrs["version"] = m.group(2)
                lineno = start + offset + idx + 1
                self.elements.append(
                    BuildElement(
                        kind=ElementKind.PLUGIN,
                        name=m.group(1),
                        body_tokens=(m.group(1),),
                        attributes=attrs,
                        span=(lineno, lineno),
                    )
                )

    def _parse_dependencies_block(self, start: int, end: int) -> None:
        body, masked_body, offset = _block_body(
            self.lines[start : end + 1], self.masked[start : end + 1]
        )
        if body is None:
            return
        body_lines = body.split("\n")
        for s, e, _ in _statements(body_lines, masked_body.split("\n"), 0):
            stmt = "\n".join(body_lines[s : e + 1]).strip()
            span = (start + offset + s + 1, start + offset + e + 1)
            dep = self._dependency_from(stmt, span)
            if dep is not None:
                self.elements.append(dep)

    @staticmethod
    def _dependency_from(stmt: str, span: tuple[int, int]) -> Optional[BuildElement]:
        m = _RE_DEP_MAP.match(stmt)
        if m:
            conf, group, name, version = m.groups()
            attrs = {"configuration": conf, "notation": f"{group}:{name}"}
            if version:
                attrs["version"] = version
            return BuildElement(
                kind=ElementKind.DEPENDENCY,
                name=f"{group}:{name}",
                body_tokens=tokenize(stmt),
                attributes=attrs,
                span=span,
            )
        m = _RE_DEP_PROJECT.match(stmt)
        if m:
            conf, proj = m.groups()
            return BuildElement(
                kind=ElementKind.DEPENDENCY,
                name=f"project{proj}",
                body_tokens=tokenize(stmt),
                attributes={"configuration": conf, "notation": f"project({proj})"},
                span=span,
            )
        m = _RE_DEP_STR.match(stmt)
        if m:
            conf, notation = m.groups()
            parts = notation.split(":")
            name = ":".join(parts[:2]) if len(parts) >= 2 else notation
            attrs = {"configuration": conf, "notation": notation}
            if len(parts) >= 3:
                attrs["version"] = parts[2]
            return BuildElement(
                kind=ElementKind.DEPENDENCY,
                name=name,
                body_tokens=tokenize(stmt),
                attributes=attrs,
                span=span,
            )
        return None

    def _parse_ext_block(self, start: int, end: int) -> None:
        body, _, offset = _block_body(self.lines[start : end + 1], self.masked[start : end + 1])
        if body is None:
            return
        for idx, line in enumerate(body.split("\n")):
            m = _RE_ASSIGN.match(line.strip())
            if m:
                lineno = start + offset + idx + 1
                self.elements.append(
                    BuildElement(
                        kind=ElementKind.PROPERTY,
                        name=m.group(1),
                        body_tokens=tokenize(m.group(2)),
                        attributes=_value_attrs(m.group(2)),
                        span=(lineno, lineno),
                    )
                )


def parse_gradle(content: str) -> BuildModel:
    """Lexical, structure-level parse of a Gradle (Groovy or Kotlin DSL) script.

    Recognizes plugins (both the plugins DSL and legacy apply form),
    dependency notations, task declarations, def/ext variables, apply-from and
    settings includes; everything else becomes a raw block. Spans come from
    brace balancing; an unbalanced tail degrades to one raw block and a
    warning instead of an error.
    """
    return _GradleParser(content).parse()


def parse_build_file(path: str, content: str) -> BuildModel:
    """Dispatch on the file name and attach the source path to the model."""
    system = classify_build_file(path)
    base = path.rsplit("/", 1)[-1]
    if system is BuildSystem.MAVEN:
        model = parse_maven(content)
    elif system is BuildSystem.ANT:
        model = parse_ant(content)
    elif base.endswith(".properties"):
        model = parse_properties(content)
    else:
        model = parse_gradle(content)
    return BuildModel(
        build_system=model.build_system,
        elements=model.elements,
        module_links=model.module_links,
        source_path=path,
        warnings=model.warnings,
    )


def model_to_json(model: BuildModel) -> dict:
    """Debug dump of a model (used by the CLI's --dump-models flag)."""
    return {
        "source_path": model.source_path,
        "build_system": model.build_system.value,
        "elements": [
            {
                "kind": e.kind.value,
                "name": e.name,
                "attributes": dict(e.attributes),
                "span": list(e.span),
            }
            for e in model.elements
        ],
        "module_links": [
            {"relation": l.relation.value, "target": l.target} for l in model.module_links
        ],
        "warnings": list(model.warnings),
    }


# --- hierarchy ----------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyGraph:
    nodes: frozenset[str]
    children: Mapping[str, tuple[str, ...]]
    warnings: tuple[str, ...] = ()

    def is_ancestor(self, a: str, b: str) -> bool:
        """True when a reaches b through parent->child edges."""
        seen = set()
        frontier = [a]
        while frontier:
            cur = frontier.pop()
            for child in self.children.get(cur, ()):
                if child == b:
                    return True
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return False


_GRADLE_ROOT_NAMES = ("build.gradle", "build.gradle.kts")


def _norm(path: str) -> str:
    return posixpath.normpath(path)


def _resolve(base_dir: str, target: str, default_child: Optional[str]) -> list[str]:
    resolved = _norm(posixpath.join(base_dir, target))
    candidates = [resolved]
    if default_child:
        candidates.append(_norm(posixpath.join(resolved, default_child)))
    return candidates


def infer_hierarchy(models: Mapping[str, BuildModel]) -> HierarchyGraph:
    """Directed parent->child graph over one commit-side snapshot of models.

    Edges come from Maven parent/module links, Gradle settings includes plus
    directory nesting, and Ant imports (the imported file acts as the parent).
    Cycles are broken by dropping the closing edge, with a warning.
    """
    paths = {_norm(p): m for p, m in models.items()}
    edges: set[tuple[str, str]] = set()
    warnings: list[str] = []

    def pick(candidates: Sequence[str]) -> Optional[str]:
        return next((c for c in candidates if c in paths), None)

    for path in sorted(paths):
        model = paths[path]
        base_dir = posixpath.dirname(path)
        basename = path.rsplit("/", 1)[-1]
        for link in model.module_links:
            if link.relation is LinkRelation.INCLUDES:
                if model.build_system is BuildSystem.MAVEN:
                    child = pick(_resolve(base_dir, link.target, "pom.xml"))
                    if child and child != path:
                        edges.add((path, child))
                else:
                    # settings file: the sibling root build script owns the edge
                    parent = pick(
                        [posixpath.join(base_dir, n) if base_dir else n for n in _GRADLE_ROOT_NAMES]
                    ) or path
                    for root_name in _GRADLE_ROOT_NAMES:
                        child = pick(_resolve(base_dir, link.target, root_name))
                        if child and child not in (path, parent):
                            edges.add((parent, child))
                            break
            elif link.relation is LinkRelation.PARENT_OF:
                if "/" in link.target or link.target.endswith(".xml"):
                    parent = pick(_resolve(base_dir, link.target, "pom.xml"))
                else:
                    parent = _nearest_ancestor_file(path, paths, ("pom.xml",))
                if parent and parent != path:
                    edges.add((parent, path))
            elif link.relation is LinkRelation.IMPORTS:
                imported = pick(_resolve(base_dir, link.target, None))
                if imported and imported != path:
                    edges.add((imported, path))

        if model.build_system is BuildSystem.GRADLE and basename != "settings.gradle":
            parent = _nearest_ancestor_file(path, paths, _GRADLE_ROOT_NAMES)
            if parent and parent != path:
                edges.add((parent, path))

    children: dict[str, list[str]] = {p: [] for p in paths}
    acyclic: set[tuple[str, str]] = set()
    for parent, child in sorted(edges):
        if _reaches(child, parent, acyclic):
            warnings.append(f"dropping cycle-closing edge {parent} -> {child}")
            continue
        acyclic.add((parent, child))
        children[parent].append(child)

    return HierarchyGraph(
        nodes=frozenset(paths),
        children={p: tuple(sorted(cs)) for p, cs in children.items()},
        warnings=tuple(warnings),
    )


def _reaches(src: str, dst: str, edges: set[tuple[str, str]]) -> bool:
    frontier = [src]
    seen = set()
    while frontier:
        cur = frontier.pop()
        if cur == dst:
            return True
        for a, b in edges:
            if a == cur and b not in seen:
                seen.add(b)
                frontier.append(b)
    return False


def _nearest_ancestor_file(
    path: str, paths: Mapping[str, BuildModel], basenames: Sequence[str]
) -> Optional[str]:
    """Closest build file in a directory strictly above the file's own."""
    cur = posixpath.dirname(path)
    while cur:
        parent_dir = posixpath.dirname(cur)
        for name in basenames:
            candidate = _norm(posixpath.join(parent_dir, name)) if parent_dir else name
            if candidate in paths and candidate != path:
                return candidate
        if parent_dir == cur:
            return None
        cur = parent_dir
    return None
