"""Structural parsers producing a unified model of one build-file version.

Maven POMs and Ant scripts are parsed as XML with line tracking; Gradle
scripts are parsed lexically (plugins, dependencies, tasks, variables, block
spans) rather than as full Groovy/Kotlin, and anything unrecognized degrades
to a raw block instead of failing. Properties files get a trivial key/value
parse. Comments are stripped and bodies are reduced to normalized token
sequences so detectors can compare element identity across versions.
"""

from __future__ import annotations

import logging
import posixpath
import re
import sys
import xml.parsers.expat
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .mining import BuildSystem, DataError, checked, classify_build_file

logger = logging.getLogger(__name__)


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


class BuildElement(NamedTuple):
    kind: ElementKind
    name: Optional[str]
    body_tokens: tuple[str, ...]
    attributes: Mapping[str, str]
    span: tuple[int, int]  # 1-based inclusive (start_line, end_line)

    @property
    def is_ordering_only(self) -> bool:
        return self.attributes.get("ordering") == "true"


@checked
class ModuleLink(NamedTuple):
    relation: LinkRelation
    target: str

    def _check(self) -> None:
        if not self.target:
            raise ValueError("module link target must be non-empty")


class BuildModel(NamedTuple):
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


_TOKENS: dict[str, tuple[str, ...]] = {}  # tokenize's memo, emptied by forget_tokens


def tokenize(text: str) -> tuple[str, ...]:
    """Whitespace-normalized token sequence; string literals lose their quotes.

    Tokens are interned, so the many equal tokens of one model (each
    dependency's ``groupId``, ``<``, ``>`` ...) share one string. Each text is
    tokenized once until `forget_tokens` is called, so equal texts share one
    tuple too."""
    tokens = _TOKENS.get(text)
    if tokens is None:
        tokens = _TOKENS[text] = tuple(sys.intern(m[m.lastindex]) for m in _TOKEN_RE.finditer(text))
    return tokens


def forget_tokens() -> None:
    """Empty `tokenize`'s memo; `CommitContext.from_commit` does, so it holds one commit's texts."""
    _TOKENS.clear()


# What a script scan blanks: a string literal (group ``string``), a // comment
# or a /* */ comment. A triple-quoted literal may span lines and a single-quoted
# one ends at its quote or at the newline. A backslash takes the next character,
# a newline too; a literal or comment left open runs to the end of the text, and
# the */ may reuse the * of its /*, as in ``/*/``.
_GROOVY_LEXEME_RE = re.compile(
    r'(?P<string>"""(?:[^"\\]|\\[\s\S]|"(?!""))*(?:"""|\\?\Z)'
    r"|'''(?:[^'\\]|\\[\s\S]|'(?!''))*(?:'''|\\?\Z)"
    r'|"(?:[^"\\\n]|\\[\s\S])*(?:["\n]|\\?\Z)'
    r"|'(?:[^'\\\n]|\\[\s\S])*(?:['\n]|\\?\Z))"
    r"|//[^\n]*|/(?=\*)[\s\S]*?(?:\*/|\Z)"
)


def _blank(text: str) -> str:
    """``text`` with every character but a newline turned into a space."""
    return "\n".join(" " * len(line) for line in text.split("\n"))


def _scan_groovy(text: str) -> tuple[str, str]:
    """One pass over a script: (text with // and /* */ comments blanked, that
    text with string literals, quotes included, blanked as well). Both keep
    every newline, so lines stay aligned with the source."""
    stripped: list[str] = []
    masked: list[str] = []
    done = 0
    for m in _GROOVY_LEXEME_RE.finditer(text):
        start, end = m.span()
        plain, lexeme = text[done:start], m.group()
        blank = _blank(lexeme)
        stripped += plain, lexeme if m.lastgroup == "string" else blank
        masked += plain, blank
        done = end
    stripped.append(text[done:])
    masked.append(text[done:])
    return "".join(stripped), "".join(masked)


# --- XML backbone ----------------------------------------------------------

_NO_ATTRS: Mapping[str, str] = MappingProxyType({})


class _XmlNode:
    """An element: its text is all its character data, that after its
    children too, in one string. A leaf shares an empty tuple of children and,
    without attributes, one empty read-only attribute mapping."""

    __slots__ = ("tag", "attrib", "children", "text", "start_line", "end_line")

    def __init__(self, tag: str, attrib: Mapping[str, str], start_line: int):
        self.tag = tag
        self.attrib = attrib
        self.children: list[_XmlNode] | tuple[()] = ()
        self.text = ""
        self.start_line = start_line
        self.end_line = start_line

    def find(self, tag: str) -> Optional["_XmlNode"]:
        return next((c for c in self.children if c.tag == tag), None)

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
    parser.buffer_text = True  # a run of character data arrives in one call
    root: list[_XmlNode] = []
    stack: list[_XmlNode] = []
    texts: list[list[str]] = []  # the character data of each open element, in pieces

    def start(tag, attrs):
        node = _XmlNode(tag, attrs or _NO_ATTRS, parser.CurrentLineNumber)
        if not stack:
            root.append(node)
        elif stack[-1].children:
            stack[-1].children.append(node)
        else:
            stack[-1].children = [node]
        stack.append(node)
        texts.append([])

    def end(tag):
        node = stack.pop()
        node.text = "".join(texts.pop())
        node.end_line = parser.CurrentLineNumber

    def chars(data):
        if texts:
            texts[-1].append(data)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(content, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlMalformedError(exc.lineno, str(exc)) from exc
    except UnicodeEncodeError as exc:  # expat reads UTF-8, which has no lone surrogate
        line = content.count("\n", 0, exc.start) + 1
        raise XmlMalformedError(line, f"character {content[exc.start]!r} cannot be encoded: {exc.reason}") from exc
    finally:
        # the handlers close over the parser; unhooking them breaks that cycle
        # so the tree is freed with its model, not at the next cyclic collection
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
    if not root:
        raise XmlMalformedError(1, "no root element")
    return root[0]


def _xml_body_tokens(node: _XmlNode) -> tuple[str, ...]:
    """The tokens of a node's inner XML: its text, then each descendant as a
    start tag with its attributes, its text and its end tag."""
    parts = [node.text]
    stack: list = list(reversed(node.children))  # nodes to open, or end tags
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        attributes = "".join(f' {k}="{v}"' for k, v in item.attrib.items()) if item.attrib else ""
        parts += f"<{item.tag}{attributes}>", item.text
        stack.append(f"</{item.tag}>")
        stack.extend(reversed(item.children))
    return tokenize("".join(parts))


def _node_element(
    kind: ElementKind, node: _XmlNode, name: Optional[str], attributes: Mapping[str, str],
    body_tokens: Optional[tuple[str, ...]] = None,
) -> BuildElement:
    """The element ``node`` declares: it spans the node's lines and, without
    ``body_tokens``, its body is the node's inner XML."""
    return BuildElement(
        kind=kind,
        name=name,
        body_tokens=_xml_body_tokens(node) if body_tokens is None else body_tokens,
        attributes=attributes,
        span=(node.start_line, node.end_line),
    )


def _literal_flag(value: str) -> str:
    """The ``literal`` attribute of a value: "false" when it refers to a
    property, as in ``${x}`` or ``$x``. Constants, so every element shares them."""
    return "false" if "$" in value else "true"


def _model(
    system: BuildSystem, elements: list[BuildElement], links: Sequence[ModuleLink] = (), warnings: Sequence[str] = ()
) -> BuildModel:
    """The model of one file, its elements in span order; ``parse_build_file``
    sets its source path."""
    elements.sort(key=lambda e: e.span)
    return BuildModel(system, tuple(elements), tuple(links), "", tuple(warnings))


# --- Maven -----------------------------------------------------------------

_MAVEN_CONFIG_BLOCKS = (
    "scm", "url", "licenses", "developers", "organization", "distributionManagement",
    "repositories", "pluginRepositories", "issueManagement", "ciManagement", "reporting",
)


def _maven_name(node: _XmlNode) -> tuple[str, str, Optional[str]]:
    """(groupId, artifactId, name) of a dependency or plugin: the name is
    group:artifact, the artifact alone without a group, None without both."""
    group = node.child_text("groupId")
    artifact = node.child_text("artifactId")
    return group, artifact, (f"{group}:{artifact}" if group else artifact) or None


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
            group, artifact, name = _maven_name(node)
            attrs = {"groupId": group, "artifactId": artifact}
            for extra in ("version", "scope"):
                value = node.child_text(extra)
                if value:
                    attrs[extra] = value
            elements.append(_node_element(ElementKind.DEPENDENCY, node, name, attrs))
        elif node.tag == "plugin":
            _, artifact, name = _maven_name(node)
            elements.append(_node_element(ElementKind.PLUGIN, node, name, {"artifactId": artifact}))
        elif node.tag == "properties":
            for prop in node.children:
                value = prop.text.strip()
                attrs = {"value": value, "literal": _literal_flag(value)}
                elements.append(_node_element(ElementKind.PROPERTY, prop, prop.tag, attrs, tokenize(value)))

    # <parent> keeps its own rule, not _maven_name's: without a groupId it names ":artifact"
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
        for module in modules.children:
            name = module.text.strip()
            if module.tag == "module" and name:
                links.append(ModuleLink(LinkRelation.INCLUDES, name))

    for tag in _MAVEN_CONFIG_BLOCKS:
        node = root.find(tag)
        if node is not None:
            elements.append(_node_element(ElementKind.PROPERTY, node, tag, {"block": "true"}))

    return _model(BuildSystem.MAVEN, elements, links)


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
            elements.append(_node_element(ElementKind.TARGET, node, node.attrib.get("name"), attrs))
        elif node.tag == "property":
            value = node.attrib.get("value", node.attrib.get("location", ""))
            attrs = {k: v for k, v in node.attrib.items() if k != "name"}
            attrs["literal"] = _literal_flag(value)
            body = tokenize(value or node.attrib.get("file", ""))
            elements.append(_node_element(ElementKind.PROPERTY, node, node.attrib.get("name"), attrs, body))
        elif node.tag in ("taskdef", "typedef"):
            name = node.attrib.get("name") or node.attrib.get("resource")
            body = tokenize(" ".join(node.attrib.values()))
            elements.append(_node_element(ElementKind.PLUGIN, node, name, dict(node.attrib), body))
        elif node.tag == "macrodef":
            elements.append(_node_element(ElementKind.METHOD, node, node.attrib.get("name"), {}))
        elif node.tag == "import":
            target = node.attrib.get("file", "")
            if target:
                links.append(ModuleLink(LinkRelation.IMPORTS, target))

    for node in root.children:
        if node.tag not in _ANT_TOP_LEVEL:
            name = node.attrib.get("id") or node.attrib.get("name")
            elements.append(_node_element(ElementKind.RAW_BLOCK, node, name, {"tag": node.tag}))

    return _model(BuildSystem.ANT, elements, links)


# --- properties files ------------------------------------------------------

_RE_PROPERTY_LINE = re.compile(r"([^=:\s]+)\s*[=:]\s*(.*)$")


def parse_properties(content: str) -> BuildModel:
    """key=value lines of a .properties file as property elements."""
    elements = []
    for lineno, raw in enumerate(content.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("!"):
            continue
        m = _RE_PROPERTY_LINE.match(line)
        if not m:
            continue
        key, value = m.group(1), m.group(2).strip()
        elements.append(
            BuildElement(
                kind=ElementKind.PROPERTY,
                name=key,
                body_tokens=tokenize(value),
                attributes={"value": value, "literal": _literal_flag(value)},
                span=(lineno, lineno),
            )
        )
    return _model(BuildSystem.GRADLE, elements)


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
_RE_BLANK_LINES = re.compile(r"(?:[^\S\n]*\n)*(?:[^\S\n]*\Z)?")
_RE_BRACKET = re.compile(r"[][(){}\n]")


class _Block(NamedTuple):
    """A statement's outermost braces: the text before the ``{``, the text
    between them, its offsets into the script and its 1-based first line."""

    head: str
    body: str
    start: int
    end: int
    first_line: int


def _statements(
    text: str, masked: str, pos: int, end: int, line: int
) -> Iterator[tuple[str, tuple[int, int], Optional[_Block], bool]]:
    """Yield (text, span, block or None, balanced) for each statement of
    ``text[pos:end]``, whose first line is line ``line``. ``text`` and ``masked``
    are what `_scan_groovy` returns: comments blanked, and strings too.

    A line that is blank starts no statement. A statement ends at the first
    line end where no bracket of any kind is left open; one still open at
    ``end`` runs to it, unbalanced. Its block runs from its first ``{`` to the
    ``}`` that closes it, counting braces only, or to the statement's end.
    """
    while True:
        start = _RE_BLANK_LINES.match(text, pos, end).end()
        line += text.count("\n", pos, start)
        if start == end:
            return
        depth = braces = newlines = 0
        opened = closed = None
        stop = end
        for m in _RE_BRACKET.finditer(masked, start, end):
            bracket = m.group()
            if bracket == "\n":
                if depth <= 0:
                    stop = m.start()
                    break
                newlines += 1
            elif bracket in "([{":
                depth += 1
                if bracket == "{" and closed is None:
                    opened = opened or m.end()
                    braces += 1
            else:
                depth -= 1
                if bracket == "}" and braces:
                    braces -= 1
                    if not braces:
                        closed = m.start()
        block = None
        if opened is not None:
            head = text[start : opened - 1]
            closed = stop if closed is None else closed
            block = _Block(head, text[opened:closed], opened, closed, line + head.count("\n"))
        yield text[start:stop], (line, line + newlines), block, depth <= 0
        if stop == end:
            return
        pos = stop + 1
        line += newlines + 1


def _body_lines(block: Optional[_Block]) -> Iterator[tuple[str, tuple[int, int]]]:
    """Each line of a block's body with its one-line span; none without a block."""
    if block is not None:
        for lineno, line in enumerate(block.body.split("\n"), block.first_line):
            yield line, (lineno, lineno)


def _value_element(kind: ElementKind, m: re.Match, span: tuple[int, int]) -> BuildElement:
    """The element a ``name = value`` match declares: group 1 is its name and
    group 2 its value."""
    value = m.group(2).strip().rstrip(";")
    literal = bool(_RE_GRADLE_LITERAL.match(value))
    if literal and value[0] in "\"'":
        value = value[1:-1]
    return BuildElement(
        kind=kind,
        name=m.group(1),
        body_tokens=tokenize(m.group(2)),
        attributes={"value": value, "literal": "true" if literal else "false"},
        span=span,
    )


class _GradleParser:
    def __init__(self, content: str):
        self.text, self.masked = _scan_groovy(content)
        self.elements: list[BuildElement] = []
        self.links: list[ModuleLink] = []
        self.warnings: list[str] = []

    def parse(self) -> BuildModel:
        for text, span, block, balanced in _statements(self.text, self.masked, 0, len(self.text), 1):
            if balanced:
                self._dispatch(text.strip(), block, span)
            else:  # the last statement: it runs to the end of the script
                self.warnings.append(f"UnbalancedBraces(line {span[0]})")
                self._add_raw(text.strip(), span)
        return _model(BuildSystem.GRADLE, self.elements, self.links, self.warnings)

    # -- statement dispatch --

    def _dispatch(self, stmt: str, block: Optional[_Block], span: tuple[int, int]) -> None:
        """Add what one balanced statement, stripped, declares."""
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
            self._parse_plugins_block(block)
            return
        if _RE_DEPS_BLOCK.match(stmt):
            self._parse_dependencies_block(block)
            return
        if _RE_EXT_BLOCK.match(stmt):
            self._parse_ext_block(block)
            return
        m = _RE_TASK_REG.match(stmt)
        if m:
            self._add_task(m.group(1), stmt[m.end() :], block, span)
            return
        m = _RE_TASK.match(stmt)
        if m:
            self._add_task(m.group("q") or m.group("n"), m.group("rest"), block, span)
            return
        m = _RE_DEF_METHOD.match(stmt)
        if m and block is not None:
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
            self.elements.append(_value_element(ElementKind.VARIABLE, m, span))
            return
        m = _RE_EXT_PROP.match(stmt)
        if m:
            self.elements.append(_value_element(ElementKind.PROPERTY, m, span))
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
        if m and block is None:
            self.elements.append(_value_element(ElementKind.PROPERTY, m, span))
            return
        self._add_raw(stmt, span)

    # -- element builders --

    def _add_raw(self, stmt: str, span: tuple[int, int]) -> None:
        lead = _RE_LEADING_IDENT.match(stmt)
        self.elements.append(
            BuildElement(
                kind=ElementKind.RAW_BLOCK,
                name=lead.group(1) if lead else None,
                body_tokens=tokenize(stmt),
                attributes={},
                span=span,
            )
        )

    def _add_task(self, name: str, rest: str, block: Optional[_Block], span: tuple[int, int]) -> None:
        attrs: dict[str, str] = {}
        type_m = re.search(r"type\s*:\s*([\w.]+)", rest)
        if type_m:
            attrs["type"] = type_m.group(1)
        decl_m = re.search(r"dependsOn\s*:\s*([^,){]+)", rest)
        if decl_m:
            attrs["dependsOn"] = decl_m.group(1).strip()

        kept_lines = []
        for line in (block.body if block is not None else rest).split("\n"):
            om = _RE_ORDER_STMT.match(line.strip())
            if om:
                key = om.group(1)
                value = " ".join(tokenize(om.group(2)))
                attrs[key] = f"{attrs[key]},{value}" if key in attrs else value
                continue
            kept_lines.append(line)
        decl_args = block.head.split("task", 1)[-1] if block is not None else ""
        tokens = tokenize(decl_args + "\n" + "\n".join(kept_lines))
        self.elements.append(
            BuildElement(
                kind=ElementKind.TASK,
                name=name,
                body_tokens=tokens,
                attributes=attrs,
                span=span,
            )
        )

    def _parse_plugins_block(self, block: Optional[_Block]) -> None:
        for line, line_span in _body_lines(block):
            for m in _RE_ID_ENTRY.finditer(line):
                attrs = {"form": "dsl"}
                if m.group(2):
                    attrs["version"] = m.group(2)
                self.elements.append(
                    BuildElement(
                        kind=ElementKind.PLUGIN,
                        name=m.group(1),
                        body_tokens=(m.group(1),),
                        attributes=attrs,
                        span=line_span,
                    )
                )

    def _parse_ext_block(self, block: Optional[_Block]) -> None:
        for line, line_span in _body_lines(block):
            m = _RE_ASSIGN.match(line.strip())
            if m:
                self.elements.append(_value_element(ElementKind.PROPERTY, m, line_span))

    def _parse_dependencies_block(self, block: Optional[_Block]) -> None:
        if block is None:
            return
        for text, span, _, _ in _statements(self.text, self.masked, block.start, block.end, block.first_line):
            dep = self._dependency_from(text.strip(), span)
            if dep is not None:
                self.elements.append(dep)

    @staticmethod
    def _dependency_from(stmt: str, span: tuple[int, int]) -> Optional[BuildElement]:
        version = None
        if m := _RE_DEP_MAP.match(stmt):
            conf, group, artifact, version = m.groups()
            name = notation = f"{group}:{artifact}"
        elif m := _RE_DEP_PROJECT.match(stmt):
            conf, proj = m.groups()
            name, notation = f"project{proj}", f"project({proj})"
        elif m := _RE_DEP_STR.match(stmt):
            conf, notation = m.groups()
            parts = notation.split(":")
            name = ":".join(parts[:2])
            if len(parts) >= 3:
                version = parts[2]
        else:
            return None
        attrs = {"configuration": conf, "notation": notation}
        if version is not None:
            attrs["version"] = version
        return BuildElement(
            kind=ElementKind.DEPENDENCY,
            name=name,
            body_tokens=tokenize(stmt),
            attributes=attrs,
            span=span,
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
    """Dispatch on the file name and attach the source path to the model. A
    POM or Ant file that is not well-formed XML becomes one raw block over the
    whole file, with the parse error as the model's warning."""
    system = classify_build_file(path)
    base = path.rsplit("/", 1)[-1]
    try:
        if system is BuildSystem.MAVEN:
            model = parse_maven(content)
        elif system is BuildSystem.ANT:
            model = parse_ant(content)
        elif base.endswith(".properties"):
            model = parse_properties(content)
        else:
            model = parse_gradle(content)
    except XmlMalformedError as exc:
        logger.warning("%s: %s; treating file as one opaque block", path, exc)
        whole = BuildElement(
            kind=ElementKind.RAW_BLOCK,
            name=None,
            body_tokens=tokenize(content),
            attributes={},
            span=(1, content.count("\n") + 1),
        )
        model = _model(system, [whole], warnings=[str(exc)])
    return model._replace(source_path=path)


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

class HierarchyGraph(NamedTuple):
    children: Mapping[str, tuple[str, ...]]
    warnings: tuple[str, ...] = ()

    def is_ancestor(self, a: str, b: str) -> bool:
        """True when a reaches b through parent->child edges."""
        return _reaches(self.children, a, b)


def _reaches(children: Mapping[str, Sequence[str]], src: str, dst: str) -> bool:
    """True when a path of one or more edges of ``children`` leads from src to dst."""
    seen = set()
    frontier = [src]
    while frontier:
        cur = frontier.pop()
        for child in children.get(cur, ()):
            if child == dst:
                return True
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return False


def _resolve(base_dir: str, target: str, default_child: Optional[str]) -> list[str]:
    resolved = posixpath.normpath(posixpath.join(base_dir, target))
    candidates = [resolved]
    if default_child:
        candidates.append(posixpath.normpath(posixpath.join(resolved, default_child)))
    return candidates


def infer_hierarchy(models: Mapping[str, BuildModel]) -> HierarchyGraph:
    """Directed parent->child graph over one commit-side snapshot of models.

    Edges come from the links that POMs and Ant files declare: Maven modules
    and parents (a parent without a relativePath is the nearest pom.xml in a
    directory above), and Ant imports (the imported file acts as the parent).
    Cycles are broken by dropping the closing edge, with a warning.

    Gradle links add no edge: a settings include and a nested build script
    name a file in a deeper directory, which the detectors' directory rule
    already places below. So a Gradle file is placed by directory, except
    where a POM or Ant file links to it, and a settings include that leaves
    the settings directory (a project name Gradle rejects) places nothing.
    """
    paths = {posixpath.normpath(p): m for p, m in models.items()}
    edges: set[tuple[str, str]] = set()
    warnings: list[str] = []

    def pick(candidates: Sequence[str]) -> Optional[str]:
        return next((c for c in candidates if c in paths), None)

    for path in sorted(paths):
        model = paths[path]
        base_dir = posixpath.dirname(path)
        for link in model.module_links:
            if link.relation is LinkRelation.INCLUDES and model.build_system is BuildSystem.MAVEN:
                child = pick(_resolve(base_dir, link.target, "pom.xml"))
                if child and child != path:
                    edges.add((path, child))
            elif link.relation is LinkRelation.PARENT_OF:
                if "/" in link.target or link.target.endswith(".xml"):
                    parent = pick(_resolve(base_dir, link.target, "pom.xml"))
                else:
                    parent = _nearest_ancestor_file(path, paths)
                if parent and parent != path:
                    edges.add((parent, path))
            elif link.relation is LinkRelation.IMPORTS:
                imported = pick(_resolve(base_dir, link.target, None))
                if imported and imported != path:
                    edges.add((imported, path))

    children: dict[str, list[str]] = {p: [] for p in paths}
    for parent, child in sorted(edges):  # no edge joins a file to itself
        if _reaches(children, child, parent):
            warnings.append(f"dropping cycle-closing edge {parent} -> {child}")
            continue
        children[parent].append(child)

    return HierarchyGraph(
        children={p: tuple(sorted(cs)) for p, cs in children.items()},
        warnings=tuple(warnings),
    )


def _nearest_ancestor_file(path: str, paths: Mapping[str, BuildModel]) -> Optional[str]:
    """Closest pom.xml in a directory strictly above the file's own."""
    cur = posixpath.dirname(path)
    while cur:
        parent_dir = posixpath.dirname(cur)
        candidate = posixpath.join(parent_dir, "pom.xml")
        if candidate in paths:
            return candidate
        if parent_dir == cur:
            return None
        cur = parent_dir
    return None
