import hashlib
import itertools
import json
import logging
import random
import re
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildref.build_parsers import (
    BuildElement,
    BuildModel,
    ElementKind,
    LinkRelation,
    ModuleLink,
    XmlMalformedError,
    infer_hierarchy,
    model_to_json,
    parse_ant,
    parse_build_file,
    parse_gradle,
    parse_maven,
    parse_properties,
    tokenize,
    _parse_xml,
    _scan_groovy,
    _statements,
    _xml_body_tokens,
)
from buildref import build_parsers
from buildref import detectors
from buildref.detectors import CommitContext, detect_all
from buildref.mining import BuildSystem, classify_build_file
from conftest import make_context
import fixtures
from test_detectors import detection_corpus, file_set


def kinds(model, kind):
    return [e for e in model.elements if e.kind is kind]


# --- Maven -------------------------------------------------------------------

def test_empty_project_has_no_elements():
    assert parse_maven("<project/>").elements == ()


def test_single_dependency_name_excludes_version():
    pom = """<project>
      <dependencies>
        <dependency>
          <groupId>org.x</groupId><artifactId>lib</artifactId><version>1.0</version>
        </dependency>
      </dependencies>
    </project>"""
    model = parse_maven(pom)
    deps = kinds(model, ElementKind.DEPENDENCY)
    assert len(deps) == 1
    assert deps[0].name == "org.x:lib"
    assert deps[0].attributes["version"] == "1.0"


def test_parent_and_properties_fixture():
    # hand-built fixture; oracle is the XML itself: two <properties> children
    # and one <parent> declaration
    pom = """<project>
      <parent>
        <groupId>org.acme</groupId><artifactId>root</artifactId><version>7</version>
      </parent>
      <artifactId>child</artifactId>
      <properties>
        <spring.version>6.0.9</spring.version>
        <java.level>17</java.level>
      </properties>
    </project>"""
    model = parse_maven(pom)
    props = kinds(model, ElementKind.PROPERTY)
    assert len(props) == 2
    assert {p.name for p in props} == {"spring.version", "java.level"}
    assert [l for l in model.module_links if l.relation is LinkRelation.PARENT_OF] == [
        model.module_links[0]
    ]
    assert model.module_links[0].target == "org.acme:root"


def test_modules_become_includes_links():
    pom = "<project><modules><module>lib</module><module>app</module></modules></project>"
    targets = [l.target for l in parse_maven(pom).module_links if l.relation is LinkRelation.INCLUDES]
    assert targets == ["lib", "app"]


def test_plugin_extraction():
    pom = """<project><build><plugins>
      <plugin><groupId>org.apache.maven.plugins</groupId><artifactId>maven-shade-plugin</artifactId></plugin>
    </plugins></build></project>"""
    plugins = kinds(parse_maven(pom), ElementKind.PLUGIN)
    assert [p.name for p in plugins] == ["org.apache.maven.plugins:maven-shade-plugin"]


def test_malformed_xml_reports_line():
    with pytest.raises(XmlMalformedError) as err:
        parse_maven("<project>\n<dependencies>\n</project>")
    assert err.value.line >= 2


@pytest.mark.parametrize("parse", [parse_maven, parse_ant])
def test_a_lone_surrogate_is_malformed_xml_at_its_line(parse):
    with pytest.raises(XmlMalformedError) as err:  # expat cannot encode it to UTF-8
        parse("<project>\n<artifactId>a\ud800</artifactId>\n</project>\n")
    assert err.value.line == 2
    assert "'\\ud800' cannot be encoded" in err.value.reason


@pytest.mark.parametrize("path,system", [("app/pom.xml", BuildSystem.MAVEN), ("build.xml", BuildSystem.ANT)])
def test_parse_build_file_degrades_malformed_xml_to_one_raw_block(path, system, caplog):
    text = "<project>\n<dependencies>\n</project>\n"
    with pytest.raises(XmlMalformedError) as err:
        _parse_xml(text)
    with caplog.at_level(logging.WARNING, logger="buildref.build_parsers"):
        model = parse_build_file(path, text)
    assert model == BuildModel(
        build_system=system,
        elements=(BuildElement(ElementKind.RAW_BLOCK, None, tokenize(text), {}, (1, 4)),),
        module_links=(),
        source_path=path,
        warnings=(str(err.value),),
    )
    assert [r.getMessage() for r in caplog.records] == [f"{path}: {err.value}; treating file as one opaque block"]


# --- Ant -----------------------------------------------------------------------

def test_target_depends_parsed_as_ordered_list():
    model = parse_ant('<project><target name="init" depends=" clean, ,fetch "><mkdir dir="x"/></target></project>')
    target = kinds(model, ElementKind.TARGET)[0]
    assert target.name == "init"
    assert target.attributes["depends"] == "clean,fetch"


def test_target_without_depends():
    model = parse_ant('<project><target name="a"/></project>')
    assert "depends" not in kinds(model, ElementKind.TARGET)[0].attributes


def test_eleven_targets_share_equal_body_tokens():
    # fixture mirrors a build file where many start-style targets carry the
    # same inner payload; oracle = construction
    body = '<java jar="app.jar" fork="true"><arg value="start"/></java>'
    targets = "".join(
        f'<target name="start-{i}">{body}</target>' for i in range(11)
    )
    model = parse_ant(f"<project>{targets}</project>")
    tokens = [t.body_tokens for t in kinds(model, ElementKind.TARGET)]
    assert len(tokens) == 11
    assert all(t == tokens[0] for t in tokens)


def test_taskdef_and_import():
    model = parse_ant(
        '<project><taskdef resource="net/sf/antcontrib/antlib.xml"/>'
        '<import file="common.xml"/></project>'
    )
    assert kinds(model, ElementKind.PLUGIN)[0].name == "net/sf/antcontrib/antlib.xml"
    assert model.module_links[0].relation is LinkRelation.IMPORTS
    assert model.module_links[0].target == "common.xml"


def test_macrodef_becomes_method():
    model = parse_ant('<project><macrodef name="sum"><sequential/></macrodef></project>')
    assert kinds(model, ElementKind.METHOD)[0].name == "sum"


# --- Gradle ----------------------------------------------------------------------

def test_plugins_dsl_entries():
    model = parse_gradle("plugins {\n    id 'jacoco'\n    id 'groovy'\n}\n")
    plugins = kinds(model, ElementKind.PLUGIN)
    assert [(p.name, p.attributes["form"]) for p in plugins] == [
        ("jacoco", "dsl"),
        ("groovy", "dsl"),
    ]


def test_legacy_apply_plugin():
    model = parse_gradle("apply plugin: 'jacoco'\n")
    plugin = kinds(model, ElementKind.PLUGIN)[0]
    assert plugin.name == "jacoco"
    assert plugin.attributes["form"] == "legacy"


def test_task_declaration_forms():
    content = """task resolveDependencies {
    doFirst { println 'x' }
}
task('Connect', type: JavaExec) {
    main = 'Connect'
}
task "interp" (type: Zip) {
    from 'dist'
}
tasks.register("lint") {
    doLast { println 'lint' }
}
"""
    tasks = kinds(parse_gradle(content), ElementKind.TASK)
    assert [t.name for t in tasks] == ["resolveDependencies", "Connect", "interp", "lint"]
    assert tasks[1].attributes["type"] == "JavaExec"


def test_dependency_notations():
    content = """dependencies {
    implementation 'org.apache.commons:commons-lang3:3.12.0'
    testImplementation("junit:junit:4.12")
    api group: 'com.google.guava', name: 'guava', version: '31.0-jre'
    implementation project(':core')
}
"""
    deps = kinds(parse_gradle(content), ElementKind.DEPENDENCY)
    assert [d.name for d in deps] == [
        "org.apache.commons:commons-lang3",
        "junit:junit",
        "com.google.guava:guava",
        "project:core",
    ]
    assert deps[0].attributes["version"] == "3.12.0"
    assert deps[0].attributes["configuration"] == "implementation"


def test_def_variable_and_ext_property():
    model = parse_gradle("def mcVersion = '1.7.10'\next.configFile = file \"build.properties\"\n")
    variables = kinds(model, ElementKind.VARIABLE)
    props = kinds(model, ElementKind.PROPERTY)
    assert variables[0].name == "mcVersion"
    assert variables[0].attributes == {"value": "1.7.10", "literal": "true"}
    assert props[0].name == "configFile"
    assert props[0].attributes["literal"] == "false"


def test_def_method():
    model = parse_gradle("def gitRevision() {\n    return 'abc'\n}\n")
    methods = kinds(model, ElementKind.METHOD)
    assert methods[0].name == "gitRevision"


def test_apply_from_link_and_ordering_statement():
    model = parse_gradle("apply from: 'publish.gradle'\npublish.dependsOn(resolveDependencies)\n")
    assert model.module_links[0].relation is LinkRelation.APPLIES_FROM
    assert model.module_links[0].target == "publish.gradle"
    raw = kinds(model, ElementKind.RAW_BLOCK)[0]
    assert raw.is_ordering_only
    assert raw.attributes["dependsOn"] == "resolveDependencies"


def test_task_ordering_attrs_leave_body_tokens():
    with_order = "task jar {\n    mustRunAfter incrementBuild\n    from 'dist'\n}\n"
    without = "task jar {\n    from 'dist'\n}\n"
    t1 = kinds(parse_gradle(with_order), ElementKind.TASK)[0]
    t2 = kinds(parse_gradle(without), ElementKind.TASK)[0]
    assert t1.body_tokens == t2.body_tokens
    assert t1.attributes["mustRunAfter"] == "incrementBuild"


def test_settings_include_links():
    model = parse_gradle("rootProject.name = 'demo'\ninclude ':core', ':web'\ninclude ':'\n")
    targets = [l.target for l in model.module_links if l.relation is LinkRelation.INCLUDES]
    assert targets == ["core", "web"]


def test_unbalanced_braces_degrade_to_raw_block():
    model = parse_gradle("task broken {\n    doLast {\n        println 'x'\n")
    assert any("UnbalancedBraces" in w for w in model.warnings)
    assert model.elements[-1].kind is ElementKind.RAW_BLOCK


def test_kotlin_dsl_forms():
    content = 'plugins {\n    id("org.jetbrains.kotlin.jvm") version "1.9.0"\n}\n' \
              'dependencies {\n    implementation("io.grpc:grpc-core:1.54.0")\n}\n'
    model = parse_gradle(content)
    assert kinds(model, ElementKind.PLUGIN)[0].name == "org.jetbrains.kotlin.jvm"
    assert kinds(model, ElementKind.DEPENDENCY)[0].name == "io.grpc:grpc-core"


def test_gradle_properties_file():
    model = parse_properties("# cache\n#x=1\n!y=2\nflag\norg.gradle.jvmargs=-Xmx2g\nversion: 1.2\n")
    props = kinds(model, ElementKind.PROPERTY)
    assert [(p.name, p.attributes["value"]) for p in props] == [
        ("org.gradle.jvmargs", "-Xmx2g"),
        ("version", "1.2"),
    ]


# --- shared parser properties -------------------------------------------------

GRADLE_SAMPLE = """plugins { id 'java' }
def level = '17'
task pack(type: Zip) {
    from 'dist'
    dependsOn build
}
dependencies {
    implementation 'a:b:1'
}
"""


def test_parse_is_idempotent():
    first = parse_gradle(GRADLE_SAMPLE)
    second = parse_gradle(GRADLE_SAMPLE)
    assert first == second


def test_span_soundness():
    for content, parser in [
        (GRADLE_SAMPLE, parse_gradle),
        ('<project><target name="a"><echo/></target></project>', parse_ant),
        ("<project><properties><x>1</x></properties></project>", parse_maven),
    ]:
        model = parser(content)
        line_count = content.count("\n") + 1
        for el in model.elements:
            assert 1 <= el.span[0] <= el.span[1] <= line_count


def test_comments_and_whitespace_do_not_change_body_tokens():
    noisy = """plugins { id 'java' }   // build plugins
/* variables */
def level =     '17'
task pack(type: Zip) {
    // contents
    from 'dist'

    dependsOn build
}
dependencies {
    implementation 'a:b:1'   /* pinned */
}
"""
    clean_model = parse_gradle(GRADLE_SAMPLE)
    noisy_model = parse_gradle(noisy)
    clean_tokens = {(e.kind, e.name): e.body_tokens for e in clean_model.elements}
    noisy_tokens = {(e.kind, e.name): e.body_tokens for e in noisy_model.elements}
    assert clean_tokens == noisy_tokens


def test_xml_comments_stripped():
    a = parse_ant('<project><target name="t"><echo message="x"/></target></project>')
    b = parse_ant('<project><target name="t"><!-- note --><echo message="x"/></target></project>')
    assert a.elements[0].body_tokens == b.elements[0].body_tokens


def test_tokenize_normalizes_quotes_and_whitespace():
    assert tokenize("id 'jacoco'") == tokenize('id   "jacoco"')


def test_equal_tokens_share_one_string():
    # so the many <groupId> tokens of one model cost one string between them
    first, second = tokenize("<" + "groupId>"), tokenize("x " + "groupId")
    assert first[1] == second[1] and first[1] is second[1]


def test_tokenize_memo_holds_one_commits_texts():
    from buildref import build_parsers

    kept = "<dependency><groupId>org.kept</groupId><artifactId>kept-lib</artifactId></dependency>"
    added = "<dependency><groupId>org.new</groupId><artifactId>new-lib</artifactId></dependency>"
    pom = "<project>\n<dependencies>\n%s\n</dependencies>\n</project>\n"
    ctx = make_context({"pom.xml": pom % kept}, {"pom.xml": pom % (kept + "\n" + added)})
    (before,) = [el for el in ctx.before_models["pom.xml"].elements if el.name and "kept-lib" in el.name]
    (after,) = [el for el in ctx.after_models["pom.xml"].elements if el.name and "kept-lib" in el.name]
    # the element present unchanged on both sides is tokenized once
    assert before.body_tokens is after.body_tokens
    assert any("kept-lib" in text for text in build_parsers._TOKENS)
    other = "<dependency><groupId>org.other</groupId><artifactId>other-lib</artifactId></dependency>"
    make_context({"pom.xml": pom % other}, {"pom.xml": pom % ""})
    texts = list(build_parsers._TOKENS)
    assert any("other-lib" in text for text in texts)
    assert not any("kept-lib" in text or "new-lib" in text for text in texts)


# the tokenizer before string bodies became regex groups: quotes stripped per token
_ORACLE_TOKEN_RE = re.compile(
    r"\"(?:[^\"\\\n]|\\.)*\""
    r"|'(?:[^'\\\n]|\\.)*'"
    r"|[A-Za-z_$][\w$]*"
    r"|\d[\w.+-]*"
    r"|[^\s]"
)


def _oracle_tokenize(text):
    out = []
    for m in _ORACLE_TOKEN_RE.finditer(text):
        tok = m.group(0)
        if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "\"'":
            tok = tok[1:-1]
        out.append(tok)
    return tuple(out)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="ab1_$ \n\t\"'\\.-+<>={}\u00e9\u2028\0", max_size=40))
def test_tokenize_matches_the_per_token_quote_stripping_oracle(text):
    assert tokenize(text) == _oracle_tokenize(text)


# the script scanner before it became one regex pass: two character lists
def _oracle_scan_groovy(text):
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


_SCRIPT_PIECES = st.sampled_from(["a", " ", "\n", "'", '"', "\\", "/", "*", "'''", '"""', "//", "/*", "*/", "{", "}", "\u2028"])


@settings(max_examples=3000, deadline=None)
@given(
    st.lists(_SCRIPT_PIECES, max_size=24).map("".join),
    st.sampled_from(["", "\\", "'''", '"""', "'", '"', "/*", "//", "*"]),
)
def test_scan_groovy_matches_the_character_loop_oracle(body, ending):
    text = body + ending
    assert _scan_groovy(text) == _oracle_scan_groovy(text)


@pytest.mark.parametrize("text", [
    "x = '''open\\", 'x = """open', "x = '''a''' + \"b\\", "/*/ a", "a // b\n'c\\\nd'", "'''\\'''",
])
def test_scan_groovy_on_open_literals_and_a_final_backslash(text):
    assert _scan_groovy(text) == _oracle_scan_groovy(text)


# the statement split before it became one walk over offsets into the scanned
# script: brackets counted line by line over the masked lines, then braces
# matched again over each statement's joined text
def _oracle_bracket_net(masked_line):
    count = masked_line.count
    return count("(") + count("{") + count("["), count(")") + count("}") + count("]")


def _oracle_extents(lines, masked):
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
            opens, closes = _oracle_bracket_net(masked[j])
            depth += opens - closes
            if depth <= 0:
                break
            j += 1
        if j >= n:
            j = n - 1
            balanced = False
        yield i, j, balanced
        i = j + 1


def _oracle_block(text, masked, first_line):
    start = masked.find("{")
    if start == -1:
        return None
    depth = 0
    end = len(masked)
    for brace in re.compile(r"[{}]").finditer(masked, start):
        depth += 1 if brace.group() == "{" else -1
        if depth == 0:
            end = brace.start()
            break
    head = text[:start]
    return head, text[start + 1 : end], masked[start + 1 : end], first_line + head.count("\n")


def _oracle_statements(text, masked, first_line):
    """(text, span, block, balanced) of each statement, split as the line-list
    walk split them; a block is (head, body, masked body, body's first line)."""
    lines, masked_lines = text.split("\n"), masked.split("\n")
    out = []
    for start, end, balanced in _oracle_extents(lines, masked_lines):
        stmt = "\n".join(lines[start : end + 1])
        span = (first_line + start, first_line + end)
        out.append((stmt, span, _oracle_block(stmt, "\n".join(masked_lines[start : end + 1]), span[0]), balanced))
    return out


def _walked(text, masked, pos, end, line):
    """The walk's statements in the oracle's shape, less the masked body."""
    out = []
    for stmt, span, block, balanced in _statements(text, masked, pos, end, line):
        if block is not None:
            assert block.body == text[block.start : block.end]
            block = (block.head, block.body, block.first_line)
        out.append((stmt, span, block, balanced))
    return out


def _unmasked(statements):
    return [(stmt, span, block and block[:2] + block[3:], balanced) for stmt, span, block, balanced in statements]


_BRACKET_PIECES = st.sampled_from(
    ["a", " ", "{", "}", "(", ")", "[", "]", "'", '"', "'''", '"""', "//", "/*", "*/", "\n", "\r\n"]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_BRACKET_PIECES, max_size=30).map("".join))
def test_statement_walk_matches_the_line_list_oracle(script):
    text, masked = _scan_groovy(script)
    assert _walked(text, masked, 0, len(text), 1) == _unmasked(_oracle_statements(text, masked, 1))


@settings(max_examples=1000, deadline=None)
@given(st.lists(_BRACKET_PIECES, max_size=30).map("".join))
def test_statement_walk_inside_a_dependencies_body_matches_the_oracle(body):
    text, masked = _scan_groovy("x\ndependencies {" + body)
    _, _, block, _ = list(_statements(text, masked, 0, len(text), 1))[1]
    _, _, (_, oracle_body, oracle_masked, oracle_line), _ = _oracle_statements(text, masked, 1)[1]
    expected = _unmasked(_oracle_statements(oracle_body, oracle_masked, oracle_line))
    assert _walked(text, masked, block.start, block.end, block.first_line) == expected


@pytest.mark.parametrize("script", [
    "", "\n \n", "a\n\n  \nb", "'s'\n", "// c\n/* d */\n  x", "a (\n) b\n", "a {\n  b\n} c {\n}", "a } {\nb",
    "a {", "x {\n  y {\n", "a (\n{ }\n", "a ]\nb [\n", "x = '''\n\n  ''' {\n}", "a\r\n{\r\n}\r\n", "a  \n",
])
def test_statement_walk_on_edge_scripts(script):
    text, masked = _scan_groovy(script)
    assert _walked(text, masked, 0, len(text), 1) == _unmasked(_oracle_statements(text, masked, 1))


def test_xml_text_joins_character_data_around_children_and_entities():
    model = parse_maven(
        "<project><properties><p>a&amp;b<!-- note -->c<x/>d</p></properties>"
        "<scm><url>u</url>tail</scm></project>"
    )
    prop = next(e for e in model.elements if e.name == "p")
    assert prop.attributes["value"] == "a&bcd"
    scm = next(e for e in model.elements if e.name == "scm")
    assert scm.body_tokens == tokenize("tail<url>u</url>")


# --- a golden corpus of drawn Gradle scripts ------------------------------------

GOLDEN_GRADLE = Path(__file__).parent / "golden_gradle_models.jsonl"

# Statement templates: N is drawn from _NAMES, V from _VALUES, Q from _QUOTED and
# D from _DEPS. Any statement may open a block; those of _INNER mostly hold their
# own kind of statement.
_STATEMENTS = (
    "task N", "task N(type: Copy)", "task(N, dependsOn: 'b')", "task 'N', type: Zip, dependsOn: a",
    "tasks.register('N')", 'tasks.register<Copy>("N")', "tasks.create('N', Zip)",
    "dependencies", "plugins", "ext", "project.ext", "def N = V", "private def N()", "def N(a, b)",
    "ext.N = V", "project.ext.N = V", "N = V", "N.b = V", "apply plugin: Q", "apply from: Q",
    "apply(from = Q)", "include Q, Q", "N.dependsOn N", "N.mustRunAfter(Q)", "N.finalizedBy N, Q",
    "dependsOn N", "mustRunAfter(Q)", "finalizedBy: N", "implementation D", "compile(D)",
    "testImplementation D", "id Q", "id(Q) version Q", "N", "N V", "N(V)",
    "task(N,\n    type: Copy)", "tasks.register('N',\n    Zip)", "def N(a,\n    b)",
)
_INNER = {
    "dependencies": ("implementation D", "compile(D)", "testImplementation D", "api D // c", "compile(\n    D)"),
    "plugins": ("id Q", "id(Q) version Q", "id Q; id Q"),
    "ext": ("N = V", "N.b = V"),
    "project.ext": ("N = V",),
}
_NAMES = ("a", "b1", "foo", "x_y", "$v")
_VALUES = ("1.0", "true", "'p'", '"q"', "$v", '"${v}"', "a + 1", "[1, 2]", "'''m'''", '"""t"""',
           "'a\\'b'", "/* c */ 2", "3 // c", "'s';")
_QUOTED = ("'p'", '"q"', "':sub'", "'a:b'", "'java'", '"org.k"', "'x.gradle'")
_DEPS = ("'g:a:1.0'", '"org:lib"', "'g:a:'", "'solo'", "project(':core')", "group: 'g', name: 'n'",
         "group: 'g', name: 'n', version: '2'")
# dropped into a statement at a random place: what the scanner and the brace
# matcher must survive
_NOISE = ("{", "}", "(", ")", "[", "]", "'", '"', "'''", '"""', "\\", "/*", "*/", "//", "==", "\n", "\r\n")
_FILL = {"N": _NAMES, "V": _VALUES, "Q": _QUOTED, "D": _DEPS}


def _gradle_statement(rng, depth, templates=_STATEMENTS):
    template = rng.choice(templates)
    text = "".join(rng.choice(_FILL[c]) if c in _FILL else c for c in template)
    if depth < 3 and rng.random() < (0.9 if template in _INNER else 0.3):
        end = rng.choice(("\n", "\r\n"))
        inner_templates = _INNER.get(template, _STATEMENTS) if rng.random() < 0.8 else _STATEMENTS
        inner = [_gradle_statement(rng, depth + 1, inner_templates) for _ in range(rng.randrange(5))]
        text += " {" + end + "".join("    " * (depth + 1) + s + end for s in inner) + "    " * depth + "}"
    if rng.random() < 0.15:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_NOISE) + text[at:]
    return text


def gradle_corpus(count=300, seed=9):
    """``count`` Gradle scripts drawn with a fixed seed, so every run parses the same texts."""
    rng = random.Random(seed)
    return [
        "".join(_gradle_statement(rng, 0) + rng.choice(("\n", "\n", "\r\n")) for _ in range(rng.randrange(10)))
        for _ in range(count)
    ]


def _model_dump(path, text):
    model = parse_build_file(path, text)
    return json.dumps([model_to_json(model), [e.body_tokens for e in model.elements]], ensure_ascii=False)


def _golden_digests(path):
    return [json.loads(line)["sha256"] for line in path.read_text(encoding="utf-8").splitlines()]


def test_gradle_corpus_models_match_golden_digests():
    """Each drawn script's model and body tokens hash as they did when the
    golden file was written; ``python tests/test_build_parsers.py`` rewrites it."""
    golden = _golden_digests(GOLDEN_GRADLE)
    scripts = gradle_corpus()
    assert len(golden) == len(scripts)
    for number, (script, digest) in enumerate(zip(scripts, golden)):
        dump = _model_dump("build.gradle", script)
        assert hashlib.sha256(dump.encode()).hexdigest() == digest, f"script {number}:\n{script}\nmodel now:\n{dump}"


# --- a golden corpus of drawn POMs and Ant scripts -------------------------------

GOLDEN_XML = Path(__file__).parent / "golden_xml_models.jsonl"

# Character data and attribute values, escaped as they appear in the file: quotes,
# entities, CDATA and comments must reach the model as the parser reads them.
_XML_TEXTS = ("1.0", "${v}", "$w", "a b", "it's", 'say "hi"', "a &amp; b", "&lt;x&gt;", "&#65;&#x42;",
              "<![CDATA[<raw> & 'q']]>", "x<!-- c -->y", "<!-- only -->", "", "  pad  ", "line\n  two")
_XML_ATTRS = ("a", "b c", "${v}", "it's", "&quot;q&quot;", "x &amp; y", "&lt;", "p/q.xml", " a , b,,c ", "")
_XML_NAMES = ("a", "b1", "core", "x.y", "lib-2")


def _xml_attrs(rng, keys):
    """Each of ``keys`` present or not, with a drawn value and drawn quotes."""
    parts = []
    for key in keys:
        if rng.random() < 0.6:
            value = rng.choice(_XML_NAMES if key in ("name", "id") and rng.random() < 0.7 else _XML_ATTRS)
            quote = "'" if "'" not in value and rng.random() < 0.3 else '"'
            parts.append(f" {key}={quote}{value}{quote}")
    return "".join(parts)


def _xml_leaves(rng, tags, chance=0.6):
    """Some of ``tags`` as leaf elements with drawn text, in drawn order and layout."""
    chosen = [t for t in tags if rng.random() < chance]
    rng.shuffle(chosen)
    sep = rng.choice(("", "\n", "\n    "))
    return sep.join(f"<{t}>{rng.choice(_XML_NAMES) if rng.random() < 0.6 else rng.choice(_XML_TEXTS)}</{t}>" for t in chosen)


def _pom_dependency(rng, depth=0):
    inner = _xml_leaves(rng, ("groupId", "artifactId", "version", "scope", "type"), 0.7)
    if depth < 1 and rng.random() < 0.2:
        inner += "<exclusions><exclusion>" + _xml_leaves(rng, ("groupId", "artifactId")) + "</exclusion></exclusions>"
    if rng.random() < 0.2:
        inner += rng.choice(_XML_TEXTS)
    return f"<dependency{_xml_attrs(rng, ('id',)) if rng.random() < 0.1 else ''}>{inner}</dependency>"


def _pom_dependencies(rng, depth=0):
    dependencies = "\n".join(_pom_dependency(rng, depth) for _ in range(rng.randrange(4)))
    return f"<dependencies>\n{dependencies}\n</dependencies>"


def _pom_plugin(rng):
    inner = _xml_leaves(rng, ("groupId", "artifactId", "version"), 0.7)
    if rng.random() < 0.4:
        inner += "\n" + _pom_dependencies(rng, 1)
    if rng.random() < 0.4:
        inner += f"<configuration><source>{rng.choice(_XML_TEXTS)}</source>{rng.choice(_XML_TEXTS)}</configuration>"
    return f"<plugin>{inner}</plugin>"


def _pom_piece(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return "<parent>" + _xml_leaves(rng, ("groupId", "artifactId", "version", "relativePath"), 0.5) + "</parent>"
    if kind == 1:
        modules = "".join(
            f"<module>{rng.choice(_XML_NAMES + ('', ' sub/x ', '../up'))}</module>" for _ in range(rng.randrange(4))
        )
        return f"<modules>{modules}{rng.choice(_XML_TEXTS) if rng.random() < 0.2 else ''}</modules>"
    if kind == 2:
        props = "\n  ".join(
            f"<{name}{_xml_attrs(rng, ('combine',)) if rng.random() < 0.1 else ''}>{rng.choice(_XML_TEXTS)}</{name}>"
            for name in (rng.choice(_XML_NAMES) for _ in range(rng.randrange(5)))
        )
        return f"<properties>\n  {props}\n</properties>"
    if kind == 3:
        return _pom_dependencies(rng)
    if kind == 4:
        return "<dependencyManagement>" + _pom_dependencies(rng) + "</dependencyManagement>"
    if kind == 5:
        plugins = "\n".join(_pom_plugin(rng) for _ in range(rng.randrange(4)))
        wrapped = f"<plugins>\n{plugins}\n</plugins>"
        if rng.random() < 0.3:
            wrapped = f"<pluginManagement>{wrapped}</pluginManagement>"
        return f"<build>{_xml_leaves(rng, ('finalName',))}{wrapped}</build>"
    if kind == 6:
        tag = rng.choice(("scm", "url", "licenses", "developers", "organization", "distributionManagement",
                          "repositories", "pluginRepositories", "issueManagement", "ciManagement", "reporting"))
        inner = _xml_leaves(rng, ("url", "name", "id", "connection"), 0.5)
        if rng.random() < 0.3:
            inner = f"<repository{_xml_attrs(rng, ('id', 'layout'))}>{inner}</repository>{rng.choice(_XML_TEXTS)}"
        return f"<{tag}{_xml_attrs(rng, ('id',)) if rng.random() < 0.2 else ''}>{inner}</{tag}>"
    if kind == 7:
        return _xml_leaves(rng, ("modelVersion", "groupId", "artifactId", "version", "packaging", "name"))
    tag = rng.choice(("profiles", "extra", "description"))  # not read, but dependencies inside are
    return f"<{tag}>{rng.choice(_XML_TEXTS)}{_pom_dependency(rng) if rng.random() < 0.5 else ''}</{tag}>"


def _ant_inner(rng, depth=0):
    """The body of a target or macrodef: tasks, nested properties and text."""
    pieces = []
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(5)
        if kind == 0:
            pieces.append(f"<echo{_xml_attrs(rng, ('message', 'level'))}>{rng.choice(_XML_TEXTS)}</echo>")
        elif kind == 1:
            pieces.append(f"<javac{_xml_attrs(rng, ('srcdir', 'destdir', 'debug'))}/>")
        elif kind == 2:
            pieces.append(f"<property{_xml_attrs(rng, ('name', 'value', 'location'))}/>")
        elif kind == 3 and depth < 2:
            pieces.append(f"<sequential>{_ant_inner(rng, depth + 1)}</sequential>")
        else:
            pieces.append(rng.choice(_XML_TEXTS))
    return rng.choice(("", "\n  ")).join(pieces)


def _ant_piece(rng):
    kind = rng.randrange(8)
    if kind == 0:
        attrs = _xml_attrs(rng, ("name", "depends", "if", "unless", "description"))
        return f"<target{attrs}>{_ant_inner(rng)}</target>" if rng.random() < 0.8 else f"<target{attrs}/>"
    if kind == 1:
        return f"<property{_xml_attrs(rng, ('name', 'value', 'location', 'file', 'environment'))}/>"
    if kind == 2:
        return f"<{rng.choice(('taskdef', 'typedef'))}{_xml_attrs(rng, ('name', 'classname', 'resource', 'classpath'))}/>"
    if kind == 3:
        attribute = f"<attribute{_xml_attrs(rng, ('name', 'default'))}/>"
        return f"<macrodef{_xml_attrs(rng, ('name',))}>{attribute}<sequential>{_ant_inner(rng)}</sequential></macrodef>"
    if kind == 4:
        return f"<import{_xml_attrs(rng, ('file', 'optional'))}/>"
    tag = rng.choice(("path", "fileset", "echo", "condition", "mkdir"))
    return f"<{tag}{_xml_attrs(rng, ('id', 'name', 'dir'))}>{_ant_inner(rng)}</{tag}>"


def xml_corpus(count=300, seed=10):
    """``count`` (path, text) POMs and Ant scripts drawn with a fixed seed."""
    rng = random.Random(seed)
    files = []
    for _ in range(count):
        pom = rng.random() < 0.5
        draw = _pom_piece if pom else _ant_piece
        pieces = [draw(rng) for _ in range(rng.randrange(8))]
        if rng.random() < 0.3:
            pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(("<!-- note -->", rng.choice(_XML_TEXTS))))
        sep = rng.choice(("\n", "\n  ", "", "\r\n"))
        root = f"<project{_xml_attrs(rng, ('xmlns',) if pom else ('name', 'default', 'basedir'))}>"
        head = '<?xml version="1.0" encoding="UTF-8"?>\n' if rng.random() < 0.3 else ""
        files.append(("pom.xml" if pom else "build.xml", head + root + sep + sep.join(pieces) + sep + "</project>\n"))
    return files


def test_xml_corpus_models_match_golden_digests():
    """Each drawn POM's or Ant script's model and body tokens hash as they did
    when the golden file was written; ``python tests/test_build_parsers.py``
    rewrites it."""
    golden = _golden_digests(GOLDEN_XML)
    files = xml_corpus()
    assert len(golden) == len(files)
    for number, ((path, text), digest) in enumerate(zip(files, golden)):
        dump = _model_dump(path, text)
        assert hashlib.sha256(dump.encode()).hexdigest() == digest, f"{path} {number}:\n{text}\nmodel now:\n{dump}"


def test_model_to_json_shape():
    payload = model_to_json(parse_build_file("build.gradle", GRADLE_SAMPLE))
    assert payload["build_system"] == "Gradle"
    assert all({"kind", "name", "attributes", "span"} <= set(e) for e in payload["elements"])


# --- one-pass XML body tokens and the per-commit token memo --------------------

def _serialized_inner_tokens(node):
    """The body tokens as the parsers built them before they tokenized piece
    by piece: the node's inner XML serialized whole, then tokenized."""
    parts = [node.text]
    stack = list(reversed(node.children))
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(f"<{item.tag}")
        parts.extend(f' {k}="{v}"' for k, v in item.attrib.items())
        parts += ">", item.text
        stack.append(f"</{item.tag}>")
        stack.extend(reversed(item.children))
    return tokenize("".join(parts))


def _assert_one_pass_tokens_match(text):
    try:
        root = _parse_xml(text)
    except XmlMalformedError:
        return
    nodes = [root]
    while nodes:
        node = nodes.pop()
        assert _xml_body_tokens(node) == _serialized_inner_tokens(node), (node.tag, text)
        nodes += node.children


def _fixture_texts():
    for _, before, after, _ in fixtures.PIPELINE_CASES:
        yield from before.items()
        yield from after.items()


def test_xml_body_tokens_equal_the_serialized_inner_xml_on_fixtures_and_corpus():
    for path, text in [*xml_corpus(), *_fixture_texts()]:
        if path.endswith(".xml"):
            _assert_one_pass_tokens_match(text)
    # the quote after y opens a literal that the quote before z closes
    _assert_one_pass_tokens_match('<project><x><a k="x&#10;y"/><b v="z"/></x></project>')


# texts and attribute values with what can make a string literal span pieces
_XML_TEXT = st.lists(st.sampled_from(["a", "1.0", " ", "\n", "'", '"', "\\", "&quot;", "&#10;", "&lt;b&gt;", "${v}"]), max_size=5)
_XML_TAGS = st.sampled_from(["a", "dependency", "groupId", "c-d", "x.y"])


@st.composite
def _xml_element(draw, depth=0):
    tag = draw(_XML_TAGS)
    names = draw(st.lists(st.sampled_from(["k", "name", "v"]), max_size=2, unique=True))
    attrs = "".join(f' {n}="{"".join(draw(_XML_TEXT)).replace(chr(34), "&quot;")}"' for n in names)
    children = draw(st.lists(_xml_element(depth + 1), max_size=3)) if depth < 2 else []
    texts = [draw(_XML_TEXT) for _ in range(len(children) + 1)]
    inner = "".join("".join(t) + c for t, c in zip(texts, children + [""]))
    return f"<{tag}{attrs}>{inner}</{tag}>"


@settings(max_examples=150, deadline=None)
@given(_xml_element())
def test_xml_body_tokens_equal_the_serialized_inner_xml_with_quotes_and_backslashes(element):
    _assert_one_pass_tokens_match(f"<project>{element}</project>")


def _assert_parsed_as_if_alone(ctx: CommitContext):
    """Every model of the commit, each parsed after the commit's versions
    before it, equals a parse with empty memos; and no element object is in
    two models, since the detectors tell elements apart by identity."""
    for fd in ctx.commit.file_diffs:
        for models, path, text in ((ctx.before_models, fd.old_path or fd.path, fd.before_content),
                                   (ctx.after_models, fd.path, fd.after_content)):
            if text is not None:
                build_parsers.forget_tokens()
                assert models[path] == parse_build_file(path, text), (path, text)
    ids = [id(el) for models in (ctx.before_models, ctx.after_models) for m in models.values() for el in m.elements]
    assert len(ids) == len(set(ids))


def _edited(rng, text):
    """``text`` with one line added, removed, repeated or changed, so that
    what follows it moves."""
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    edit = rng.randrange(4)
    if edit == 0:
        lines.insert(at, rng.choice(("", "  ", "<!-- moved -->", "// moved", "# moved", "x = 1")))
    elif edit == 1 and len(lines) > 1:
        del lines[at]
    elif edit == 2:
        lines.insert(at, lines[at])
    else:
        lines[0] = rng.choice(("", "// rev 2", "<!-- rev 2 -->", "# rev 2"))
    return "\n".join(lines)


def test_each_version_parses_as_if_alone_on_fixtures_and_corpora():
    for _, before, after, _ in fixtures.PIPELINE_CASES:
        _assert_parsed_as_if_alone(make_context(before, after))
    for commit in detection_corpus():
        _assert_parsed_as_if_alone(CommitContext.from_commit(commit))
    rng = random.Random(11)
    for path, text in [*[("build.gradle", script) for script in gradle_corpus()], *xml_corpus()]:
        for _ in range(2):
            _assert_parsed_as_if_alone(make_context({path: text}, {path: _edited(rng, text)}))


@settings(max_examples=100, deadline=None)
@given(file_set(), file_set())
def test_each_version_parses_as_if_alone_on_drawn_file_sets(before, after):
    _assert_parsed_as_if_alone(make_context(before, after))


# --- hierarchy -----------------------------------------------------------------

def test_maven_modules_edge():
    models = {
        "pom.xml": parse_build_file(
            "pom.xml", "<project><modules><module>lib</module></modules></project>"
        ),
        "lib/pom.xml": parse_build_file("lib/pom.xml", "<project><artifactId>lib</artifactId></project>"),
    }
    graph = infer_hierarchy(models)
    assert graph.children["pom.xml"] == ("lib/pom.xml",)
    assert graph.is_ancestor("pom.xml", "lib/pom.xml")
    assert not graph.is_ancestor("lib/pom.xml", "pom.xml")


def test_same_directory_files_are_not_nested():
    models = {
        "build.gradle": parse_build_file("build.gradle", "apply plugin: 'java'\n"),
        "publish.gradle": parse_build_file("publish.gradle", "publishing { }\n"),
    }
    graph = infer_hierarchy(models)
    assert graph.children["build.gradle"] == ()
    assert graph.children["publish.gradle"] == ()


def test_ant_import_makes_imported_file_parent():
    models = {
        "build.xml": parse_build_file("build.xml", '<project><import file="common.xml"/></project>'),
        "common.xml": parse_build_file("common.xml", "<project/>"),
    }
    # common.xml is not a recognized Ant basename on its own, so parse it as Ant by hand
    models["common.xml"] = parse_ant("<project/>")
    graph = infer_hierarchy(models)
    assert "build.xml" in graph.children["common.xml"]


def test_single_file_graph():
    models = {"pom.xml": parse_build_file("pom.xml", "<project/>")}
    graph = infer_hierarchy(models)
    assert set(graph.children) == {"pom.xml"}
    assert graph.children["pom.xml"] == ()


def test_maven_parent_link_edge():
    child = parse_build_file(
        "lib/pom.xml",
        "<project><parent><groupId>g</groupId><artifactId>root</artifactId>"
        "<relativePath>../pom.xml</relativePath></parent></project>",
    )
    models = {
        "pom.xml": parse_build_file("pom.xml", "<project><artifactId>root</artifactId></project>"),
        "lib/pom.xml": child,
    }
    graph = infer_hierarchy(models)
    assert graph.children["pom.xml"] == ("lib/pom.xml",)


def test_maven_parent_without_relative_path_is_the_nearest_pom_above():
    """Not the directory rule: through agg's module, a/pom.xml is above b/pom.xml."""
    agg = (
        "<project><parent><groupId>g</groupId><artifactId>root</artifactId></parent>"
        "<modules><module>../../b</module></modules></project>"
    )
    before = {"a/pom.xml": "<project/>", "a/agg/pom.xml": agg, "b/pom.xml": "<project/>"}
    ctx = make_context(before, {})
    assert ctx.before_hierarchy.children["a/pom.xml"] == ("a/agg/pom.xml",)
    assert ctx.before_hierarchy.is_ancestor("a/pom.xml", "b/pom.xml")
    assert detectors._relation(ctx, "a/pom.xml", "b/pom.xml") == "ancestor"


def test_cycle_broken_with_warning():
    a = parse_ant('<project><import file="b.xml"/></project>')
    b = parse_ant('<project><import file="a.xml"/></project>')
    models = {
        "a.xml": BuildModel(a.build_system, a.elements, a.module_links, "a.xml"),
        "b.xml": BuildModel(b.build_system, b.elements, b.module_links, "b.xml"),
    }
    graph = infer_hierarchy(models)
    assert graph.warnings
    edges = sum(len(c) for c in graph.children.values())
    assert edges == 1


def _oracle_reaches(edges, src, dst):
    """Whether one or more of ``edges`` lead from src to dst (a fixed point, no walk)."""
    reached = {b for a, b in edges if a == src}
    while True:
        more = reached | {b for a, b in edges if a in reached}
        if more == reached:
            return dst in reached
        reached = more


_ANT_FILES = ("a.xml", "b.xml", "c.xml", "d.xml", "e.xml")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ANT_FILES), st.sampled_from(_ANT_FILES + ("missing.xml",)))))
def test_hierarchy_keeps_an_acyclic_graph_and_drops_only_cycle_closing_edges(imports):
    """Ant imports give any directed graph: an imported file is its importer's parent."""
    models = {}
    for path in _ANT_FILES:
        links = tuple(ModuleLink(LinkRelation.IMPORTS, target) for importer, target in imports if importer == path)
        models[path] = BuildModel(BuildSystem.ANT, (), links, path)
    graph = infer_hierarchy(models)
    kept = {(parent, child) for parent, children in graph.children.items() for child in children}
    dropped = [tuple(w.removeprefix("dropping cycle-closing edge ").split(" -> ")) for w in graph.warnings]
    edges = {(target, importer) for importer, target in imports if target in models and target != importer}
    assert kept.isdisjoint(dropped) and kept | set(dropped) == edges
    assert not any(_oracle_reaches(kept, path, path) for path in _ANT_FILES)
    for parent, child in dropped:
        assert _oracle_reaches({edge for edge in kept if edge < (parent, child)}, child, parent)
    assert all(graph.is_ancestor(a, b) == _oracle_reaches(kept, a, b) for a in _ANT_FILES for b in _ANT_FILES)


_GRADLE_NAMES = ("build.gradle", "build.gradle.kts", "settings.gradle", "settings.gradle.kts", "gradle.properties")
_DIRS = ("", "a", "a/b", "c")
# relative references from one of _DIRS to another, as POMs, Ant files and settings name them
_DIR_REFS = ("a", "b", "c", "a/b", "..", "../c", "../..", "../../c")
_GRADLE_INCLUDES = ("a", ":a", "b", "a:b", "c", "../c", "../a/b")


@st.composite
def mixed_file_set(draw):
    """Maven, Ant and Gradle files in a few nested directories. POMs and Ant
    files link to POMs and Ant files only; settings includes may leave their
    directory, which Gradle itself rejects."""
    files = {}
    for directory in draw(st.sets(st.sampled_from(_DIRS), min_size=1)):
        prefix = f"{directory}/" if directory else ""
        for name in draw(st.sets(st.sampled_from(("pom.xml", "build.xml") + _GRADLE_NAMES), min_size=1)):
            refs = draw(st.lists(st.sampled_from(_DIR_REFS), max_size=2))
            if name == "pom.xml":
                relative = draw(st.sampled_from(("", "../pom.xml", "../..")))
                parent = f"<artifactId>p</artifactId><relativePath>{relative}</relativePath>"
                modules = "".join(f"<module>{ref}</module>" for ref in refs)
                text = f"<project><parent>{parent}</parent><modules>{modules}</modules></project>"
            elif name == "build.xml":
                text = "<project>" + "".join(f'<import file="{ref}/build.xml"/>' for ref in refs) + "</project>"
            elif name.startswith("settings"):
                includes = draw(st.lists(st.sampled_from(_GRADLE_INCLUDES), max_size=3))
                text = "".join(f"include '{ref}'\n" for ref in includes)
            elif name.endswith(".properties"):
                text = "x=1\n"
            else:
                text = "apply from: '../build.gradle'\n" if draw(st.booleans()) else "apply plugin: 'java'\n"
            files[prefix + name] = text
    return files


def _directory_relation(a, b):
    """ancestor, descendant or sibling by directory alone (a is above b when b's directory is under a's)."""
    a_dir, b_dir = PurePosixPath(a).parent, PurePosixPath(b).parent
    if a_dir in b_dir.parents:
        return "ancestor"
    if b_dir in a_dir.parents:
        return "descendant"
    return "sibling"


@settings(max_examples=200, deadline=None)
@given(mixed_file_set(), mixed_file_set())
def test_a_gradle_file_is_placed_by_directory_on_drawn_file_sets(before, after):
    ctx = make_context(before, after, keep_equal=True)
    paths = sorted(set(before) | set(after))
    for a, b in itertools.product(paths, repeat=2):
        if BuildSystem.GRADLE in (classify_build_file(a), classify_build_file(b)):
            assert detectors._relation(ctx, a, b) == _directory_relation(a, b), (a, b)


_DEPTH = 5000


@pytest.mark.parametrize(
    "path,content",
    [
        (
            "pom.xml",
            "<project><dependencies><dependency><groupId>g</groupId><artifactId>a</artifactId>"
            + "<x>" * _DEPTH + "v" + "</x>" * _DEPTH
            + "</dependency></dependencies></project>",
        ),
        ("build.xml", '<project name="p"><target name="t">' + "<x>" * _DEPTH + "</x>" * _DEPTH + "</target></project>"),
    ],
    ids=["maven", "ant"],
)
def test_deep_nesting_parses_and_detects(path, content):
    model = parse_build_file(path, content)
    assert len(model.elements) == 1
    assert model.elements[0].body_tokens.count("x") == 2 * _DEPTH
    assert {d.type for d in detect_all(make_context({path: content}, {}))} == {"Remove Unused Code"}
    assert detect_all(make_context({}, {path: content})) == set()


if __name__ == "__main__":
    # rewrite the golden digests from the parser on the import path
    for golden, files in ((GOLDEN_GRADLE, [("build.gradle", script) for script in gradle_corpus()]),
                          (GOLDEN_XML, xml_corpus())):
        with open(golden, "w", encoding="utf-8", newline="\n") as fh:
            for path, text in files:
                fh.write(json.dumps({"sha256": hashlib.sha256(_model_dump(path, text).encode()).hexdigest()}) + "\n")
