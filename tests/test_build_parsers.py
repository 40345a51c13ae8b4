import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildref.build_parsers import (
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
    _scan_groovy,
)
from buildref.detectors import detect_all
from buildref.mining import BuildSystem
from conftest import make_context


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


# --- Ant -----------------------------------------------------------------------

def test_target_depends_parsed_as_ordered_list():
    model = parse_ant('<project><target name="init" depends="clean"><mkdir dir="x"/></target></project>')
    target = kinds(model, ElementKind.TARGET)[0]
    assert target.name == "init"
    assert target.attributes["depends"] == "clean"
    assert target.depends_names == ("clean",)


def test_target_without_depends():
    model = parse_ant('<project><target name="a"/></project>')
    assert kinds(model, ElementKind.TARGET)[0].depends_names == ()


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
    model = parse_gradle("rootProject.name = 'demo'\ninclude ':core', ':web'\n")
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
    model = parse_properties("# cache\norg.gradle.jvmargs=-Xmx2g\nversion: 1.2\n")
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


def test_gradle_settings_include_edge():
    models = {
        "build.gradle": parse_build_file("build.gradle", "apply plugin: 'java'\n"),
        "settings.gradle": parse_build_file("settings.gradle", "include ':sub'\n"),
        "sub/build.gradle": parse_build_file("sub/build.gradle", "apply plugin: 'java'\n"),
    }
    graph = infer_hierarchy(models)
    assert "sub/build.gradle" in graph.children["build.gradle"]


def test_gradle_directory_nesting_edge():
    models = {
        "build.gradle": parse_build_file("build.gradle", "apply plugin: 'java'\n"),
        "sub/build.gradle": parse_build_file("sub/build.gradle", "apply plugin: 'java'\n"),
    }
    graph = infer_hierarchy(models)
    assert graph.children["build.gradle"] == ("sub/build.gradle",)


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
    assert graph.nodes == {"pom.xml"}
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
