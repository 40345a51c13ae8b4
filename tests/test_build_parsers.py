import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildref.build_parsers import (
    BuildModel,
    ElementKind,
    LinkRelation,
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
