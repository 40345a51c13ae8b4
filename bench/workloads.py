"""Seeded synthetic inputs for the buildref benchmark.

Every workload is a linear git history, generated in memory from a seed and
written with one `git fast-import` process, so one seed always yields the same
repository, commit hashes included. The generator keeps its own ground truth:
which commits the miner must return, the exact before/after text of every
build file it touched, the refactorings planted in each commit, and the reply
plan of the loopback LLM stub. Nothing here imports buildref; the checks
compare the program's outputs against this ground truth.

A seed changes names, versions and the order of commits. It does not change
how many commits of each kind a workload has, so the amount of work per run
stays the same from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Optional

KEYWORD = "refactor"
MAVEN, ANT, GRADLE = "Maven", "Ant", "Gradle"
REPO_DIR = "repo"  # the miner's repo_id is this basename
BASE_TIMESTAMP = 1_600_000_000
WORKLOADS = ("history", "large_files", "llm_cached")


def build_system_of(path: str) -> Optional[str]:
    """Build-file classification by exact basename, as the README states it."""
    base = path.rsplit("/", 1)[-1]
    if base == "pom.xml":
        return MAVEN
    if base == "build.xml":
        return ANT
    if base in ("settings.gradle", "settings.gradle.kts", "gradle.properties"):
        return GRADLE
    if base.endswith(".gradle") or base.endswith(".gradle.kts"):
        return GRADLE
    return None


def with_marker(path: str, body: str, tag: str) -> str:
    """Prefix a build file with a comment naming the commit that wrote it.

    Every commit rewrites the marker of each build file it touches, so the
    marker sits in the diff hunks and the LLM stub can tell which commit a
    prompt describes. Parsers drop comments, so detection never sees it.
    """
    if path.endswith(".xml"):
        return f"<!-- rev {tag} -->\n{body}"
    if path.endswith(".properties"):
        return f"# rev {tag}\n{body}"
    return f"// rev {tag}\n{body}"


# --- planted refactorings -------------------------------------------------------
#
# A template turns a seeded rng and an instance name into the files before
# the refactoring, the files after it (paths relative to the instance's
# directory) and the planted labels. Each instance lives in its own
# directory, <build system>/<instance>, so the commit that applies it touches
# nothing else.

Files = dict[str, str]
Labels = list[tuple[str, str]]  # (refactoring type, build system)

_WORDS = (
    "alpha", "bravo", "cedar", "delta", "ember", "fjord", "grove", "harbor", "indigo",
    "juniper", "kepler", "lumen", "meadow", "nectar", "orbit", "prism", "quartz",
    "raven", "sierra", "tundra", "umber", "vertex", "willow", "xenon", "yonder", "zephyr",
)
_PLUGINS = (
    "java", "groovy", "jacoco", "checkstyle", "pmd", "signing", "idea", "eclipse",
    "application", "maven-publish", "war", "scala",
)
_GROUPS = ("org.apache.commons", "com.google.guava", "io.netty", "org.slf4j", "com.fasterxml")


def _ident(rng: random.Random, inst: str) -> str:
    return f"{rng.choice(_WORDS)}{rng.choice(_WORDS).capitalize()}{inst.capitalize()}"


def _version(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}.{rng.randint(0, 30)}.{rng.randint(0, 9)}"


def _coord(rng: random.Random, inst: str) -> tuple[str, str, str]:
    return rng.choice(_GROUPS), f"{rng.choice(_WORDS)}-{inst}", _version(rng)


def _t_reformat(rng, inst):
    p1, p2 = rng.sample(_PLUGINS, 2)
    before = f"apply plugin: '{p1}'\napply plugin: '{p2}'\n"
    after = f"plugins {{\n    id '{p1}'\n    id '{p2}'\n}}\n"
    return {"build.gradle": before}, {"build.gradle": after}, [("Reformat Code", GRADLE)]


def _t_extract_task(rng, inst):
    task = _ident(rng, inst)
    ext = f"{rng.choice(_WORDS).capitalize()}Extension"
    block = (
        "    project.publishing {\n"
        f"        publications(project.extensions.getByType({ext}).publications)\n"
        "    }\n"
    )
    before = "publish.dependsOn {\n" + block + "}\n"
    after = (
        f"task {task} {{\n    doFirst {{\n"
        + "".join("    " + line + "\n" for line in block.rstrip("\n").split("\n"))
        + f"    }}\n}}\npublish.dependsOn({task})\n"
    )
    return {"build.gradle": before}, {"build.gradle": after}, [("Extract Task", GRADLE)]


def _t_dry(rng, inst):
    a, b = _ident(rng, inst), _ident(rng, inst + "b")
    keys = rng.sample(_WORDS, 3)

    def body(indent, main):
        lines = [f"environment '{k}', props.{k}" for k in keys]
        lines += [f"main = {main}", "classpath = sourceSets.main.runtimeClasspath"]
        return "".join(f"{indent}{line}\n" for line in lines)

    before = "".join(
        f"task('{n}', type: JavaExec) {{\n" + body("    ", f"'{n}'") + "}\n" for n in (a, b)
    )
    after = (
        f"['{a}', '{b}'].each {{ taskName ->\n"
        '    task "$taskName" (type: JavaExec) {\n'
        + body("        ", "taskName")
        + "    }\n}\n"
    )
    return {"build.gradle": before}, {"build.gradle": after}, [("DRY", GRADLE)]


def _t_extract_variable(rng, inst):
    level = f"{rng.randint(8, 21)}"
    var = _ident(rng, inst)
    before = f"sourceCompatibility = '{level}'\ntargetCompatibility = '{level}'\n"
    after = f"def {var} = '{level}'\nsourceCompatibility = {var}\ntargetCompatibility = {var}\n"
    return {"build.gradle": before}, {"build.gradle": after}, [("Extract Variable", GRADLE)]


def _t_inline_variable(rng, inst):
    level = f"{rng.randint(8, 21)}"
    var = _ident(rng, inst)
    before = f"def {var} = '{level}'\nsourceCompatibility = {var}\ntargetCompatibility = {var}\n"
    after = f"sourceCompatibility = '{level}'\ntargetCompatibility = '{level}'\n"
    return {"build.gradle": before}, {"build.gradle": after}, [("Inline Variable", GRADLE)]


def _t_remove_unused(rng, inst):
    flag = _ident(rng, inst)
    plugin = rng.choice(_PLUGINS)
    before = f"apply plugin: '{plugin}'\next.{flag} = 'true'\n"
    after = f"apply plugin: '{plugin}'\n"
    return {"build.gradle": before}, {"build.gradle": after}, [("Remove Unused Code", GRADLE)]


def _gradle_deps(coord):
    group, artifact, version = coord
    return f"dependencies {{\n    implementation '{group}:{artifact}:{version}'\n}}\n"


def _t_pull_up_dependency(rng, inst):
    root = f"subprojects {{\n    apply plugin: '{rng.choice(_PLUGINS)}'\n}}\n"
    deps = _gradle_deps(_coord(rng, inst))
    before = {"build.gradle": root, "sub/build.gradle": deps}
    after = {"build.gradle": root + deps, "sub/build.gradle": "ext.moduleKind = 'leaf'\n"}
    return before, after, [("Pull Up Dependency", GRADLE)]


def _t_push_down_dependency(rng, inst):
    root = f"subprojects {{\n    apply plugin: '{rng.choice(_PLUGINS)}'\n}}\n"
    deps = _gradle_deps(_coord(rng, inst))
    leaf = "ext.moduleKind = 'leaf'\n"
    before = {"build.gradle": root + deps, "sub/build.gradle": leaf}
    after = {"build.gradle": root, "sub/build.gradle": leaf + deps}
    return before, after, [("Push Down Dependency", GRADLE)]


def _t_externalize(rng, inst):
    version = _version(rng)
    props = f"{rng.choice(_WORDS)}.properties"
    before = f'version = "{version}"\n'
    after = (
        f'ext.configFile = file "{props}"\n'
        "configFile.withReader {\n"
        "    def prop = new Properties()\n"
        "    project.ext.config = new ConfigSlurper().parse prop\n"
        "}\n"
        "version = config.version\n"
    )
    return {"build.gradle": before}, {"build.gradle": after}, [("Externalize Properties", GRADLE)]


def _t_extract_module(rng, inst):
    plugin = rng.choice(_PLUGINS)
    publication = f"{rng.choice(_WORDS)}Java"
    repo = f"build/{rng.choice(_WORDS)}"
    block = (
        "publishing {\n    publications {\n"
        f"        {publication}(MavenPublication) {{\n            from components.java\n        }}\n"
        "    }\n    repositories {\n"
        f'        maven {{ url uri("{repo}") }}\n'
        "    }\n}\n"
    )
    new_file = f"{rng.choice(_WORDS)}-publish.gradle"
    before = {"build.gradle": f"apply plugin: '{plugin}'\n" + block}
    after = {
        "build.gradle": f"apply plugin: '{plugin}'\napply from: '{new_file}'\n",
        new_file: block,
    }
    return before, after, [("Extract Module", GRADLE)]


def _ant_project(name, default, targets):
    return f'<project name="{name}" default="{default}">\n{targets}</project>\n'


def _t_rename_target(rng, inst):
    old, new = _ident(rng, inst), _ident(rng, inst + "x")
    src, dst = rng.choice(_WORDS), rng.choice(_WORDS)
    body = (
        f'        <javac srcdir="{src}" destdir="{dst}"/>\n'
        f'        <copy todir="{dst}"/>\n'
    )
    before = _ant_project(inst, old, f'    <target name="{old}">\n{body}    </target>\n')
    after = _ant_project(inst, new, f'    <target name="{new}">\n{body}    </target>\n')
    return {"build.xml": before}, {"build.xml": after}, [("Rename Field", ANT)]


def _t_scheduling(rng, inst):
    clean, init = _ident(rng, inst), _ident(rng, inst + "i")
    out = rng.choice(_WORDS)
    targets = (
        f'    <target name="{clean}">\n        <delete dir="${{{out}}}"/>\n    </target>\n'
        f'    <target name="{init}">\n        <mkdir dir="${{{out}}}"/>\n    </target>\n'
    )
    before = _ant_project(inst, init, targets)
    after = before.replace(f'<target name="{init}">', f'<target name="{init}" depends="{clean}">')
    return {"build.xml": before}, {"build.xml": after}, [("Scheduling Tasks", ANT)]


def _pom(artifact, deps=()):
    dep_xml = "".join(
        "    <dependency>\n"
        f"      <groupId>{g}</groupId>\n      <artifactId>{a}</artifactId>\n      <version>{v}</version>\n"
        "    </dependency>\n"
        for g, a, v in deps
    )
    deps_block = f"  <dependencies>\n{dep_xml}  </dependencies>\n" if deps else ""
    return (
        "<project>\n  <modelVersion>4.0.0</modelVersion>\n  <groupId>com.example</groupId>\n"
        f"  <artifactId>{artifact}</artifactId>\n  <version>1.0</version>\n{deps_block}</project>\n"
    )


def _t_move_dependency(rng, inst):
    coord = _coord(rng, inst)
    a, b = f"{inst}-a", f"{inst}-b"
    before = {"moduleA/pom.xml": _pom(a, [coord]), "moduleB/pom.xml": _pom(b)}
    after = {"moduleA/pom.xml": _pom(a), "moduleB/pom.xml": _pom(b, [coord])}
    return before, after, [("Move Dependency", MAVEN)]


Template = Callable[[random.Random, str], tuple[Files, Files, Labels]]

TEMPLATES: dict[str, Template] = {
    "reformat": _t_reformat,
    "extract_task": _t_extract_task,
    "dry": _t_dry,
    "extract_variable": _t_extract_variable,
    "inline_variable": _t_inline_variable,
    "remove_unused": _t_remove_unused,
    "pull_up_dependency": _t_pull_up_dependency,
    "push_down_dependency": _t_push_down_dependency,
    "externalize": _t_externalize,
    "extract_module": _t_extract_module,
    "rename_target": _t_rename_target,
    "scheduling": _t_scheduling,
    "move_dependency": _t_move_dependency,
}


# --- history model --------------------------------------------------------------

@dataclass(frozen=True)
class BuildChange:
    path: str
    system: str
    kind: str  # "added" or "modified"
    before: Optional[str]
    after: str


@dataclass
class Commit:
    index: int
    message: str
    files: dict[str, str]  # path -> full new content
    labels: Labels = field(default_factory=list)
    build_changes: list[BuildChange] = field(default_factory=list)
    hash: str = ""

    @property
    def tag(self) -> str:
        return f"c{self.index:04d}"

    @property
    def mined(self) -> bool:
        return KEYWORD in self.message.lower() and bool(self.build_changes)


class _History:
    """Linear history builder; tracks the tree so before-texts are known."""

    def __init__(self) -> None:
        self.tree: dict[str, str] = {}
        self.commits: list[Commit] = []

    def commit(self, message: str, files: dict[str, str], labels: Labels = ()) -> Commit:
        c = Commit(index=len(self.commits), message=message, files={}, labels=list(labels))
        for path in sorted(files):
            content = files[path]
            system = build_system_of(path)
            if system is not None:
                content = with_marker(path, content, c.tag)
                before = self.tree.get(path)
                c.build_changes.append(
                    BuildChange(path, system, "added" if before is None else "modified", before, content)
                )
            c.files[path] = content
            self.tree[path] = content
        self.commits.append(c)
        return c


def _matching_message(rng: random.Random, what: str) -> str:
    verb = rng.choice(("Refactor", "refactor:", "Refactoring", "REFACTOR", "Small refactoring of"))
    return f"{verb} {what}"


def _plain_message(rng: random.Random, what: str) -> str:
    verb = rng.choice(("Fix", "Add", "Update", "Bump", "Tweak", "Document"))
    return f"{verb} {what}"


# --- root layout shared by history-like workloads ---------------------------------

class _Layout:
    """Multi-module Maven, Ant and Gradle project whose files take neutral edits.

    A neutral edit changes a version or a property value. It changes the
    element set, so it is never a reformat, and it matches no refactoring rule.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.counter = 0
        g = [_coord(rng, f"g{i}") for i in range(3)]
        m = [_coord(rng, f"m{i}") for i in range(3)]
        self.gradle_deps = {"build.gradle": g[0], "app/build.gradle": g[1], "lib/build.gradle": g[2]}
        self.maven_deps = {"pom.xml": m[0], "core/pom.xml": m[1], "api/pom.xml": m[2]}
        self.ant_values = {"build.xml": "0", "tools/build.xml": "0"}
        self.props_value = "0"

    def render(self, path: str) -> str:
        if path in self.gradle_deps:
            return "apply plugin: 'java'\n" + _gradle_deps(self.gradle_deps[path])
        if path == "settings.gradle":
            return "rootProject.name = 'bench'\ninclude 'app', 'lib'\n"
        if path == "gradle.properties":
            return f"org.gradle.jvmargs=-Xmx1g\nbuildNumber={self.props_value}\n"
        if path in self.maven_deps:
            pom = _pom(path.split("/")[0] if "/" in path else "root", [self.maven_deps[path]])
            if path == "pom.xml":
                return pom.replace(
                    "</project>", "  <modules>\n    <module>core</module>\n    <module>api</module>\n  </modules>\n</project>"
                )
            return pom.replace(
                "<modelVersion>4.0.0</modelVersion>\n",
                "<modelVersion>4.0.0</modelVersion>\n  <parent>\n    <groupId>com.example</groupId>\n"
                "    <artifactId>root</artifactId>\n    <version>1.0</version>\n  </parent>\n",
            )
        if path in self.ant_values:
            imports = '    <import file="../build.xml"/>\n' if path.startswith("tools/") else ""
            return (
                f'<project name="{path.split("/")[0] if "/" in path else "root"}" default="dist">\n{imports}'
                f'    <property name="build.number" value="{self.ant_values[path]}"/>\n'
                '    <target name="dist">\n        <jar destfile="dist/app.jar" basedir="bin"/>\n'
                "    </target>\n</project>\n"
            )
        raise KeyError(path)

    def all_paths(self) -> list[str]:
        return sorted(
            [*self.gradle_deps, "settings.gradle", "gradle.properties", *self.maven_deps, *self.ant_values]
        )

    def edit(self, path: str) -> str:
        """Apply one neutral edit to `path` and return its new body."""
        self.counter += 1
        if path in self.gradle_deps:
            g, a, _ = self.gradle_deps[path]
            self.gradle_deps[path] = (g, a, f"{self.counter}.{self.rng.randint(0, 9)}")
        elif path in self.maven_deps:
            g, a, _ = self.maven_deps[path]
            self.maven_deps[path] = (g, a, f"{self.counter}.{self.rng.randint(0, 9)}")
        elif path in self.ant_values:
            self.ant_values[path] = str(self.counter)
        elif path == "gradle.properties":
            self.props_value = str(self.counter)
        else:
            raise KeyError(path)
        return self.render(path)

    def editable(self) -> list[str]:
        return sorted([*self.gradle_deps, "gradle.properties", *self.maven_deps, *self.ant_values])


def _source_file(rng: random.Random, n: int) -> tuple[str, str]:
    cls = f"{rng.choice(_WORDS).capitalize()}{n}"
    return f"src/main/java/bench/{cls}.java", f"class {cls} {{ int v = {rng.randint(0, 10**6)}; }}\n"


@dataclass(frozen=True)
class HistoryShape:
    """Commit counts of one history-like workload (independent of the seed)."""

    per_template: int  # planted instances of each template
    doubled: int  # planted commits that apply two instances of one template
    neutral_matching: int  # matching commits with neutral build edits only
    nonbuild_matching: int  # matching commits that touch no build file
    neutral_plain: int  # non-matching commits with neutral build edits
    nonbuild_plain: int  # non-matching commits that touch no build file
    neutral_files: tuple[int, ...]  # build systems edited per neutral commit, cycled


HISTORY_SHAPE = HistoryShape(
    per_template=4, doubled=4, neutral_matching=150, nonbuild_matching=52,
    neutral_plain=80, nonbuild_plain=117, neutral_files=(1, 2, 3),
)
LLM_SHAPE = HistoryShape(
    per_template=2, doubled=2, neutral_matching=56, nonbuild_matching=20,
    neutral_plain=30, nonbuild_plain=40, neutral_files=(3,),
)


def _neutral_systems(shape: HistoryShape, k: int) -> tuple[str, ...]:
    """Build systems edited by the k-th neutral commit: a fixed rotation, so
    the number of LLM prompts (one per system) does not depend on the seed."""
    n = shape.neutral_files[k % len(shape.neutral_files)]
    systems = (MAVEN, ANT, GRADLE)
    return tuple(systems[(k + i) % 3] for i in range(n))


def generate_history(seed: int, shape: HistoryShape) -> list[Commit]:
    rng = random.Random(seed)
    layout = _Layout(rng)
    h = _History()
    initial = {p: layout.render(p) for p in layout.all_paths()}
    initial.update([_source_file(rng, 0)])
    h.commit("Initial project layout", initial)

    # planted instances: a fixed count per template, in a seeded order
    instances = [name for name in sorted(TEMPLATES) for _ in range(shape.per_template)]
    rng.shuffle(instances)
    planted = []  # (template, files before, files after, labels, instance)
    for i, name in enumerate(instances):
        inst = f"r{i:03d}"
        before, after, labels = TEMPLATES[name](rng, inst)
        area = f"{labels[0][1].lower()}/{inst}"
        before = {f"{area}/{path}": text for path, text in before.items()}
        after = {f"{area}/{path}": text for path, text in after.items()}
        planted.append((name, before, after, labels, inst))

    # a few commits apply two instances of one template (multiset gold)
    by_template: dict[str, list[int]] = {}
    for i, p in enumerate(planted):
        by_template.setdefault(p[0], []).append(i)
    # Two extractions in one commit pair each new file with both sources, and
    # `buildref detect` then fails to sort those detections (CHANGES.md,
    # FOUND), so module extraction is never doubled.
    doubled_templates = rng.sample(sorted(set(by_template) - {"extract_module"}), shape.doubled)
    groups: list[list[int]] = []
    used: set[int] = set()
    for name in doubled_templates:
        a, b = by_template[name][:2]
        groups.append([a, b])
        used.update((a, b))
    groups += [[i] for i in range(len(planted)) if i not in used]

    events: list[tuple] = []
    events += [("intro", i) for i in range(len(planted))]
    events += [("planted", g) for g in groups]
    for matching, count in ((True, shape.neutral_matching), (False, shape.neutral_plain)):
        events += [("neutral", matching, _neutral_systems(shape, k)) for k in range(count)]
    events += [("nonbuild", True)] * shape.nonbuild_matching
    events += [("nonbuild", False)] * shape.nonbuild_plain
    rng.shuffle(events)
    # a planted commit waits until the intro commits of its instances are out
    ordered: list[tuple] = []
    waiting: list[tuple] = []
    introduced: set[int] = set()
    for e in events:
        if e[0] == "planted" and not introduced.issuperset(e[1]):
            waiting.append(e)
            continue
        ordered.append(e)
        if e[0] == "intro":
            introduced.add(e[1])
            ready = [w for w in waiting if introduced.issuperset(w[1])]
            waiting = [w for w in waiting if not introduced.issuperset(w[1])]
            ordered += ready

    src_n = 1
    for e in ordered:
        if e[0] == "intro":
            name, before, _after, _labels, inst = planted[e[1]]
            h.commit(_plain_message(rng, f"module {inst}"), before)
        elif e[0] == "planted":
            files: dict[str, str] = {}
            labels: Labels = []
            for i in e[1]:
                name, _before, after, lab, inst = planted[i]
                files.update(after)
                labels += lab
            what = ", ".join(planted[i][4] for i in e[1])
            h.commit(_matching_message(rng, f"build of {what}"), files, labels)
        elif e[0] == "neutral":
            paths = [rng.choice([p for p in layout.editable() if build_system_of(p) == system]) for system in e[2]]
            files = {p: layout.edit(p) for p in paths}
            path, text = _source_file(rng, src_n)
            src_n += 1
            files[path] = text
            msg = _matching_message if e[1] else _plain_message
            h.commit(msg(rng, "dependency versions"), files)
        else:
            files = dict([_source_file(rng, src_n)])
            src_n += 1
            msg = _matching_message if e[1] else _plain_message
            h.commit(msg(rng, "sources"), files)
    return h.commits


# --- large files ------------------------------------------------------------------

LARGE_POM_DEPENDENCIES = 800
LARGE_GRADLE_TASKS = 400
LARGE_ANT_TARGETS = 300
LARGE_PROPERTIES = 2000


def _large_pom(deps, props, modules=("child",)) -> str:
    prop_xml = "".join(f"    <{k}>{v}</{k}>\n" for k, v in props)
    mod_xml = "".join(f"    <module>{m}</module>\n" for m in modules)
    return _pom("big-parent", deps).replace(
        "  <dependencies>",
        f"  <properties>\n{prop_xml}  </properties>\n  <modules>\n{mod_xml}  </modules>\n  <dependencies>",
    )


def _large_gradle(plugins, deps, tasks, ext, compat) -> str:
    out = [f"apply plugin: '{p}'\n" for p in plugins]
    out.append("dependencies {\n")
    out += [f"    implementation '{g}:{a}:{v}'\n" for g, a, v in deps]
    out.append("}\n")
    out += [f"ext.{k} = '{v}'\n" for k, v in ext]
    out += compat
    for name, src, prev in tasks:
        depends = f"    dependsOn {prev}\n" if prev else ""
        out.append(
            f"task {name}(type: Copy) {{\n{depends}    from '{src}'\n    into 'build/{name}'\n"
            f"    include '**/*.{src[-3:]}'\n}}\n"
        )
    return "".join(out)


def _large_ant(props, targets) -> str:
    out = ['<project name="big" default="all">\n']
    out += [f'    <property name="{k}" value="{v}"/>\n' for k, v in props]
    for name, src, dst, prev in targets:
        depends = f' depends="{prev}"' if prev else ""
        out.append(
            f'    <target name="{name}"{depends}>\n'
            f'        <mkdir dir="{dst}"/>\n'
            f'        <javac srcdir="{src}" destdir="{dst}" debug="true"/>\n'
            f'        <echo message="built {name} from {src}"/>\n'
            "    </target>\n"
        )
    out.append("</project>\n")
    return "".join(out)


def generate_large_files(seed: int) -> list[Commit]:
    """A few commits on very large build files, covering all four parsers."""
    rng = random.Random(seed)
    h = _History()
    w = lambda: rng.choice(_WORDS)  # noqa: E731

    pom_deps = [(rng.choice(_GROUPS), f"lib{i:03d}-{w()}", _version(rng)) for i in range(LARGE_POM_DEPENDENCIES)]
    pom_props = [(f"{w()}.{i}.version", _version(rng)) for i in range(40)]
    unused_prop = (f"legacy.{w()}.flag", "true")
    moved = (rng.choice(_GROUPS), f"shared-{w()}", _version(rng))
    child_deps = [moved, (rng.choice(_GROUPS), f"child-{w()}", _version(rng))]

    plugins = rng.sample(_PLUGINS, 4)
    gradle_deps = [(rng.choice(_GROUPS), f"dep{i:03d}-{w()}", _version(rng)) for i in range(100)]
    tasks = []
    for i in range(LARGE_GRADLE_TASKS):
        name = f"copy{w().capitalize()}{i:03d}"
        tasks.append((name, f"src/{w()}/{i}.{rng.choice(('xml', 'txt', 'cfg'))}", tasks[-1][0] if i % 4 else None))
    ext = [(f"{w()}Setting{i}", f"{w()}-{i}") for i in range(40)]
    gradle_unused = (f"obsolete{w().capitalize()}Url", f"http://{w()}.example.org/repo")
    level = f"{rng.randint(8, 21)}.{rng.randint(0, 9)}"
    compat = [f"sourceCompatibility = '{level}'\n", f"targetCompatibility = '{level}'\n"]
    compat_var = f"{w()}JavaLevel"

    ant_props = [(f"{w()}.dir.{i}", f"{w()}/{i}") for i in range(100)]
    ant_unused = (f"unused.{w()}.home", f"/srv/{w()}")
    ant_targets = []
    for i in range(LARGE_ANT_TARGETS):
        name = f"{w()}-{i:03d}"
        ant_targets.append((name, f"src/{w()}{i}", f"bin/{w()}{i}", ant_targets[-1][0] if i % 3 else None))
    renamed = LARGE_ANT_TARGETS // 2 + 2  # fixed; the next target does not depend on it

    props = [(f"{w()}.{w()}.key{i}", f"{w()}-{rng.randint(0, 10**6)}") for i in range(LARGE_PROPERTIES)]
    props_unused = (f"stale.{w()}.option", "enabled")

    def properties(items) -> str:
        return "".join(f"{k}={v}\n" for k, v in items)

    child_pom = lambda deps: _pom("child", deps).replace(  # noqa: E731
        "<modelVersion>4.0.0</modelVersion>\n",
        "<modelVersion>4.0.0</modelVersion>\n  <parent>\n    <groupId>com.example</groupId>\n"
        "    <artifactId>big-parent</artifactId>\n    <version>1.0</version>\n  </parent>\n",
    )

    h.commit(
        "Import the large build",
        {
            "big/pom.xml": _large_pom(pom_deps, pom_props + [unused_prop]),
            "big/child/pom.xml": child_pom(child_deps),
            "big/build.gradle": _large_gradle(plugins, gradle_deps, tasks, ext + [gradle_unused], compat),
            "big/build.xml": _large_ant(ant_props + [ant_unused], ant_targets),
            "big/gradle.properties": properties(props + [props_unused]),
        },
    )
    # POM: one dependency pulled up from the child, one unused property removed
    h.commit(
        _matching_message(rng, "the parent POM"),
        {
            "big/pom.xml": _large_pom(pom_deps + [moved], pom_props),
            "big/child/pom.xml": child_pom(child_deps[1:]),
        },
        [("Pull Up Dependency", MAVEN), ("Remove Unused Code", MAVEN)],
    )
    # Gradle script: a repeated literal extracted, an unused ext property removed
    var_compat = [f"def {compat_var} = '{level}'\n", f"sourceCompatibility = {compat_var}\n",
                  f"targetCompatibility = {compat_var}\n"]
    h.commit(
        _matching_message(rng, "the Gradle script"),
        {"big/build.gradle": _large_gradle(plugins, gradle_deps, tasks, ext, var_compat)},
        [("Extract Variable", GRADLE), ("Remove Unused Code", GRADLE)],
    )
    # Gradle script: legacy plugin lines rewritten in the plugins DSL
    reformatted = _large_gradle([], gradle_deps, tasks, ext, var_compat)
    plugins_block = "plugins {\n" + "".join(f"    id '{p}'\n" for p in plugins) + "}\n"
    h.commit(
        _matching_message(rng, "plugin declarations"),
        {"big/build.gradle": plugins_block + reformatted},
        [("Reformat Code", GRADLE)],
    )
    # Ant script: one target renamed, an unused property removed
    new_targets = list(ant_targets)
    old = new_targets[renamed]
    new_targets[renamed] = (f"{old[0]}-renamed", *old[1:])
    new_targets = [
        (n, s, d, new_targets[renamed][0] if p == old[0] else p) for n, s, d, p in new_targets
    ]
    h.commit(
        _matching_message(rng, "the Ant targets"),
        {"big/build.xml": _large_ant(ant_props, new_targets)},
        [("Rename Field", ANT), ("Remove Unused Code", ANT)],
    )
    # gradle.properties: an unused key removed
    h.commit(
        _matching_message(rng, "gradle.properties"),
        {"big/gradle.properties": properties(props)},
        [("Remove Unused Code", GRADLE)],
    )
    # POM: a version bump, nothing planted
    bumped = list(pom_deps) + [moved]
    g, a, _ = bumped[rng.randrange(LARGE_POM_DEPENDENCIES)]
    idx = next(i for i, d in enumerate(bumped) if d[1] == a)
    bumped[idx] = (g, a, f"{_version(rng)}-bump")
    h.commit(_matching_message(rng, "dependency versions"), {"big/pom.xml": _large_pom(bumped, pom_props)})
    return h.commits


# --- workload assembly --------------------------------------------------------------

@dataclass
class Workload:
    name: str
    backend: str  # the detect backend the end-to-end run uses
    commits: list[Commit]

    @property
    def mined(self) -> list[Commit]:
        """Commits the miner must yield, newest first."""
        return [c for c in reversed(self.commits) if c.mined]


def generate(name: str, seed: int) -> Workload:
    if name == "history":
        return Workload(name, "static", generate_history(seed, HISTORY_SHAPE))
    if name == "large_files":
        return Workload(name, "static", generate_large_files(seed))
    if name == "llm_cached":
        return Workload(name, "llm", generate_history(seed, LLM_SHAPE))
    raise ValueError(f"unknown workload {name!r}")


def git_env(workdir: str) -> dict[str, str]:
    """Environment of the git and program processes: no system or user git
    configuration, and no user netrc file for the LLM client."""
    config = os.path.join(workdir, "gitconfig")
    if not os.path.exists(config):
        open(config, "w").close()
    env = dict(os.environ)
    env.update(
        GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=config, XDG_CONFIG_HOME=os.path.join(workdir, ".config"),
        NETRC=os.path.join(workdir, "netrc"), LC_ALL="C", TZ="UTC",
    )
    return env


def fast_import_stream(commits: list[Commit]) -> bytes:
    out = bytearray()

    def data(text: str) -> None:
        raw = text.encode("utf-8")
        out.extend(b"data %d\n" % len(raw))
        out.extend(raw)
        out.extend(b"\n")

    for c in commits:
        ts = BASE_TIMESTAMP + 60 * c.index
        ident = f"Bench Author <bench@example.com> {ts} +0000"
        out.extend(f"commit refs/heads/main\nmark :{c.index + 1}\n".encode())
        out.extend(f"author {ident}\ncommitter {ident}\n".encode())
        data(c.message + "\n")
        if c.index:
            out.extend(f"from :{c.index}\n".encode())
        for path, content in c.files.items():
            out.extend(f"M 100644 inline {path}\n".encode())
            data(content)
    return bytes(out)


def write_repo(workload: Workload, dest: str, env: dict[str, str]) -> str:
    """Write the workload's history as a bare repository under `dest`."""
    repo = os.path.join(dest, REPO_DIR)
    subprocess.run(["git", "init", "-q", "--bare", "--initial-branch=main", repo], check=True, env=env)
    marks = os.path.join(dest, "marks")
    subprocess.run(
        ["git", "-C", repo, "fast-import", "--quiet", f"--export-marks={marks}"],
        input=fast_import_stream(workload.commits), check=True, env=env,
    )
    with open(marks, encoding="utf-8") as fh:
        for line in fh:
            mark, sha = line.split()
            workload.commits[int(mark[1:]) - 1].hash = sha
    return repo


def gold_lines(workload: Workload) -> list[str]:
    """Planted refactoring types of every mined commit (the static gold)."""
    return [
        json.dumps({"commit_hash": c.hash, "types": sorted(t for t, _ in c.labels)})
        for c in workload.mined
    ]


SHAPES = ("array", "fenced", "object")
GARBLE_EVERY = 7  # one first reply in seven matches no accepted shape


def stub_plan(workload: Workload) -> dict:
    """Reply plan of the LLM stub, keyed by commit tag and build system.

    Labels are the planted types of that system, each type once per prompt.
    Replies rotate through the accepted shapes; a prompt without labels gets
    the sentinel sentence; every GARBLE_EVERY-th prompt first gets a reply
    that matches no shape, which forces the strict reprompt.
    """
    plan: dict[str, dict] = {}
    n = 0
    for c in reversed(workload.mined):
        systems = sorted({b.system for b in c.build_changes})
        for system in systems:
            types = sorted({t for t, s in c.labels if s == system})
            labels = [[t, f"{t} applied to the {system} files of {c.tag}"] for t in types]
            if not labels:
                shape = "sentinel"
            else:
                shape = SHAPES[n % len(SHAPES)]
                if shape == "object" and len(labels) > 1:
                    shape = "array"
            plan.setdefault(c.tag, {})[system] = {
                "labels": labels, "shape": shape, "garble": n % GARBLE_EVERY == GARBLE_EVERY - 1,
            }
            n += 1
    return plan


def llm_gold_lines(workload: Workload, plan: dict) -> list[str]:
    """The stub's labels per mined commit (the gold of the LLM workload)."""
    lines = []
    for c in workload.mined:
        types = sorted(t for entry in plan[c.tag].values() for t, _ in entry["labels"])
        lines.append(json.dumps({"commit_hash": c.hash, "types": types}))
    return lines


def set_up(name: str, seed: int, dest: str) -> Workload:
    """Generate one workload into `dest`: repository, gold labels, stub plan."""
    os.makedirs(dest, exist_ok=True)
    workload = generate(name, seed)
    write_repo(workload, dest, git_env(dest))
    plan = stub_plan(workload)
    with open(os.path.join(dest, "stub_plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, sort_keys=True)
    for fname, lines in (("gold.jsonl", gold_lines(workload)), ("llm_gold.jsonl", llm_gold_lines(workload, plan))):
        with open(os.path.join(dest, fname), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    return workload
