"""Closed registry of the 24 build-refactoring types.

One record per type holds all the registry knows of it: its main category
(six in all), the build-specific flag (eight types), the technical debts it
repays (five types repay none), its definition, and a short example snippet
per build system (read by the one-shot prompt builder). The set is closed by
design; detectors and the scorer validate against it.

It also holds the detection record that both the static rules and the LLM
backend emit (a registry type, its ``Details`` text and evidence spans), its
sort order, and the detection line it is written as.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Mapping, NamedTuple, Optional

from .mining import BuildSystem, DataError, checked, dumps


class MainCategory(Enum):
    BUILD_CODE_CLEAN_UP = "Build Code Clean Up"
    MODULE_HIERARCHY_ORGANIZATION = "Module Hierarchy Organization"
    SUBROUTINE_ORGANIZATION = "Subroutine Organization"
    DEPENDENCY_ORGANIZATION = "Dependency Organization"
    SYNCHRONIZING_SHARED_BUILD_PROPERTIES = "Synchronizing Shared Build Properties"
    VARIABLES_ORGANIZATION = "Variables Organization"


class TechnicalDebt(Enum):
    CLARITY_READABILITY = "Clarity & Readability"
    EXTENSIBILITY_MAINTAINABILITY = "Extensibility & Maintainability"
    MODULARITY = "Modularity"
    CODE_DUPLICATION = "Code Duplication"
    SECURITY = "Security"


class UnknownTypeError(DataError):
    """A refactoring type name that is not one of the 24 registry ids."""


class RefactoringType(NamedTuple):
    """One refactoring type: its category, whether it is specific to build
    code, the technical debts it repays (none for five types), its
    definition, and a short diff-style example per build system for the
    one-shot prompt (illustrations, not test fixtures), which take no part in
    equality or hashing."""

    id: str
    category: MainCategory
    build_specific: bool
    debts: frozenset[TechnicalDebt]
    definition: str
    examples: Mapping[BuildSystem, str]

    def __eq__(self, other) -> bool:
        return isinstance(other, RefactoringType) and self[:-1] == other[:-1]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])


_M, _A, _G = BuildSystem.MAVEN, BuildSystem.ANT, BuildSystem.GRADLE

# In category order.
_REGISTRY: tuple[RefactoringType, ...] = (
    RefactoringType(
        "Reformat Code", MainCategory.BUILD_CODE_CLEAN_UP, build_specific=False,
        debts=frozenset({TechnicalDebt.CLARITY_READABILITY}),
        definition="Rewrites build code into a cleaner or more conventional style, such as fixing "
            "indentation, reordering declarations, or switching to a modern equivalent syntax, "
            "without changing what the build does.",
        examples={
            _G: "- apply plugin: 'checkstyle'\n+ plugins {\n+     id 'checkstyle'\n+ }",
            _A: "- <property name=\"out\" value=\"dist\"/><property name=\"tmp\" value=\"work\"/>\n"
                "+ <property name=\"out\" value=\"dist\"/>\n+ <property name=\"tmp\" value=\"work\"/>",
            _M: "- <dependencies><dependency><groupId>org.slf4j</groupId><artifactId>slf4j-api</artifactId></dependency></dependencies>\n"
                "+ <dependencies>\n+   <dependency>\n+     <groupId>org.slf4j</groupId>\n"
                "+     <artifactId>slf4j-api</artifactId>\n+   </dependency>\n+ </dependencies>",
        },
    ),
    RefactoringType(
        "Remove Unused Code", MainCategory.BUILD_CODE_CLEAN_UP, build_specific=False,
        debts=frozenset({TechnicalDebt.CLARITY_READABILITY}),
        definition="Deletes build code that nothing references anymore, such as obsolete properties, "
            "targets, or configuration blocks.",
        examples={
            _G: "- ext.obsoleteRepoUrl = 'http://legacy.example.org/repo'",
            _A: "- <property name=\"legacy.dir\" value=\"old\"/>",
            _M: "- <properties>\n-   <obsolete.flag>true</obsolete.flag>\n- </properties>",
        },
    ),
    RefactoringType(
        "Rename Field", MainCategory.BUILD_CODE_CLEAN_UP, build_specific=False,
        debts=frozenset({TechnicalDebt.CLARITY_READABILITY}),
        definition="Gives a build component (task, target, method, property, or file) a clearer or more "
            "consistent name while keeping its body unchanged.",
        examples={
            _G: "- task packageServer(type: Zip) { from 'out' }\n+ task distServer(type: Zip) { from 'out' }",
            _A: "- <target name=\"do-all\"><javac srcdir=\"src\"/></target>\n"
                "+ <target name=\"compile\"><javac srcdir=\"src\"/></target>",
            _M: "- <module>utils2</module>\n+ <module>common-utils</module>",
        },
    ),
    RefactoringType(
        "Extract Module", MainCategory.MODULE_HIERARCHY_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.MODULARITY}),
        definition="Moves a cohesive piece of build logic into a new build file at the same level of the "
            "project, which the original file then references.",
        examples={
            _G: "- signing { sign publishing.publications }\n+ apply from: 'signing.gradle'\n"
                "+++ signing.gradle\n+ signing { sign publishing.publications }",
            _A: "- <target name=\"docs\"><javadoc sourcepath=\"src\"/></target>\n"
                "+ <import file=\"docs.xml\"/>\n+++ docs.xml\n+ <target name=\"docs\"><javadoc sourcepath=\"src\"/></target>",
            _M: "+++ reporting/pom.xml\n+ <project>\n+   <artifactId>reporting</artifactId>\n+ </project>",
        },
    ),
    RefactoringType(
        "Extract And Pull Up Module", MainCategory.MODULE_HIERARCHY_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.MODULARITY}),
        definition="Moves build logic out of a child build file into a newly created parent or more "
            "general build file.",
        examples={
            _M: "--- app/pom.xml\n- <properties><java.level>11</java.level></properties>\n"
                "+++ pom.xml (new)\n+ <properties><java.level>11</java.level></properties>\n+ <modules><module>app</module></modules>",
            _G: "--- service/build.gradle\n- def sharedRepos = ['central', 'mirror']\n"
                "+++ build.gradle (new)\n+ def sharedRepos = ['central', 'mirror']",
            _A: "--- core/build.xml\n- <property name=\"encoding\" value=\"UTF-8\"/>\n"
                "+++ common.xml (new, imported by core/build.xml)\n+ <property name=\"encoding\" value=\"UTF-8\"/>",
        },
    ),
    RefactoringType(
        "Extract And Push Down Module", MainCategory.MODULE_HIERARCHY_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.MODULARITY}),
        definition="Moves build logic out of a parent build file into a newly created child or more "
            "specific build file.",
        examples={
            _M: "--- pom.xml\n- <dependencies><dependency><groupId>io.netty</groupId><artifactId>netty-all</artifactId></dependency></dependencies>\n"
                "+++ transport/pom.xml (new)\n+ <dependencies><dependency><groupId>io.netty</groupId><artifactId>netty-all</artifactId></dependency></dependencies>",
            _G: "--- build.gradle\n- task dockerImage { doLast { println 'image' } }\n"
                "+++ docker/build.gradle (new)\n+ task dockerImage { doLast { println 'image' } }",
            _A: "--- build.xml\n- <target name=\"it\"><junit/></target>\n"
                "+++ it/build.xml (new)\n+ <target name=\"it\"><junit/></target>",
        },
    ),
    RefactoringType(
        "Extract Method", MainCategory.SUBROUTINE_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY}),
        definition="Moves a cohesive code fragment into a new method and replaces the original fragment "
            "with a call to that method.",
        examples={
            _G: "- task stamp { doLast { def ts = new Date().format('yyyyMMdd'); file('v.txt').text = ts } }\n"
                "+ def buildStamp() { return new Date().format('yyyyMMdd') }\n"
                "+ task stamp { doLast { file('v.txt').text = buildStamp() } }",
            _A: "- <target name=\"pack\"><checksum file=\"a.jar\"/><checksum file=\"b.jar\"/></target>\n"
                "+ <macrodef name=\"sum\"><attribute name=\"f\"/><sequential><checksum file=\"@{f}\"/></sequential></macrodef>\n"
                "+ <target name=\"pack\"><sum f=\"a.jar\"/><sum f=\"b.jar\"/></target>",
            _M: "- <plugin><artifactId>maven-antrun-plugin</artifactId><configuration><target><echo>rev</echo></target></configuration></plugin>\n"
                "+ <plugin><artifactId>maven-antrun-plugin</artifactId><configuration><target><ant antfile=\"rev.xml\"/></target></configuration></plugin>",
        },
    ),
    RefactoringType(
        "Pull Up Method", MainCategory.SUBROUTINE_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY, TechnicalDebt.CODE_DUPLICATION}),
        definition="Moves an existing method or task from a child build file into its parent build file "
            "so it can be shared.",
        examples={
            _G: "--- cli/build.gradle\n- def gitRevision() { return 'git rev-parse HEAD'.execute().text.trim() }\n"
                "+++ build.gradle\n+ def gitRevision() { return 'git rev-parse HEAD'.execute().text.trim() }",
            _A: "--- cli/build.xml\n- <macrodef name=\"banner\"><sequential><echo>==</echo></sequential></macrodef>\n"
                "+++ build.xml\n+ <macrodef name=\"banner\"><sequential><echo>==</echo></sequential></macrodef>",
            _M: "--- cli/pom.xml\n- <plugin><artifactId>exec-maven-plugin</artifactId></plugin>\n"
                "+++ pom.xml\n+ <pluginManagement><plugins><plugin><artifactId>exec-maven-plugin</artifactId></plugin></plugins></pluginManagement>",
        },
    ),
    RefactoringType(
        "Extract Task", MainCategory.SUBROUTINE_ORGANIZATION, build_specific=True,
        debts=frozenset({TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY}),
        definition="Moves a cohesive code fragment into a new task and wires the original site to invoke "
            "that task.",
        examples={
            _G: "- assemble.doLast { copy { from 'conf' into 'out/conf' } }\n"
                "+ task copyConf(type: Copy) { from 'conf'; into 'out/conf' }\n+ assemble.dependsOn(copyConf)",
            _A: "- <target name=\"release\"><zip destfile=\"r.zip\" basedir=\"out\"/></target>\n"
                "+ <target name=\"zip-out\"><zip destfile=\"r.zip\" basedir=\"out\"/></target>\n"
                "+ <target name=\"release\" depends=\"zip-out\"/>",
            _M: "+ <plugin><artifactId>maven-antrun-plugin</artifactId><executions><execution><id>stage-conf</id>"
                "<phase>package</phase></execution></executions></plugin>",
        },
    ),
    RefactoringType(
        "Push Down Task", MainCategory.SUBROUTINE_ORGANIZATION, build_specific=True,
        debts=frozenset(),
        definition="Moves a task from the root or parent build file into the build file of one or more "
            "subprojects.",
        examples={
            _G: "--- build.gradle\n- task genDocs(type: Javadoc) { source = sourceSets.main.allJava }\n"
                "+++ api/build.gradle\n+ task genDocs(type: Javadoc) { source = sourceSets.main.allJava }",
            _A: "--- build.xml\n- <target name=\"native\"><cc/></target>\n"
                "+++ native/build.xml\n+ <target name=\"native\"><cc/></target>",
            _M: "--- pom.xml\n- <plugin><artifactId>maven-assembly-plugin</artifactId></plugin>\n"
                "+++ dist/pom.xml\n+ <plugin><artifactId>maven-assembly-plugin</artifactId></plugin>",
        },
    ),
    RefactoringType(
        "Scheduling Tasks", MainCategory.SUBROUTINE_ORGANIZATION, build_specific=True,
        debts=frozenset({TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY}),
        definition="Adjusts when tasks run relative to each other, for example through depends, "
            "dependsOn, mustRunAfter, or finalizedBy constraints.",
        examples={
            _A: "- <target name=\"package\">\n+ <target name=\"package\" depends=\"test\">",
            _G: "+ integrationTest.mustRunAfter test",
            _M: "- <phase>verify</phase>\n+ <phase>integration-test</phase>",
        },
    ),
    RefactoringType(
        "DRY", MainCategory.SUBROUTINE_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.CODE_DUPLICATION}),
        definition="Replaces several near-identical task or configuration definitions with one "
            "parameterized construct, such as a loop over names or a shared method.",
        examples={
            _G: "- task pingEu(type: Exec) { commandLine 'ping', 'eu.host' }\n"
                "- task pingUs(type: Exec) { commandLine 'ping', 'us.host' }\n"
                "+ ['eu', 'us'].each { region ->\n+     task \"ping${region.capitalize()}\"(type: Exec) { commandLine 'ping', \"${region}.host\" }\n+ }",
            _A: "- <target name=\"clean-a\"><delete dir=\"a/out\"/></target>\n"
                "- <target name=\"clean-b\"><delete dir=\"b/out\"/></target>\n"
                "+ <macrodef name=\"cleanmod\"><attribute name=\"m\"/><sequential><delete dir=\"@{m}/out\"/></sequential></macrodef>",
            _M: "- <dependency><groupId>com.fasterxml.jackson.core</groupId><artifactId>jackson-databind</artifactId><version>2.15.0</version></dependency> (in 3 modules)\n"
                "+ <dependencyManagement> entry declared once in the parent",
        },
    ),
    RefactoringType(
        "Move Dependency", MainCategory.DEPENDENCY_ORGANIZATION, build_specific=True,
        debts=frozenset(),
        definition="Moves a dependency declaration between two build files at the same level of the "
            "hierarchy.",
        examples={
            _M: "--- web/pom.xml\n- <dependency><groupId>commons-io</groupId><artifactId>commons-io</artifactId></dependency>\n"
                "+++ batch/pom.xml\n+ <dependency><groupId>commons-io</groupId><artifactId>commons-io</artifactId></dependency>",
            _G: "--- web/build.gradle\n- implementation 'commons-io:commons-io:2.11.0'\n"
                "+++ batch/build.gradle\n+ implementation 'commons-io:commons-io:2.11.0'",
            _A: "--- web/build.xml\n- <pathelement location=\"lib/commons-io.jar\"/>\n"
                "+++ batch/build.xml\n+ <pathelement location=\"lib/commons-io.jar\"/>",
        },
    ),
    RefactoringType(
        "Pull Up Dependency", MainCategory.DEPENDENCY_ORGANIZATION, build_specific=True,
        debts=frozenset({TechnicalDebt.CODE_DUPLICATION}),
        definition="Moves a dependency declaration from a child build file into its parent build file.",
        examples={
            _G: "--- app/build.gradle\n- classpath 'org.jetbrains.kotlin:kotlin-gradle-plugin:1.9.0'\n"
                "+++ build.gradle\n+ classpath 'org.jetbrains.kotlin:kotlin-gradle-plugin:1.9.0'",
            _M: "--- core/pom.xml\n- <dependency><groupId>org.junit.jupiter</groupId><artifactId>junit-jupiter</artifactId></dependency>\n"
                "+++ pom.xml\n+ <dependency><groupId>org.junit.jupiter</groupId><artifactId>junit-jupiter</artifactId></dependency>",
            _A: "--- core/build.xml\n- <taskdef resource=\"net/sf/antcontrib/antlib.xml\"/>\n"
                "+++ build.xml\n+ <taskdef resource=\"net/sf/antcontrib/antlib.xml\"/>",
        },
    ),
    RefactoringType(
        "Push Down Dependency", MainCategory.DEPENDENCY_ORGANIZATION, build_specific=True,
        debts=frozenset({TechnicalDebt.MODULARITY}),
        definition="Moves a dependency declaration from a parent build file into a child build file.",
        examples={
            _M: "--- pom.xml\n- <dependency><groupId>org.postgresql</groupId><artifactId>postgresql</artifactId></dependency>\n"
                "+++ storage/pom.xml\n+ <dependency><groupId>org.postgresql</groupId><artifactId>postgresql</artifactId></dependency>",
            _G: "--- build.gradle\n- implementation 'org.postgresql:postgresql:42.6.0'\n"
                "+++ storage/build.gradle\n+ implementation 'org.postgresql:postgresql:42.6.0'",
            _A: "--- build.xml\n- <pathelement location=\"lib/postgresql.jar\"/>\n"
                "+++ storage/build.xml\n+ <pathelement location=\"lib/postgresql.jar\"/>",
        },
    ),
    RefactoringType(
        "Externalize Properties", MainCategory.SYNCHRONIZING_SHARED_BUILD_PROPERTIES, build_specific=True,
        debts=frozenset({TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY, TechnicalDebt.SECURITY}),
        definition="Moves environment-specific values, credentials, or settings out of the build script "
            "into an external configuration file such as a .properties file that the script reads.",
        examples={
            _G: "- signingKey = 'hunter2'\n+ def secrets = new Properties()\n"
                "+ file('secrets.properties').withInputStream { secrets.load(it) }\n+ signingKey = secrets.signingKey",
            _A: "- <property name=\"deploy.host\" value=\"prod.example.org\"/>\n"
                "+ <property file=\"deploy.properties\"/>",
            _M: "- <properties><db.url>jdbc:postgresql://prod/db</db.url></properties>\n"
                "+ <filters><filter>env.properties</filter></filters>",
        },
    ),
    RefactoringType(
        "Pull Up Properties", MainCategory.SYNCHRONIZING_SHARED_BUILD_PROPERTIES, build_specific=True,
        debts=frozenset({TechnicalDebt.CODE_DUPLICATION}),
        definition="Consolidates properties or configuration repeated across child build files into the "
            "root or parent build file.",
        examples={
            _M: "--- core/pom.xml\n- <properties><spring.version>6.0.9</spring.version></properties>\n"
                "+++ pom.xml\n+ <properties><spring.version>6.0.9</spring.version></properties>",
            _G: "--- app/gradle.properties\n- org.gradle.jvmargs=-Xmx2g\n+++ gradle.properties\n+ org.gradle.jvmargs=-Xmx2g",
            _A: "--- core/build.xml\n- <property name=\"encoding\" value=\"UTF-8\"/>\n"
                "+++ build.xml\n+ <property name=\"encoding\" value=\"UTF-8\"/>",
        },
    ),
    RefactoringType(
        "Extract Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY}),
        definition="Introduces a variable for a repeated literal and replaces the occurrences with "
            "references to it.",
        examples={
            _G: "- compileSdkVersion 33\n- targetSdkVersion 33\n+ def sdkLevel = 33\n"
                "+ compileSdkVersion sdkLevel\n+ targetSdkVersion sdkLevel",
            _A: "- <javac destdir=\"build/classes\"/><copy todir=\"build/classes\"/>\n"
                "+ <property name=\"classes.dir\" value=\"build/classes\"/>\n"
                "+ <javac destdir=\"${classes.dir}\"/><copy todir=\"${classes.dir}\"/>",
            _M: "- <version>5.9.2</version> (repeated in two dependencies)\n"
                "+ <properties><junit.version>5.9.2</junit.version></properties>\n+ <version>${junit.version}</version>",
        },
    ),
    RefactoringType(
        "Inline Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.CLARITY_READABILITY}),
        definition="Removes a variable definition and substitutes its value directly where it was used.",
        examples={
            _G: "- def outDir = 'dist'\n- task pack(type: Zip) { destinationDirectory = file(outDir) }\n"
                "+ task pack(type: Zip) { destinationDirectory = file('dist') }",
            _A: "- <property name=\"msg\" value=\"done\"/>\n- <echo message=\"${msg}\"/>\n+ <echo message=\"done\"/>",
            _M: "- <properties><war.name>app</war.name></properties>\n- <finalName>${war.name}</finalName>\n+ <finalName>app</finalName>",
        },
    ),
    RefactoringType(
        "Move Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset(),
        definition="Moves a variable definition between build files at the same level of the hierarchy.",
        examples={
            _G: "--- web/build.gradle\n- def nodeVersion = '18.16.0'\n+++ tools/build.gradle\n+ def nodeVersion = '18.16.0'",
            _A: "--- web/build.xml\n- <property name=\"node.version\" value=\"18\"/>\n"
                "+++ tools/build.xml\n+ <property name=\"node.version\" value=\"18\"/>",
            _M: "--- web/pom.xml\n- <properties><node.version>18</node.version></properties>\n"
                "+++ tools/pom.xml\n+ <properties><node.version>18</node.version></properties>",
        },
    ),
    RefactoringType(
        "Pull Up Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.MODULARITY, TechnicalDebt.CODE_DUPLICATION}),
        definition="Moves a variable definition from a child build file into its parent build file.",
        examples={
            _G: "--- app/build.gradle\n- def protocVersion = '3.23.0'\n+++ build.gradle\n+ def protocVersion = '3.23.0'",
            _A: "--- app/build.xml\n- <property name=\"proto.version\" value=\"3.23\"/>\n"
                "+++ build.xml\n+ <property name=\"proto.version\" value=\"3.23\"/>",
            _M: "--- app/pom.xml\n- <properties><proto.version>3.23.0</proto.version></properties>\n"
                "+++ pom.xml\n+ <properties><proto.version>3.23.0</proto.version></properties>",
        },
    ),
    RefactoringType(
        "Push Down Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset(),
        definition="Moves a variable definition from a parent build file into a child build file.",
        examples={
            _G: "--- build.gradle\n- def emulatorPort = 5554\n+++ android/build.gradle\n+ def emulatorPort = 5554",
            _A: "--- build.xml\n- <property name=\"emulator.port\" value=\"5554\"/>\n"
                "+++ android/build.xml\n+ <property name=\"emulator.port\" value=\"5554\"/>",
            _M: "--- pom.xml\n- <properties><android.port>5554</android.port></properties>\n"
                "+++ android/pom.xml\n+ <properties><android.port>5554</android.port></properties>",
        },
    ),
    RefactoringType(
        "Extract And Move Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset(),
        definition="Introduces a variable for a value but defines it in a different build file than the "
            "one where the value was used.",
        examples={
            _G: "--- app/build.gradle\n- minSdkVersion 24\n+ minSdkVersion versions.minSdk\n"
                "+++ versions.gradle\n+ ext.versions = [minSdk: 24]",
            _A: "--- app/build.xml\n- <javac source=\"17\"/>\n+ <javac source=\"${java.level}\"/>\n"
                "+++ shared.xml\n+ <property name=\"java.level\" value=\"17\"/>",
            _M: "--- app/pom.xml\n- <source>17</source>\n+ <source>${java.level}</source>\n"
                "+++ config/pom.xml\n+ <properties><java.level>17</java.level></properties>",
        },
    ),
    RefactoringType(
        "Extract And Pull Up Variable", MainCategory.VARIABLES_ORGANIZATION, build_specific=False,
        debts=frozenset({TechnicalDebt.CODE_DUPLICATION}),
        definition="Introduces a variable for a value used in child build files and defines it in a "
            "parent build file.",
        examples={
            _G: "--- app/build.gradle\n- implementation \"io.grpc:grpc-core:1.54.0\"\n"
                "+ implementation \"io.grpc:grpc-core:$grpcVersion\"\n+++ build.gradle\n+ ext.grpcVersion = '1.54.0'",
            _A: "--- app/build.xml\n- <javac debug=\"true\"/>\n+ <javac debug=\"${debug.flag}\"/>\n"
                "+++ build.xml\n+ <property name=\"debug.flag\" value=\"true\"/>",
            _M: "--- app/pom.xml\n- <version>1.54.0</version>\n+ <version>${grpc.version}</version>\n"
                "+++ pom.xml\n+ <properties><grpc.version>1.54.0</grpc.version></properties>",
        },
    ),
)
_BY_ID: Mapping[str, RefactoringType] = {t.id: t for t in _REGISTRY}
_BY_LOWER_ID: Mapping[str, RefactoringType] = {t.id.lower(): t for t in _REGISTRY}

ALL_TYPE_IDS: tuple[str, ...] = tuple(t.id for t in _REGISTRY)


def registry() -> tuple[RefactoringType, ...]:
    """All 24 refactoring types, in category order."""
    return _REGISTRY


def get_type(type_id: str) -> RefactoringType:
    try:
        return _BY_ID[type_id]
    except KeyError:
        raise UnknownTypeError(f"unknown type {type_id}") from None


def resolve_type(name: str) -> Optional[RefactoringType]:
    """Case-insensitive lookup of a registry id; None when unknown."""
    return _BY_LOWER_ID.get(name.strip().lower())


def td_categories_for(type_or_id: RefactoringType | str) -> frozenset[TechnicalDebt]:
    """Technical debts repaid by a refactoring type (empty for five types)."""
    return (type_or_id if isinstance(type_or_id, RefactoringType) else get_type(type_or_id)).debts


def registry_to_json() -> str:
    """Registry as a JSON document, as `buildref taxonomy --json` prints it."""
    payload = [
        {
            "id": t.id,
            "category": t.category.value,
            "definition": t.definition,
            "build_specific": t.build_specific,
            "technical_debts": sorted(d.value for d in t.debts),
        }
        for t in _REGISTRY
    ]
    return json.dumps(payload, indent=2, ensure_ascii=False)


# --- the detection record -----------------------------------------------------

class Evidence(NamedTuple):
    path: str
    span: tuple[int, int]
    role: str  # "source" or "destination"


@checked
class DetectedRefactoring(NamedTuple):
    type: str
    details: str
    evidence: tuple[Evidence, ...]
    backend: str = "static"
    confidence: float = 1.0
    unknown_type: bool = False

    def _check(self) -> None:
        if not self.unknown_type:
            get_type(self.type)
        if self.backend == "static" and self.confidence != 1.0:
            raise ValueError("static detections are binary: confidence must be 1.0")


def sort_key(det: DetectedRefactoring) -> tuple:
    return (det.type, det.evidence and det.evidence[0].path or "", det.evidence, det.details)


def detection_to_json(commit_hash: str, det: DetectedRefactoring) -> str:
    return dumps(
        {
            "commit_hash": commit_hash,
            "RefactoringType": det.type,
            "Details": det.details,
            "evidence": [
                {"path": e.path, "start_line": e.span[0], "end_line": e.span[1], "role": e.role}
                for e in det.evidence
            ],
            "backend": det.backend,
            "confidence": det.confidence,
        }
    )
