"""The Elba CIM schema and the resource model extracted from it.

Mulini's resource input (Section II) is a CIM/MOF document describing the
cluster and per-tier software/hardware assignments.  This module defines
the schema MOF shipped with the tool, the :class:`ResourceModel` the
generator consumes, and a writer that renders a default resource MOF for
a benchmark so the parser is exercised even on programmatic campaigns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import MofError
from repro.spec import catalog
from repro.spec.mof.model import CimRepository
from repro.spec.mof.parser import parse

#: MOF source of the Elba schema.  Parsed, not hand-built, so the parser
#: and the schema can never drift apart.
ELBA_SCHEMA_MOF = """
// Elba resource-configuration schema (CIM/MOF subset).
[Description("A physical cluster hosting experiments")]
class Elba_Cluster {
    string Name;
    string Platform;
    [Description("Directory of installable tarballs on the control host")]
    string PackageRepository = "/packages";
};

[Description("Hardware and software assignment for one tier")]
class Elba_TierAssignment {
    string Cluster;
    string Tier;
    string NodeType;
    string Software[];
    uint16 BasePort = 0;
};

[Description("Overrides for a single software package")]
class Elba_PackageOverride {
    string Package;
    uint32 WorkerPool = 0;
    real64 Efficiency = 0.0;
};
"""


@dataclass(frozen=True)
class TierAssignment:
    """Resolved hardware/software choice for one tier."""

    tier: str
    node_type: catalog.NodeType
    packages: tuple

    def daemon_package(self):
        """The package whose daemon answers requests for this tier.

        By convention the last package in the tier stack is the serving
        one (e.g. ``(tomcat, jonas)`` -> jonas; ``(mysql, cjdbc)`` -> the
        controller fronts the databases but mysqld does the work, so for
        the db tier the *first* package serves).
        """
        if self.tier == "db":
            return self.packages[0]
        return self.packages[-1]


@dataclass(frozen=True)
class ResourceModel:
    """Everything Mulini needs to know about the target environment.

    ``tiers`` and ``overrides`` are dicts, but nothing assigns into
    them after :func:`resource_model_from` builds them: campaigns share
    one model per MOF text through a hot-path cache, so a model is read
    only.
    """

    cluster_name: str
    platform: catalog.HardwarePlatform
    package_repository: str
    tiers: dict
    overrides: dict

    def tier(self, name):
        try:
            return self.tiers[name]
        except KeyError:
            raise MofError(
                f"resource model has no tier {name!r}; known: "
                f"{sorted(self.tiers)}"
            )

    def fingerprint(self):
        """Hashable identity of everything generation consumes.

        Two models with equal fingerprints generate byte-identical
        bundles for the same experiment point, so this is the bundle
        cache's invalidation key: any tier reassignment, platform
        change or package override changes the fingerprint.
        """
        tiers = tuple(
            (name, assignment.node_type.name,
             tuple((p.name, p.version) for p in assignment.packages))
            for name, assignment in sorted(self.tiers.items())
        )
        overrides = tuple(
            (name, tuple(sorted(override.items())))
            for name, override in sorted(self.overrides.items())
        )
        return (self.cluster_name, self.platform.name,
                self.package_repository, tiers, overrides)

    def package(self, name):
        """Catalog package with any Elba_PackageOverride applied."""
        package = catalog.get_package(name)
        override = self.overrides.get(package.name)
        if not override:
            return package
        changes = {}
        if override.get("WorkerPool"):
            changes["worker_pool"] = override["WorkerPool"]
        if override.get("Efficiency"):
            changes["efficiency"] = override["Efficiency"]
        if not changes:
            return package
        from dataclasses import replace
        return replace(package, **changes)


@functools.lru_cache(maxsize=1)
def _schema_classes():
    return parse(ELBA_SCHEMA_MOF, source="elba-schema.mof").classes


def schema_repository():
    """A fresh repository over the once-parsed Elba schema classes."""
    repository = CimRepository()
    repository.classes.update(_schema_classes())
    return repository


def load_resource_model(mof_text, source="<resource.mof>"):
    """Parse a resource MOF document and resolve it against the catalogs."""
    repository = schema_repository()
    parse(mof_text, source=source, repository=repository)
    return resource_model_from(repository)


def resource_model_from(repository):
    """Resolve a parsed repository into a :class:`ResourceModel`."""
    cluster = repository.single("Elba_Cluster")
    platform = catalog.get_platform(cluster.require("Platform"))
    tiers = {}
    for assignment in repository.instances_of("Elba_TierAssignment"):
        if assignment.require("Cluster") != cluster.require("Name"):
            raise MofError(
                f"tier assignment references unknown cluster "
                f"{assignment.require('Cluster')!r}"
            )
        tier = assignment.require("Tier").lower()
        if tier in tiers:
            raise MofError(f"duplicate tier assignment for {tier!r}")
        node_type = platform.node_type(assignment.get("NodeType"))
        packages = tuple(
            catalog.get_package(name) for name in assignment.require("Software")
        )
        for package in packages:
            if package.tier not in (tier, "any"):
                raise MofError(
                    f"package {package.name!r} belongs to tier "
                    f"{package.tier!r}, assigned to {tier!r}"
                )
        tiers[tier] = TierAssignment(tier=tier, node_type=node_type,
                                     packages=packages)
    if not tiers:
        raise MofError("resource model declares no tier assignments")
    overrides = {}
    for override in repository.instances_of("Elba_PackageOverride"):
        name = catalog.get_package(override.require("Package")).name
        overrides[name] = {
            "WorkerPool": override.get("WorkerPool", 0),
            "Efficiency": override.get("Efficiency", 0.0),
        }
    return ResourceModel(
        cluster_name=cluster.require("Name"),
        platform=platform,
        package_repository=cluster.get("PackageRepository", "/packages"),
        tiers=tiers,
        overrides=overrides,
    )


def render_resource_mof(benchmark, platform_name, app_server=None,
                        node_types=None, cluster_name=None):
    """Render the default resource MOF for *benchmark* on *platform_name*.

    ``node_types`` optionally maps tier -> node type name (the paper's
    Emulab baseline puts the database on the 600 MHz low-end node while
    web/app run on 3 GHz nodes, Section IV.A).
    """
    platform = catalog.get_platform(platform_name)
    stack = catalog.stack_for(benchmark, app_server=app_server)
    node_types = node_types or {}
    cluster_name = cluster_name or f"{platform.name}-{benchmark}"
    lines = [
        "// Generated Elba resource configuration.",
        "instance of Elba_Cluster {",
        f'    Name = "{cluster_name}";',
        f'    Platform = "{platform.name}";',
        "};",
        "",
    ]
    for tier in ("web", "app", "db"):
        if tier not in stack:
            continue
        node_type = platform.node_type(node_types.get(tier))
        software = ", ".join(f'"{p.name}"' for p in stack[tier])
        lines.extend([
            "instance of Elba_TierAssignment {",
            f'    Cluster = "{cluster_name}";',
            f'    Tier = "{tier}";',
            f'    NodeType = "{node_type.name}";',
            f"    Software = {{{software}}};",
            "};",
            "",
        ])
    return "\n".join(lines)
