"""Generated-artifact bundles and host plans.

A :class:`Bundle` is everything Mulini generates for one experiment
point: the master ``run.sh``, per-server subscripts, vendor config
files, the workload-driver parameters and monitor scripts.  Bundles
know their own accounting (script/config line counts, file counts),
which is how the paper's Table 3/4/5 management-scale numbers are
regenerated rather than asserted.
"""

from __future__ import annotations

import posixpath

from repro.errors import GenerationError
from repro.spec.topology import TIER_ORDER


class HostPlan:
    """Mapping of logical experiment roles to concrete host names."""

    def __init__(self, control, client, tier_hosts):
        self.control = control
        self.client = client
        self._tier_hosts = {tier: list(hosts)
                            for tier, hosts in tier_hosts.items()}

    @classmethod
    def from_allocation(cls, allocation):
        return cls(
            control=allocation.control.name,
            client=allocation.client.name,
            tier_hosts={
                tier: [host.name for host in hosts]
                for tier, hosts in allocation.tier_hosts.items()
            },
        )

    @classmethod
    def synthetic(cls, topology):
        """A host plan with generated names, for offline generation.

        The paper generates scripts before machines are powered on; this
        mirrors that mode (used heavily by the Table 3/4/5 benches that
        only need the artifacts, not a live deployment).
        """
        tier_hosts = {}
        counter = 1
        for tier, count in topology.tiers():
            tier_hosts[tier] = [f"node-{counter + i}" for i in range(count)]
            counter += count
        return cls(control="control", client="client",
                   tier_hosts=tier_hosts)

    def fingerprint(self):
        """Hashable identity of the role->host mapping — part of the
        bundle cache key, since every generated script embeds the
        concrete host names."""
        return (self.control, self.client,
                tuple((tier, tuple(hosts))
                      for tier, hosts in sorted(self._tier_hosts.items())))

    def host_for(self, tier, index):
        hosts = self._tier_hosts.get(tier, [])
        if not 1 <= index <= len(hosts):
            raise GenerationError(
                f"host plan has no host for {tier}{index}"
            )
        return hosts[index - 1]

    def hosts_in(self, tier):
        return list(self._tier_hosts.get(tier, []))

    def server_hosts(self):
        """(tier, index, host) triples in deployment order."""
        for tier in TIER_ORDER:
            for index, host in enumerate(self._tier_hosts.get(tier, []), 1):
                yield tier, index, host


class Bundle:
    """The generated artifact set for one experiment point."""

    SCRIPT_DIR = "scripts"
    CONFIG_DIR = "config"

    def __init__(self, experiment_id, root="/experiments"):
        if "/" in experiment_id:
            raise GenerationError(
                f"experiment id must not contain '/': {experiment_id!r}"
            )
        self.experiment_id = experiment_id
        self.root = posixpath.join(root, experiment_id)
        self.files = {}
        self._manifest_cache = None
        self._install_plan = None
        self._line_totals = None

    # -- construction ------------------------------------------------------

    def add(self, relative_path, content):
        if relative_path in self.files:
            raise GenerationError(
                f"bundle already contains {relative_path!r}"
            )
        if not content.endswith("\n"):
            content += "\n"
        self.files[relative_path] = content
        self._manifest_cache = None
        self._install_plan = None
        self._line_totals = None
        return relative_path

    def add_script(self, name, content):
        return self.add(posixpath.join(self.SCRIPT_DIR, name), content)

    def add_config(self, name, content):
        return self.add(posixpath.join(self.CONFIG_DIR, name), content)

    # -- queries -----------------------------------------------------------

    def path_of(self, relative_path):
        return posixpath.join(self.root, relative_path)

    def content(self, relative_path):
        try:
            return self.files[relative_path]
        except KeyError:
            raise GenerationError(
                f"bundle has no file {relative_path!r}; known: "
                f"{sorted(self.files)}"
            )

    def script_names(self):
        prefix = self.SCRIPT_DIR + "/"
        return sorted(p[len(prefix):] for p in self.files
                      if p.startswith(prefix))

    def config_names(self):
        prefix = self.CONFIG_DIR + "/"
        return sorted(p[len(prefix):] for p in self.files
                      if p.startswith(prefix))

    def line_count(self, relative_path):
        return self.content(relative_path).count("\n")

    def _count_lines(self):
        """Memoized (script, config) line totals.

        Every trial records both totals in its database row, and the
        generation cache shares one bundle across a sweep point's
        repetitions — recounting per trial made Table 3 accounting a
        measurable slice of campaign runtime.
        """
        if self._line_totals is None:
            scripts = self.line_count("run.sh") \
                if "run.sh" in self.files else 0
            script_prefix = self.SCRIPT_DIR + "/"
            config_prefix = self.CONFIG_DIR + "/"
            configs = 0
            for path in self.files:
                if path.startswith(script_prefix):
                    scripts += self.line_count(path)
                elif path.startswith(config_prefix):
                    configs += self.line_count(path)
            self._line_totals = (scripts, configs)
        return self._line_totals

    def script_line_total(self):
        """Total generated script lines (Table 3's 'generated scripts')."""
        return self._count_lines()[0]

    def config_line_total(self):
        """Total configuration-file lines (Table 3's 'config changes')."""
        return self._count_lines()[1]

    def file_count(self):
        return len(self.files)

    def manifest(self):
        """Human-readable inventory of the bundle.

        Memoized: bundles are shared across every trial of a sweep
        point through the generation cache, and each trial installs the
        manifest — recounting every file's lines per install would make
        the inventory the most expensive artifact in the bundle.
        """
        if self._manifest_cache is not None:
            return self._manifest_cache
        lines = [f"# Mulini bundle {self.experiment_id}",
                 f"# root: {self.root}",
                 f"# files: {self.file_count()}"]
        for path in sorted(self.files):
            lines.append(f"{self.line_count(path):6d}  {path}")
        lines.append(f"{self.script_line_total():6d}  TOTAL script lines")
        lines.append(f"{self.config_line_total():6d}  TOTAL config lines")
        self._manifest_cache = "\n".join(lines) + "\n"
        return self._manifest_cache

    # -- installation ------------------------------------------------------

    def install_to(self, control_host):
        """Write every artifact into the control host's filesystem.

        The install plan (absolute path, content pairs) is memoized for
        the same reason as the manifest: the generation cache shares one
        bundle across every repetition of a sweep point, and each trial
        re-installs it onto a fresh control host.
        """
        if self._install_plan is None:
            items = [(self.path_of(path), content)
                     for path, content in self.files.items()]
            items.append((self.path_of("manifest.txt"), self.manifest()))
            self._install_plan = tuple(items)
        control_host.fs.write_many(self._install_plan)
        return self.path_of("run.sh")
