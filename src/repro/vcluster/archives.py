"""Synthetic software archives for the virtual package repository.

Physical experiments unpack vendor tarballs; the virtual cluster ships
the same packages as text "tarballs" that the shell interpreter's
``tar`` builtin can unpack.  Each archive is a self-describing text
format::

    #!repro-tarball <package> <version>
    >>> relative/member/path
    ...member content lines...
    >>> next/member

Members carry enough content (daemon stubs, default config files,
version markers) for deployment verification and configuration parsing
to be meaningful.
"""

from __future__ import annotations

from repro import hotpath
from repro.errors import ClusterError

MAGIC = "#!repro-tarball"
MEMBER_MARKER = ">>> "


def build_archive(package):
    """Render the archive text for a :class:`SoftwarePackage`."""
    members = {
        "VERSION": f"{package.name} {package.version}\n",
        package.daemon: _daemon_stub(package),
    }
    for config in package.config_files:
        members[config] = _default_config(package, config)
    lines = [f"{MAGIC} {package.name} {package.version}"]
    for path in sorted(members):
        lines.append(f"{MEMBER_MARKER}{path}")
        content = members[path]
        if content.endswith("\n"):
            content = content[:-1]
        lines.extend(content.split("\n"))
    return "\n".join(lines) + "\n"


def parse_archive(text):
    """Parse archive text back to ``{member_path: content}``."""
    lines = text.split("\n")
    if not lines or not lines[0].startswith(MAGIC):
        raise ClusterError("not a repro tarball (bad magic)")
    members = {}
    current = None
    buffer = []
    for line in lines[1:]:
        if line.startswith(MEMBER_MARKER):
            if current is not None:
                members[current] = "\n".join(buffer) + "\n"
            current = line[len(MEMBER_MARKER):].strip()
            if not current:
                raise ClusterError("tarball member with empty path")
            buffer = []
        elif current is not None:
            buffer.append(line)
        elif line.strip():
            raise ClusterError(f"content before first member: {line!r}")
    if current is not None:
        # Drop the trailing empty line the serializer appends.
        if buffer and buffer[-1] == "":
            buffer = buffer[:-1]
        members[current] = "\n".join(buffer) + "\n"
    if not members:
        raise ClusterError("tarball has no members")
    return members


_PLAN_CACHE = hotpath.MemoCache("vcluster.extract", capacity=512)


def extraction_plan(text, dest):
    """Memoized ``((absolute path, content), ...)`` for extracting the
    archive *text* under directory *dest*.

    Every host of a tier extracts the same tarball to the same
    destination on every trial, so the per-member path arithmetic is
    done once and the ``tar`` builtin reduces to a bulk write.
    """
    return _PLAN_CACHE.get((text, dest),
                           lambda: _extraction_plan(text, dest))


def _extraction_plan(text, dest):
    from repro.vcluster.filesystem import normalize
    members = parse_archive(text)
    prefix = dest.rstrip("/") + "/"
    return tuple((normalize(prefix + member), content)
                 for member, content in members.items())


def archive_package_name(text):
    """Read the package name out of an archive header."""
    first_line = text.split("\n", 1)[0]
    if not first_line.startswith(MAGIC):
        raise ClusterError("not a repro tarball (bad magic)")
    parts = first_line.split()
    if len(parts) < 3:
        raise ClusterError("malformed tarball header")
    return parts[1]


def _daemon_stub(package):
    return (
        f"#!/bin/sh\n"
        f"# {package.name} {package.version} daemon stub\n"
        f"# role: {package.role}\n"
        f"exec {package.name}-service \"$@\"\n"
    )


def _default_config(package, config):
    return (
        f"# default {config} shipped with {package.name} "
        f"{package.version}\n"
        f"# replaced by Mulini-generated configuration at deploy time\n"
    )
