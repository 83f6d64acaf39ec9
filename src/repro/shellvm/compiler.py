"""Closure compiler for the restricted shell dialect.

The tree-walking interpreter re-discovers the same facts on every
execution of a script: node types, which words are pure literals, which
command names resolve to which builtins, how their flags parse, where
redirects point.  For the generated deployment chassis those facts are
*point-invariant* — the scripts are shared across every sweep point
through the interned parse cache, and only driver/ignition content
changes between points.

``compile_script`` walks a frozen AST exactly once and partially
evaluates everything the AST alone determines:

* all-literal words collapse to constant argv fragments,
* constant command names pre-resolve their builtin handler out of
  ``REGISTRY`` (no per-execution dict probe or ``isinstance`` ladder),
* the hottest builtins specialize further: ``ssh`` pre-compiles its
  remote command text, ``scp``/``tar``/``mkdir``/``rm``/``test`` parse
  flags and pre-normalize absolute operand paths at compile time,
  ``echo`` folds to its output string,
* constant absolute redirect targets pre-normalize their path,
* errexit checks compile to per-statement closures carrying their line.

What remains at run time is exactly the per-point work: binding
driver/ignition variables, expanding the words that mention them, and
the builtins' real effects on the virtual hosts.  A specializer that
cannot prove it reproduces the builtin's behaviour declines, and the
command falls back to the pre-resolved handler — failure modes
(unknown flags, bad operands) always take the generic path so their
diagnostics stay byte-identical to the interpreter's.

Compiled programs are closures ``fn(interp, env, output) -> status``
sharing the audit log, tracer spans, fault points and builtins with
the interpreter, so a campaign stores a byte-identical database under
either engine (``benchmarks/test_bench_shellvm.py`` enforces this);
the tree-walker stays available as the oracle via
``REPRO_SHELLVM=interp``.

The compile cache registers in the :mod:`repro.hotpath` plane beside
the parse cache, keyed the same way — compiled once per unique script
text, shared across trials, tenants and threads.
"""

from __future__ import annotations

from repro import hotpath
from repro.errors import ClusterError, CommandError, ReproError, ShellError
from repro.shellvm.builtins import REGISTRY, _flags
from repro.shellvm.environment import (
    ShellEnvironment,
    errexit_failure,
    expand_single,
    expand_word,
)
from repro.shellvm.nodes import (
    AndOrList,
    ForClause,
    IfClause,
    SimpleCommand,
)
from repro.shellvm.parser import parse
from repro.vcluster.archives import extraction_plan
from repro.vcluster.filesystem import normalize

_COMPILE_CACHE = hotpath.MemoCache("shellvm.compile", capacity=8192)


def compile_script(script):
    """The compiled form of *script*: ``fn(interp, env, output) -> status``.

    Cached beside the parse cache under the same key, so every trial of
    a sweep reuses one compiled program per unique script text.
    """
    return _COMPILE_CACHE.get((script.source, script.text),
                              lambda: compile_fresh(script))


def compile_text(text, script="<script>"):
    """Compile shell *text* directly, parsing only on a cache miss.

    The key matches :func:`compile_script`'s ``(source, text)``, so the
    two entry points share entries; on a hit the parse step (and its
    own cache probe) is skipped entirely.
    """
    return _COMPILE_CACHE.get((script, text),
                              lambda: compile_fresh(parse(text,
                                                          script=script)))


def compile_fresh(script):
    """Compile *script* unconditionally (no cache)."""
    return _compile_body(script.statements)


# -- words --------------------------------------------------------------

def _is_literal(parts):
    return all(kind == "lit" for kind, _value, _quoted in parts)


def _compile_word(parts):
    """``(const_fields, fn)`` — exactly one of the two is set.

    Literal words expand identically in every environment, so they are
    expanded once here; variable-bearing words compile to a per-
    execution expander.
    """
    if _is_literal(parts):
        return tuple(expand_word(parts, None)), None
    return None, lambda env: expand_word(parts, env)


def _compile_assignment(name, parts):
    """``(name, const_value, fn)`` mirroring the interpreter's
    ``"".join(expand_word(parts, env)) if parts else ""``."""
    if not parts:
        return name, "", None
    if _is_literal(parts):
        return name, "".join(expand_word(parts, None)), None
    return name, None, lambda env: "".join(expand_word(parts, env))


# -- statements ---------------------------------------------------------

def _compile_statement(node):
    if isinstance(node, SimpleCommand):
        return _compile_simple(node)
    if isinstance(node, AndOrList):
        return _compile_and_or(node)
    if isinstance(node, IfClause):
        return _compile_if(node)
    if isinstance(node, ForClause):
        return _compile_for(node)
    raise ShellError(f"unknown AST node {type(node).__name__}")


def _compile_body(statements):
    """A statement sequence with interpreter-identical errexit checks."""
    steps = tuple((getattr(node, "line", None), _compile_statement(node))
                  for node in statements)

    def run_body(interp, env, output):
        status = 0
        for line, step in steps:
            status = step(interp, env, output)
            if env.errexit and status != 0:
                raise errexit_failure(status, line, env)
        return status

    return run_body


def _compile_and_or(node):
    first = _compile_statement(node.first)
    rest = tuple((operator, _compile_statement(command))
                 for operator, command in node.rest)

    def run_and_or(interp, env, output):
        # Non-final members of && / || chains do not trip errexit.
        saved_errexit = env.errexit
        env.errexit = False
        try:
            status = first(interp, env, output)
            for operator, step in rest:
                if operator == "&&" and status != 0:
                    continue
                if operator == "||" and status == 0:
                    continue
                status = step(interp, env, output)
        finally:
            env.errexit = saved_errexit
        return status

    return run_and_or


def _compile_if(node):
    condition = _compile_statement(node.condition)
    then_body = _compile_body(node.then_body)
    else_body = _compile_body(node.else_body)

    def run_if(interp, env, output):
        saved_errexit = env.errexit
        env.errexit = False
        try:
            condition_status = condition(interp, env, output)
        finally:
            env.errexit = saved_errexit
        body = then_body if condition_status == 0 else else_body
        return body(interp, env, output)

    return run_if


def _compile_for(node):
    variable = node.variable
    item_words = tuple(_compile_word(word) for word in node.items)
    const_items = None
    if all(const is not None for const, _fn in item_words):
        const_items = tuple(field for const, _fn in item_words
                            for field in const)
    body = _compile_body(node.body)

    def run_for(interp, env, output):
        if const_items is not None:
            items = const_items
        else:
            items = []
            for const, expander in item_words:
                items.extend(const if const is not None else expander(env))
        status = 0
        for item in items:
            env.set(variable, item)
            status = body(interp, env, output)
        return status

    return run_for


# -- simple commands ----------------------------------------------------

def _compile_simple(node):
    assignments = tuple(_compile_assignment(name, parts)
                        for name, parts in node.assignments)
    words = tuple(_compile_word(parts) for parts in node.words)
    const_argv = None
    if all(const is not None for const, _fn in words):
        const_argv = tuple(field for const, _fn in words for field in const)

    # The dominant chassis shape — constant argv, no assignment prefix —
    # dispatches through a pre-resolved (and usually specialized)
    # invoker with a pre-joined audit line.
    if const_argv and not node.assignments:
        name = const_argv[0]
        handler = REGISTRY.get(name)
        if handler is not None:
            if not node.background:
                return _compile_const_builtin(node, const_argv, handler)
            # Backgrounded builtins become processes (monitors started
            # with &), exactly as _dispatch does before handler lookup.
            def invoke_background(interp, env):
                env.host.spawn(const_argv, background=True)
                return 0, ""
            return _wrap_invoke(node, const_argv, invoke_background)
        if name.startswith("/"):
            program = _compile_const_program(node, const_argv)
            if program is not None:
                return program

    return _compile_generic_simple(node, assignments, words, const_argv)


def _compile_const_program(node, const_argv):
    """Specialize execution of a constant absolute program path —
    ignition binaries, monitors started with ``&``, phase scripts run
    by path — mirroring ``_execute_program`` with the path pre-normalized
    and the spawn argv pre-built."""
    path = normalize(const_argv[0], "/")
    missing = f"{const_argv[0]}: no such file\n"
    if node.background:
        spawn_argv = (path,) + const_argv[1:]

        def invoke(interp, env):
            if not env.host.fs.is_file(path):
                return 127, missing
            env.host.spawn(spawn_argv, background=True)
            return 0, ""
    elif path.endswith(".sh"):
        script_args = const_argv[1:]

        def invoke(interp, env):
            if not env.host.fs.is_file(path):
                return 127, missing
            return interp.run_script_file(env.host, path, args=script_args,
                                          parent_env=env)
    else:
        spawn_argv = (path,) + const_argv[1:]

        def invoke(interp, env):
            if not env.host.fs.is_file(path):
                return 127, missing
            process = env.host.spawn(spawn_argv, background=False)
            process.alive = False
            return 0, ""
    return _wrap_invoke(node, const_argv, invoke)


def _compile_redirect(redirect):
    """``(pre_path, const_target, target_fn, append)`` for a redirect.

    A literal target always expands to exactly one field; when it is
    absolute its normalized path is also environment-independent.
    """
    if redirect is None:
        return None
    if _is_literal(redirect.target):
        target = expand_single(redirect.target, None, what="redirect target")
        if target.startswith("/"):
            return normalize(target, "/"), None, None, redirect.append
        return None, target, None, redirect.append
    expander = (lambda env: expand_single(redirect.target, env,
                                          what="redirect target"))
    return None, None, expander, redirect.append


def _deliver(env, output, redirect, command_output, diagnostic):
    """Route command output per the (compiled) redirect, diagnostics to
    the captured stream — identical to the interpreter's fixed
    semantics: a dispatch failure never lands in a redirected file."""
    if redirect is None:
        output.append(command_output)
    else:
        pre_path, const_target, target_fn, append = redirect
        if pre_path is None:
            target = const_target if target_fn is None else target_fn(env)
            pre_path = normalize(target, env.cwd)
        env.host.fs.write(pre_path, command_output, append=append)
    if diagnostic is not None:
        output.append(diagnostic)


def _const_invoke(const_argv, handler):
    """The specialized invoke for *const_argv*, or a thin handler call."""
    specializer = _SPECIALIZERS.get(const_argv[0])
    if specializer is not None:
        try:
            invoke = specializer(const_argv)
        except ReproError:
            # Anything the specializer trips over at compile time, the
            # generic handler must trip over at run time — fall back so
            # the diagnostic (and its timing) match the interpreter.
            invoke = None
        if invoke is not None:
            return invoke

    def invoke(interp, env):
        return handler(interp, env, const_argv)
    return invoke


def _compile_const_builtin(node, const_argv, handler):
    return _wrap_invoke(node, const_argv,
                        _const_invoke(const_argv, handler))


def _wrap_invoke(node, const_argv, invoke):
    """The full statement closure around an ``(interp, env) ->
    (status, output)`` invoke: audit-log append, dispatch-failure
    diagnostics, redirect routing."""
    command = " ".join(const_argv)
    redirect = _compile_redirect(node.redirect)
    from repro.shellvm.interpreter import LogEntry

    if redirect is None:
        def run_simple(interp, env, output):
            try:
                status, command_output = invoke(interp, env)
            except CommandError as error:
                status, command_output = 127, f"{error}\n"
            interp.log.append(LogEntry(env.host.name, command, status))
            output.append(command_output)
            return status
        return run_simple

    def run_simple_redirected(interp, env, output):
        diagnostic = None
        try:
            status, command_output = invoke(interp, env)
        except CommandError as error:
            status, command_output = 127, ""
            diagnostic = f"{error}\n"
        interp.log.append(LogEntry(env.host.name, command, status))
        _deliver(env, output, redirect, command_output, diagnostic)
        return status

    return run_simple_redirected


def _compile_generic_simple(node, assignments, words, const_argv):
    redirect = _compile_redirect(node.redirect)
    from repro.shellvm.interpreter import LogEntry

    def run_simple(interp, env, output):
        for name, const_value, value_fn in assignments:
            env.set(name, const_value if value_fn is None else value_fn(env))
        if const_argv is not None:
            argv = const_argv
        else:
            argv = []
            for const, expander in words:
                argv.extend(const if const is not None else expander(env))
        if not argv:
            return 0
        diagnostic = None
        try:
            status, command_output = interp._dispatch(argv, env, node)
        except CommandError as error:
            status, command_output = 127, ""
            diagnostic = f"{error}\n"
        interp.log.append(LogEntry(env.host.name, " ".join(argv), status))
        _deliver(env, output, redirect, command_output, diagnostic)
        return status

    return run_simple


# -- builtin specializers -----------------------------------------------
#
# Each specializer receives a constant argv and returns either a closure
# ``fn(interp, env) -> (status, output)`` that reproduces the builtin's
# behaviour exactly for that argv, or ``None`` to decline.  Decline on
# anything uncertain: error paths must come from the real builtin so
# diagnostics stay identical.  Raising a ReproError here also counts as
# declining (the caller catches it).

_SPECIALIZERS = {}


def _specializer(name):
    def register(fn):
        _SPECIALIZERS[name] = fn
        return fn
    return register


def _const_result(status, output):
    def run(interp, env):
        return status, output
    return run


def _abs_paths(operands):
    """Pre-normalized paths for all-absolute *operands*, else None."""
    paths = []
    for operand in operands:
        if not operand.startswith("/"):
            return None
        paths.append(normalize(operand, "/"))
    return paths


@_specializer("echo")
def _spec_echo(argv):
    args = argv[1:]
    newline = "\n"
    if args and args[0] == "-n":
        newline = ""
        args = args[1:]
    return _const_result(0, " ".join(args) + newline)


@_specializer("true")
def _spec_true(argv):
    return _const_result(0, "")


@_specializer("false")
def _spec_false(argv):
    return _const_result(1, "")


@_specializer(":")
def _spec_colon(argv):
    return _const_result(0, "")


@_specializer("wait")
def _spec_wait(argv):
    return _const_result(0, "")


@_specializer("set")
def _spec_set(argv):
    if any(arg not in ("-e", "+e") for arg in argv[1:]):
        return None
    # The last -e/+e wins; replay just the final state.
    errexit = None
    for arg in argv[1:]:
        errexit = arg == "-e"
    if errexit is None:
        return _const_result(0, "")

    def run_set(interp, env):
        env.errexit = errexit
        return 0, ""
    return run_set


@_specializer("sleep")
def _spec_sleep(argv):
    if len(argv) != 2:
        return None
    try:
        seconds = float(argv[1])
    except ValueError:
        return None

    def run_sleep(interp, env):
        interp.slept_seconds += seconds
        return 0, ""
    return run_sleep


@_specializer("killall")
def _spec_killall(argv):
    if len(argv) != 2:
        return None
    name = argv[1]
    failure = f"killall: no process found: {name}\n"

    def run_killall(interp, env):
        if not env.host.kill_by_name(name):
            return 1, failure
        return 0, ""
    return run_killall


@_specializer("test")
def _spec_test(argv):
    return _compile_test(argv[1:])


@_specializer("[")
def _spec_bracket(argv):
    if not argv or argv[-1] != "]":
        return None
    return _compile_test(argv[1:-1])


def _compile_test(args):
    """A closure for the constant shapes of ``test``; None otherwise."""
    if args and args[0] == "!":
        inner = _compile_test(args[1:])
        if inner is None:
            return None

        def run_not(interp, env):
            status, _out = inner(interp, env)
            return (1 if status == 0 else 0), ""
        return run_not
    if len(args) == 2:
        flag, operand = args
        if flag in ("-f", "-d", "-e"):
            if not operand.startswith("/"):
                return None
            path = normalize(operand, "/")
            probe = {"-f": "is_file", "-d": "is_dir", "-e": "exists"}[flag]

            def run_probe(interp, env):
                return (0 if getattr(env.host.fs, probe)(path) else 1), ""
            return run_probe
        if flag == "-n":
            return _const_result(0 if operand != "" else 1, "")
        if flag == "-z":
            return _const_result(0 if operand == "" else 1, "")
        return None
    if len(args) == 3:
        left, operator, right = args
        if operator == "=":
            return _const_result(0 if left == right else 1, "")
        if operator == "!=":
            return _const_result(0 if left != right else 1, "")
        return None  # numeric comparisons are rare; keep the oracle path
    if len(args) == 1:
        return _const_result(0 if args[0] != "" else 1, "")
    return None


@_specializer("mkdir")
def _spec_mkdir(argv):
    flags, operands = _flags(argv, "p")
    if not operands:
        return None
    paths = _abs_paths(operands)
    if paths is None:
        return None
    parents = "p" in flags

    def run_mkdir(interp, env):
        for path in paths:
            try:
                env.host.fs.mkdir(path, parents=parents)
            except ClusterError as error:
                return 1, f"mkdir: {error}\n"
        return 0, ""
    return run_mkdir


@_specializer("rm")
def _spec_rm(argv):
    flags, operands = _flags(argv, "rf")
    if not operands:
        return None
    pairs = _abs_paths(operands)
    if pairs is None:
        return None
    force = "f" in flags
    recursive = "r" in flags
    targets = tuple(zip(operands, pairs))

    def run_rm(interp, env):
        fs = env.host.fs
        for operand, path in targets:
            if not fs.exists(path):
                if force:
                    continue
                return 1, f"rm: no such file or directory: {operand}\n"
            fs.remove(path, recursive=recursive)
        return 0, ""
    return run_rm


@_specializer("cat")
def _spec_cat(argv):
    if len(argv) < 2:
        return None
    paths = _abs_paths(argv[1:])
    if paths is None:
        return None
    targets = tuple(zip(argv[1:], paths))

    def run_cat(interp, env):
        fs = env.host.fs
        chunks = []
        for operand, path in targets:
            if not fs.is_file(path):
                return 1, f"cat: no such file: {operand}\n"
            chunks.append(fs.read(path))
        return 0, "".join(chunks)
    return run_cat


@_specializer("tar")
def _spec_tar(argv):
    """Pre-parse ``tar -xzf archive -C dest`` (the only supported form)."""
    args = argv[1:]
    mode = None
    archive = None
    dest = None
    index = 0
    while index < len(args):
        arg = args[index]
        if arg.startswith("-") and "f" in arg:
            mode = "x" if "x" in arg else ("c" if "c" in arg else None)
            index += 1
            if index >= len(args):
                return None
            archive = args[index]
        elif arg == "-C":
            index += 1
            if index >= len(args):
                return None
            if not args[index].startswith("/"):
                return None
            dest = normalize(args[index], "/")
        else:
            return None
        index += 1
    if mode != "x" or archive is None or dest is None:
        return None
    if not archive.startswith("/"):
        return None
    archive_path = normalize(archive, "/")
    missing = f"tar: no such archive: {archive}\n"

    def run_tar(interp, env):
        fs = env.host.fs
        if not fs.is_file(archive_path):
            return 1, missing
        try:
            plan = extraction_plan(fs.read(archive_path), dest)
        except ClusterError as error:
            return 1, f"tar: {error}\n"
        fs.mkdir(dest, parents=True)
        fs.write_many(plan)
        return 0, ""
    return run_tar


@_specializer("scp")
def _spec_scp(argv):
    flags, operands = _flags(argv, "r")
    if len(operands) != 2:
        return None

    def pre(spec):
        # Mirrors _split_remote: (remote host name | None, path); the
        # local relative case needs env.cwd, so decline it.
        if ":" in spec and not spec.startswith("/"):
            host_name, path = spec.split(":", 1)
            return host_name, normalize(path, "/")
        if not spec.startswith("/"):
            raise CommandError("scp: relative local path")
        return None, normalize(spec, "/")

    src_host_name, src_path = pre(operands[0])
    dst_host_name, dst_path = pre(operands[1])
    need_r = "r" not in flags
    dir_error = f"scp: -r required for directory {operands[0]}\n"

    def run_scp(interp, env):
        network = interp.network
        src_host = (env.host if src_host_name is None
                    else network.host(src_host_name))
        dst_host = (env.host if dst_host_name is None
                    else network.host(dst_host_name))
        if need_r and src_host is env.host \
                and env.host.fs.is_dir(src_path):
            return 1, dir_error
        try:
            network.transfer(src_host, src_path, dst_host, dst_path)
        except ClusterError as error:
            return 1, f"scp: {error}\n"
        return 0, ""
    return run_scp


class _RemoteEnv:
    """Just enough environment for a fused single-command ssh remote.

    Const-specialized invokes touch only ``env.host`` (and ``errexit``
    for ``set``); a full :class:`ShellEnvironment` per remote command
    would be the single largest cost of a fused ssh call.
    """

    __slots__ = ("host", "errexit")

    def __init__(self, host):
        self.host = host
        self.errexit = False


def _fused_remote(command_text, script_label):
    """``(invoke, command_str)`` when the remote text is one foreground
    constant simple command with a specialized invoke; None otherwise.

    Such a remote runs without the full script ceremony (fresh
    environment, depth bookkeeping, output buffer): a single
    non-nesting command cannot observe any of it.  ``bash``/``sh``/
    ``ssh`` remotes are excluded — they re-enter script execution,
    where depth and tracing spans are observable.
    """
    script = parse(command_text, script_label)
    if len(script.statements) != 1:
        return None
    node = script.statements[0]
    if not isinstance(node, SimpleCommand) or node.assignments \
            or node.background or node.redirect is not None:
        return None
    if not all(_is_literal(parts) for parts in node.words):
        return None
    const_argv = tuple(field for parts in node.words
                       for field in expand_word(parts, None))
    if not const_argv or const_argv[0] in ("bash", "sh", "ssh"):
        return None
    specializer = _SPECIALIZERS.get(const_argv[0])
    if specializer is None or const_argv[0] not in REGISTRY:
        return None
    try:
        invoke = specializer(const_argv)
    except ReproError:
        return None
    if invoke is None:
        return None
    return invoke, " ".join(const_argv)


@_specializer("ssh")
def _spec_ssh(argv):
    args = argv[1:]
    while args and args[0] in ("-q", "-n", "-T"):
        args = args[1:]
    if len(args) < 2:
        return None
    host_name = args[0]
    command_text = " ".join(args[1:])
    script_label = f"ssh:{host_name}"
    refused_prefix = f"ssh: connect to host {host_name}: connection refused"

    try:
        fused = _fused_remote(command_text, script_label)
    except ShellError:
        # The remote text does not parse; the interpreter surfaces that
        # only when (and if) the ssh line actually executes — delegate.
        return None

    if fused is not None:
        inner_invoke, inner_command = fused
        from repro.shellvm.interpreter import LogEntry

        def run_ssh_fused(interp, env):
            host = interp.network.host(host_name)
            if host.crashed:
                return 255, f"{refused_prefix} ({host.crash_reason})\n"
            try:
                status, out = inner_invoke(interp, _RemoteEnv(host))
            except CommandError as error:
                status, out = 127, f"{error}\n"
            interp.log.append(LogEntry(host_name, inner_command, status))
            return status, out
        return run_ssh_fused

    program = compile_text(command_text, script_label)

    def run_ssh(interp, env):
        host = interp.network.host(host_name)
        if host.crashed:
            return 255, f"{refused_prefix} ({host.crash_reason})\n"
        remote_env = ShellEnvironment(host=host, script=script_label)
        return interp._run_compiled(program, remote_env)
    return run_ssh


@_specializer("bash")
def _spec_bash(argv):
    return _spec_run_script(argv)


@_specializer("sh")
def _spec_sh(argv):
    return _spec_run_script(argv)


def _spec_run_script(argv):
    if len(argv) < 2 or not argv[1].startswith("/"):
        return None
    path = normalize(argv[1], "/")
    script_args = argv[2:]

    def run_script(interp, env):
        return interp.run_script_file(env.host, path, args=script_args,
                                      parent_env=env)
    return run_script
