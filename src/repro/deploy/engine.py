"""Deployment engine: executes generated bundles on the virtual cluster.

The engine is deliberately thin — all deployment knowledge lives in the
generated scripts.  It installs a bundle onto the control host, runs
``run.sh`` through the shell interpreter, recovers the deployed system
from cluster state, verifies it, and offers ``collect``/``teardown``
phases (also script-driven) for the experiment runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.deploy.state import extract_deployed_system
from repro.deploy.verify import verify_deployment
from repro.errors import DeployError, ReproError, ShellError
from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import as_tracer
from repro.shellvm import ShellInterpreter


@dataclass
class Deployment:
    """A live deployment plus the artifacts and hosts behind it."""

    bundle: object
    allocation: object
    system: object               # DeployedSystem
    transcript: str              # run.sh output

    def results_dir(self):
        return f"/results/{self.bundle.experiment_id}"


class DeploymentEngine:
    """Runs Mulini bundles against one virtual cluster.

    Construct with keywords (``cluster=``, ``tracer=``).  The tracer
    flows into the shell interpreter, so every generated script this
    engine executes shows up as a ``script`` span.
    """

    def __init__(self, *, cluster=None, tracer=None, faults=None):
        if cluster is None:
            raise DeployError("DeploymentEngine requires cluster=")
        self.cluster = cluster
        self.tracer = as_tracer(tracer)
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.interpreter = ShellInterpreter(cluster.network,
                                            tracer=self.tracer,
                                            faults=self.faults)

    def deploy(self, bundle, allocation, experiment=None, topology=None,
               workload=None, write_ratio=None):
        """Install and execute *bundle*; returns a :class:`Deployment`.

        When the experiment point is supplied the deployment is verified
        against it before returning (the Elba staging check).
        """
        control = allocation.control
        run_path = bundle.install_to(control)
        # Fault point: an ``archive-corrupt`` armed for this trial
        # damages a package tarball in the control host's repository
        # right before run.sh unpacks it (repaired before any retry).
        self.faults.fire("deploy.install", control=control, bundle=bundle)
        try:
            status, output = self.interpreter.run_script_file(control,
                                                              run_path)
        except ShellError as error:
            # set -e aborts surface as exceptions; a deployment that
            # stopped mid-script is a deployment failure.
            raise DeployError(
                f"run.sh aborted for {bundle.experiment_id}: {error}"
            )
        if status != 0:
            raise DeployError(
                f"run.sh exited with status {status} for "
                f"{bundle.experiment_id}:\n{output}"
            )
        hosts = [allocation.client] + allocation.all_server_hosts()
        system = extract_deployed_system(hosts)
        self.tracer.annotate(transcript_lines=output.count("\n"))
        if experiment is not None:
            self.verify(system, experiment, topology, workload,
                        write_ratio)
        return Deployment(bundle=bundle, allocation=allocation,
                          system=system, transcript=output)

    def verify(self, system, experiment, topology, workload, write_ratio):
        """Verify a recovered system against its experiment point."""
        verify_deployment(system, experiment, topology, workload,
                          write_ratio)

    def collect(self, deployment):
        """Run the generated collect.sh; returns the results directory."""
        self._run_phase(deployment, "collect.sh")
        return deployment.results_dir()

    def teardown(self, deployment):
        """Run the generated teardown.sh, stopping every process."""
        self._run_phase(deployment, "teardown.sh")
        leftovers = []
        for host in deployment.allocation.all_server_hosts():
            leftovers.extend(host.live_processes())
        for process in deployment.allocation.client.live_processes():
            leftovers.append(process)
        if leftovers:
            raise DeployError(
                "teardown left processes running: "
                + ", ".join(f"{p.host}:{p.name}" for p in leftovers)
            )

    def cleanup_failed(self, bundle, allocation):
        """Best-effort cleanup after a failed trial attempt.

        The pool wipes the server hosts on release, but the shared
        client and control hosts keep their state between trials, so a
        failed attempt must not leave half-started processes or a
        half-collected results directory behind for the retry (or the
        next trial) to trip over.  Never raises: cleanup of an
        already-broken attempt must not mask the original failure, and
        running it twice is a no-op.
        """
        for host in (allocation.client, allocation.control):
            if getattr(host, "crashed", False):
                continue
            for process in host.live_processes():
                host.kill(process.pid, strict=False)
        results_dir = f"/results/{bundle.experiment_id}"
        try:
            if allocation.control.fs.exists(results_dir):
                allocation.control.fs.remove(results_dir, recursive=True)
        except ReproError:
            pass

    def _run_phase(self, deployment, script_name):
        control = deployment.allocation.control
        path = deployment.bundle.path_of(script_name)
        if not control.fs.is_file(path):
            raise DeployError(f"bundle lacks {script_name}")
        status, output = self.interpreter.run_script_file(control, path)
        if status != 0:
            raise DeployError(
                f"{script_name} exited with status {status}:\n{output}"
            )
        return output
