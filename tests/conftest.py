"""Shared test fixtures and factories."""

from repro.deploy.state import (
    AppServer,
    DatabaseBackend,
    DbController,
    DeployedSystem,
    MonitorProcess,
    WebServer,
)
from repro.generator.workload import DriverParameters
from repro.spec import get_package, get_platform
from repro.vcluster import VirtualHost


def make_driver(benchmark="rubis", users=100, write_ratio=0.15,
                think_time=7.0, timeout=8.0, warmup=10.0, run=60.0,
                cooldown=10.0, seed=42, mix=None, topology_label="1-1-1",
                target_host="node-1", target_port=80):
    """A DriverParameters object as the deployed config would yield."""
    if mix is None:
        if benchmark == "rubis":
            mix = "browsing" if write_ratio == 0 else "bidding"
        else:
            mix = "readonly" if write_ratio == 0 else "submission"
    return DriverParameters(
        benchmark=benchmark, mix=mix, users=users, write_ratio=write_ratio,
        think_time=think_time, timeout=timeout, warmup=warmup, run=run,
        cooldown=cooldown, seed=seed, topology_label=topology_label,
        target_host=target_host, target_port=target_port,
        log_path="/var/log/driver/requests.log",
    )


def make_system(webs=1, apps=1, dbs=1, driver=None, app_server="jonas",
                platform="emulab", db_node_type=None, monitor_interval=1.0):
    """A synthetic DeployedSystem with real VirtualHost objects.

    Bypasses script generation/deployment for tests that exercise the
    simulation layer alone; the full pipeline is covered by
    test_deploy.py and test_experiments.py.
    """
    plat = get_platform(platform)
    driver = driver or make_driver()
    counter = [0]

    def host(node_type_name=None):
        counter[0] += 1
        node_type = plat.node_type(node_type_name)
        return VirtualHost(f"node-{counter[0]}", node_type)

    app_package = get_package(app_server)
    web_servers = []
    app_servers = []
    for _ in range(apps):
        app_servers.append(AppServer(
            host=host(), servlet_port=8009, servlet_threads=300,
            server_name=app_server, worker_pool=app_package.worker_pool,
            efficiency=app_package.efficiency,
        ))
    db_backends = []
    backend_specs = []
    for index in range(dbs):
        backend_host = host(db_node_type)
        db_backends.append(DatabaseBackend(
            host=backend_host, port=3306, max_connections=500,
        ))
        backend_specs.append({"name": f"db{index + 1}",
                              "host": backend_host.name, "port": 3306})
    controller = DbController(host=db_backends[0].host, port=25322,
                              database=driver.benchmark,
                              backend_specs=backend_specs)
    for _ in range(webs):
        web_servers.append(WebServer(
            host=host(), port=80, max_clients=512,
            workers=[{"name": f"app{i + 1}",
                      "host": server.host.name, "port": 8009}
                     for i, server in enumerate(app_servers)],
        ))
    client_host = host()
    monitors = [
        MonitorProcess(host=h, interval=monitor_interval,
                       output_path=f"/var/log/sysmon/{h.name}.dat",
                       metrics=("cpu", "memory", "disk", "network"))
        for h in ([w.host for w in web_servers]
                  + [a.host for a in app_servers]
                  + [d.host for d in db_backends]
                  + [client_host])
    ]
    return DeployedSystem(
        driver=driver,
        client_host=client_host,
        web_servers=web_servers,
        app_servers=app_servers,
        controller=controller,
        db_backends=db_backends,
        monitors=monitors,
    )


def assert_declared_schema(database):
    """The file behind *database* has exactly the declared schema:
    every table's ``PRAGMA table_info`` matches its declared columns
    and the ``trials`` UNIQUE key is the declared trial identity."""
    from repro.experiments.trial import TrialKey
    from repro.results.database import _TABLE_COLUMNS

    db = database._db
    tables = {name for (name,) in db.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' "
        "AND name NOT LIKE 'sqlite_%'")}
    assert tables == set(_TABLE_COLUMNS)
    for table, columns in _TABLE_COLUMNS.items():
        actual = tuple(row[1] for row in
                       db.execute(f"PRAGMA table_info({table})"))
        assert actual == columns, table
    (unique,) = [row[1] for row in db.execute("PRAGMA index_list(trials)")
                 if row[3] == "u"]
    key = tuple(row[2] for row in
                db.execute(f"PRAGMA index_info({unique})"))
    assert key == TrialKey._fields
