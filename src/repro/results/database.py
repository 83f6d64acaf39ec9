"""SQLite-backed observation database.

"After each set of experiments, performance data collected from the
participating hosts is put into a database for analysis" (Section II).
Every trial lands here; the characterization and capacity-planning APIs
and the figure/table reproductions all query this database rather than
holding results in ad-hoc lists.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager

from repro.errors import ResultsError
from repro.experiments.trial import AttemptFailure, TrialKey, TrialResult
from repro.faults.retry import GAVE_UP, QUARANTINED
from repro.monitoring.metrics import TrialMetrics
from repro.obs.tracer import SpanRecord

# The trials table's own DDL is split out because schema migrations
# must recreate it verbatim (SQLite cannot ALTER a UNIQUE constraint in
# place).  Columns added after the seed schema (``fidelity``, then the
# scenario plane's ``backlog``/``scenario``) are deliberately the LAST
# columns, in the order their planes landed, so a migrated older
# database and a freshly created one share the same column order —
# dump_rows comparisons stay meaningful across both.  The UNIQUE key is
# the trial identity, declared once as :class:`TrialKey`.
_TRIALS_TABLE = f"""
CREATE TABLE IF NOT EXISTS trials (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_name TEXT NOT NULL,
    benchmark TEXT NOT NULL,
    platform TEXT NOT NULL,
    topology TEXT NOT NULL,
    workload INTEGER NOT NULL,
    write_ratio REAL NOT NULL,
    seed INTEGER NOT NULL,
    status TEXT NOT NULL,
    completed_requests INTEGER NOT NULL,
    errors INTEGER NOT NULL,
    timeouts INTEGER NOT NULL,
    rejections INTEGER NOT NULL,
    duration_s REAL NOT NULL,
    throughput REAL NOT NULL,
    mean_response_s REAL NOT NULL,
    p50_response_s REAL NOT NULL,
    p90_response_s REAL NOT NULL,
    p99_response_s REAL NOT NULL,
    collected_bytes INTEGER NOT NULL,
    script_lines INTEGER NOT NULL,
    config_lines INTEGER NOT NULL,
    generated_files INTEGER NOT NULL,
    machine_count INTEGER NOT NULL,
    fidelity TEXT NOT NULL DEFAULT 'des',
    backlog INTEGER NOT NULL DEFAULT 0,
    scenario TEXT NOT NULL DEFAULT '',
    UNIQUE ({', '.join(TrialKey._fields)})
)
"""

#: Columns appended to ``trials`` after the seed schema, in landing
#: order, with the SQL literal a migrated row takes.  A database from
#: any earlier era is missing a *suffix* of this list — the migration
#: appends exactly the missing defaults.
_TRIAL_SUFFIX = (("fidelity", "'des'"), ("backlog", "0"),
                 ("scenario", "''"))

#: The whole schema, created in one transaction: as separate
#: autocommitted statements a fresh file paid one journal sync per
#: table and index.
_SCHEMA = "BEGIN;\n" + _TRIALS_TABLE + """;
CREATE TABLE IF NOT EXISTS host_cpu (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    host TEXT NOT NULL,
    tier TEXT,
    cpu_percent REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS state_metrics (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    state TEXT NOT NULL,
    count INTEGER NOT NULL,
    errors INTEGER NOT NULL,
    mean_response_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    span_id INTEGER NOT NULL,
    parent_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    start_s REAL NOT NULL,
    duration_s REAL NOT NULL,
    status TEXT NOT NULL,
    attributes TEXT NOT NULL
);
-- The fault plane's failure record: one row per failed attempt (plus
-- one synthetic row per host quarantine).  Deliberately a separate
-- table so the observation tables (trials/host_cpu/state_metrics)
-- stay byte-identical between a fault-free campaign and one that
-- recovered from transient faults.
CREATE TABLE IF NOT EXISTS failures (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    attempt INTEGER NOT NULL,
    phase TEXT NOT NULL,
    cause TEXT NOT NULL,
    error_type TEXT NOT NULL,
    transient INTEGER NOT NULL,
    resolution TEXT NOT NULL,
    fault_kind TEXT,
    host TEXT,
    backoff_s REAL NOT NULL DEFAULT 0.0
);
-- Campaign identity for checkpoint/resume: the TBL/MOF text and knobs
-- that produced this database, so `repro resume <db>` can rebuild the
-- campaign and run exactly the missing trials.
CREATE TABLE IF NOT EXISTS campaign_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
-- The planner plane's decision log: one row per planner decision, in
-- (round, seq) order.  Decisions are pure functions of observations,
-- so resuming an adaptive campaign replays the loop and regenerates
-- exactly these rows — the log is cleared and rewritten on every
-- run_adaptive, and byte-compared across worker counts by the tests.
CREATE TABLE IF NOT EXISTS planner_decisions (
    round INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    policy TEXT NOT NULL,
    experiment_name TEXT NOT NULL,
    action TEXT NOT NULL,
    topology TEXT,
    workload INTEGER,
    write_ratio REAL,
    reason TEXT NOT NULL,
    fidelity TEXT NOT NULL DEFAULT 'des',
    PRIMARY KEY (round, seq)
);
-- The remedy plane's log: one row per remediation-pipeline event
-- (diagnosis, candidate, verdict, apply, outcome) in (round, seq)
-- order.  Like planner_decisions, the rows are pure functions of
-- recorded observations: `repro heal` clears and rewrites the log
-- wholesale on every run, so a killed-and-resumed heal reproduces
-- exactly the rows an uninterrupted one writes.  ``detail`` is the
-- event's canonical JSON (sorted keys) and ``accepted`` marks the
-- winning candidate / applied patch rows.
CREATE TABLE IF NOT EXISTS remediations (
    round INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    stage TEXT NOT NULL,
    kind TEXT NOT NULL,
    target TEXT,
    experiment_name TEXT NOT NULL,
    detail TEXT NOT NULL,
    score REAL,
    accepted INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (round, seq)
);
-- The provenance plane: one run card per campaign run — the canonical
-- JSON record of what produced this database (command, environment,
-- resolved parameters, input and table digests, cache stats).  Where
-- campaign_meta stores the inputs a resume needs verbatim, run_cards
-- stores the observation of each run that wrote here, so the database
-- is a self-describing reproducibility bundle.
CREATE TABLE IF NOT EXISTS run_cards (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    created TEXT NOT NULL,
    card TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_state_metrics_trial
    ON state_metrics (trial_id);
CREATE INDEX IF NOT EXISTS idx_trials_sweep
    ON trials (experiment_name, topology, workload, write_ratio);
CREATE INDEX IF NOT EXISTS idx_host_cpu_trial ON host_cpu (trial_id);
CREATE INDEX IF NOT EXISTS idx_spans_trial ON spans (trial_id);
CREATE INDEX IF NOT EXISTS idx_failures_trial ON failures (trial_id);
COMMIT;
"""


#: Every table's columns, in DDL order.  This is the one statement of
#: the schema the SQL below is built from; the tests hold it against
#: ``PRAGMA table_info`` of fresh and migrated files alike.
_TRIAL_COLUMNS = (
    "experiment_name", "benchmark", "platform", "topology", "workload",
    "write_ratio", "seed", "status", "completed_requests", "errors",
    "timeouts", "rejections", "duration_s", "throughput",
    "mean_response_s", "p50_response_s", "p90_response_s",
    "p99_response_s", "collected_bytes", "script_lines", "config_lines",
    "generated_files", "machine_count", "fidelity", "backlog",
    "scenario",
)

#: Child tables hanging off ``trials.id`` (after their ``trial_id``).
_CHILD_COLUMNS = {
    "host_cpu": ("host", "tier", "cpu_percent"),
    "state_metrics": ("state", "count", "errors", "mean_response_s"),
    "spans": ("span_id", "parent_id", "name", "start_s", "duration_s",
              "status", "attributes"),
    "failures": ("attempt", "phase", "cause", "error_type", "transient",
                 "resolution", "fault_kind", "host", "backoff_s"),
}

#: The (round, seq)-keyed logs: the planner's decisions and the remedy
#: plane's remediation events.
_LOG_COLUMNS = {
    "planner_decisions": ("round", "seq", "policy", "experiment_name",
                          "action", "topology", "workload",
                          "write_ratio", "reason", "fidelity"),
    "remediations": ("round", "seq", "stage", "kind", "target",
                     "experiment_name", "detail", "score", "accepted"),
}

_TABLE_COLUMNS = {
    "trials": ("id",) + _TRIAL_COLUMNS,
    **{table: ("trial_id",) + columns
       for table, columns in _CHILD_COLUMNS.items()},
    "campaign_meta": ("key", "value"),
    **_LOG_COLUMNS,
    "run_cards": ("id", "created", "card"),
}


def _insert_sql(table, columns, verb="INSERT"):
    return (f"{verb} INTO {table} ({', '.join(columns)}) "
            f"VALUES ({','.join('?' * len(columns))})")


def _select_sql(table, columns, tail=""):
    return f"SELECT {', '.join(columns)} FROM {table} {tail}".rstrip()


_INSERT_TRIAL = _insert_sql("trials", _TRIAL_COLUMNS)
_SELECT_TRIALS = _select_sql("trials", _TABLE_COLUMNS["trials"])
_SELECT_KEYS = _select_sql("trials", TrialKey._fields, "ORDER BY id")
_FIND_TRIAL = _select_sql(
    "trials", ("id",),
    "WHERE " + " AND ".join(f"{name} = ?" for name in TrialKey._fields))
_INSERT_CHILD = {table: _insert_sql(table, ("trial_id",) + columns)
                 for table, columns in _CHILD_COLUMNS.items()}
_SELECT_CHILD = {table: _select_sql(table, columns,
                                    "WHERE trial_id = ? ORDER BY rowid")
                 for table, columns in _CHILD_COLUMNS.items()}
_INSERT_LOG = {table: _insert_sql(table, columns, "INSERT OR REPLACE")
               for table, columns in _LOG_COLUMNS.items()}
_SELECT_LOG = {table: _select_sql(table, columns, "ORDER BY round, seq")
               for table, columns in _LOG_COLUMNS.items()}
_SELECT_SPANS = _select_sql("spans", _CHILD_COLUMNS["spans"],
                            "WHERE trial_id = ? ORDER BY span_id")
_SET_META = _insert_sql("campaign_meta", _TABLE_COLUMNS["campaign_meta"],
                        "INSERT OR REPLACE")
_INSERT_RUN_CARD = _insert_sql("run_cards", _TABLE_COLUMNS["run_cards"][1:])


class ResultsDatabase:
    """Observation store with insert/query/replace semantics.

    Safe for concurrent use by scheduler workers: one connection is
    shared (``check_same_thread=False``) behind a single writer lock,
    so inserts serialize while keeping the UNIQUE-key replace
    semantics; file-backed databases run in WAL mode so a reader (a
    live report) never blocks the campaign's writer.

    Every handle carries the current schema: opening a file creates
    any missing table and :meth:`_migrate` appends any missing
    ``trials`` column, so readers never guard for an older file's
    shape.
    """

    def __init__(self, path=":memory:"):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.executescript(_SCHEMA)
        self._migrate()

    def _column_names(self, table):
        return [row[1] for row in
                self._conn.execute(f"PRAGMA table_info({table})")]

    def _migrate(self):
        """Bring an older database file up to this schema in place.

        ``CREATE TABLE IF NOT EXISTS`` is a no-op on an existing file,
        so an old database reaches here with its old shape.  The
        decision log just grows a defaulted column; ``trials`` must be
        rebuilt because its UNIQUE key changes — the rename/copy dance
        preserves every row id, so child-table references stay valid.
        Post-seed columns only ever append (:data:`_TRIAL_SUFFIX`), so
        whatever era the file comes from, the missing columns are a
        suffix and one ``SELECT *, <defaults>`` copy fills them: every
        pre-fidelity trial was a DES observation and every pre-scenario
        trial was a plain (closed-loop, dedicated-host) sweep point by
        construction.
        """
        if "fidelity" not in self._column_names("planner_decisions"):
            self._conn.execute(
                "ALTER TABLE planner_decisions ADD COLUMN fidelity "
                "TEXT NOT NULL DEFAULT 'des'")
            self._conn.commit()
        present = self._column_names("trials")
        missing = [(name, default) for name, default in _TRIAL_SUFFIX
                   if name not in present]
        if missing:
            defaults = ", ".join(default for _name, default in missing)
            # legacy_alter_table keeps the child tables' REFERENCES
            # pointing at "trials" through the rename, so they bind to
            # the rebuilt table rather than following trials_legacy.
            self._conn.execute("PRAGMA foreign_keys = OFF")
            self._conn.execute("PRAGMA legacy_alter_table = ON")
            try:
                self._conn.execute(
                    "ALTER TABLE trials RENAME TO trials_legacy")
                self._conn.execute(_TRIALS_TABLE)
                self._conn.execute(
                    f"INSERT INTO trials SELECT *, {defaults} "
                    f"FROM trials_legacy")
                self._conn.execute("DROP TABLE trials_legacy")
                # The rename carried the trials indexes off to the
                # legacy table and the drop took them with it.
                self._conn.executescript(_SCHEMA)
            finally:
                self._conn.execute("PRAGMA legacy_alter_table = OFF")
                self._conn.execute("PRAGMA foreign_keys = ON")
            self._conn.commit()

    @property
    def _db(self):
        if self._conn is None:
            raise ResultsError(
                f"results database {self.path!r} is closed"
            )
        return self._conn

    def close(self):
        """Close the connection; idempotent."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    @contextmanager
    def _transaction(self):
        """Hold the writer lock over a block of statements and commit
        them together; any error rolls the whole block back."""
        with self._lock:
            try:
                yield
            except Exception:
                self._db.rollback()
                raise
            self._db.commit()

    def _count(self, table):
        with self._lock:
            return self._db.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def _clear(self, table):
        with self._lock:
            self._db.execute(f"DELETE FROM {table}")
            self._db.commit()

    # -- writes -----------------------------------------------------------

    def insert(self, result, replace=False):
        """Store a :class:`TrialResult`; returns its row id.

        Thread-safe: the whole multi-statement insert (trial row, host
        CPU rows, per-state rows, commit) happens under the writer
        lock, so concurrent workers never interleave half-inserted
        trials.
        """
        with self._transaction():
            return self._insert_locked(result, replace)

    def _insert_locked(self, result, replace):
        """Write one trial and its children; caller commits."""
        metrics = result.metrics
        if replace:
            # Replace by natural key *before* the insert.  The old
            # INSERT OR REPLACE path deleted children keyed on the new
            # row's id — a no-op that orphaned the replaced trial's
            # children whenever foreign-key enforcement was off (which
            # is SQLite's per-connection default; our own connections
            # enable it, but the database file must stay consistent
            # for any reader).
            row = self._db.execute(_FIND_TRIAL,
                                   result.trial_key()).fetchone()
            if row is not None:
                old_id = row[0]
                for table in _CHILD_COLUMNS:
                    self._db.execute(
                        f"DELETE FROM {table} WHERE trial_id = ?",
                        (old_id,))
                self._db.execute("DELETE FROM trials WHERE id = ?",
                                 (old_id,))
        try:
            # Values in _TRIAL_COLUMNS order.
            cursor = self._db.execute(_INSERT_TRIAL, (
                result.experiment_name, result.benchmark,
                result.platform, result.topology_label,
                result.workload, result.write_ratio, result.seed,
                result.status, metrics.completed, metrics.errors,
                metrics.timeouts, metrics.rejections,
                metrics.duration_s, metrics.throughput,
                metrics.mean_response_s, metrics.p50_response_s,
                metrics.p90_response_s, metrics.p99_response_s,
                result.collected_bytes, result.script_lines,
                result.config_lines, result.generated_files,
                result.machine_count, result.fidelity, metrics.backlog,
                result.scenario,
            ))
        except sqlite3.IntegrityError as error:
            # Only the UNIQUE key makes a duplicate; any other refused
            # constraint (a NaN metric fails NOT NULL) is named as is.
            what = "duplicate trial" if "UNIQUE" in str(error) \
                else "trial refused"
            raise ResultsError(
                f"{what} {result.experiment_name}/"
                f"{result.topology_label}/u{result.workload}: {error}"
            ) from error
        trial_id = cursor.lastrowid
        self._db.executemany(
            _INSERT_CHILD["host_cpu"],
            [
                (trial_id, host, result.tier_of_host.get(host), cpu)
                for host, cpu in sorted(result.host_cpu.items())
            ],
        )
        self._db.executemany(
            _INSERT_CHILD["state_metrics"],
            [
                (trial_id, state, stats["count"], stats["errors"],
                 stats["mean_response_s"])
                for state, stats in sorted(result.per_state.items())
            ],
        )
        if result.spans:
            self._db.executemany(
                _INSERT_CHILD["spans"],
                [
                    (trial_id, span.span_id, span.parent_id, span.name,
                     span.start_s, span.duration_s, span.status,
                     span.attributes_json())
                    for span in result.spans
                ],
            )
        if result.failures:
            self._db.executemany(
                _INSERT_CHILD["failures"],
                [
                    (trial_id, f.attempt, f.phase, f.cause, f.error_type,
                     int(f.transient), f.resolution, f.fault_kind,
                     f.host, f.backoff_s)
                    for f in result.failures
                ],
            )
        return trial_id

    def insert_many(self, results, replace=frozenset()):
        """Store many :class:`TrialResult`\\ s in **one** transaction.

        Every trial's statements run back-to-back and a single commit
        (one fsync on file-backed databases) covers the whole batch —
        the campaign hot path.  Row ids and contents are exactly what
        the same sequence of :meth:`insert` calls would produce; on
        error the entire batch rolls back, so the database never holds
        a partial batch.

        *replace* is a set of :class:`TrialKey`\\ s, the keys a campaign
        found stored when it started: only a result whose key is in it
        looks up and replaces the stored trial, and the key then leaves
        the set, so a key stored twice in one campaign is a duplicate
        (:class:`ResultsError`), never a silent replace.
        """
        ids, replaced = [], set()
        with self._transaction():
            for result in results:
                key = result.trial_key() if replace else None
                stored = key in replace and key not in replaced
                if stored:
                    replaced.add(key)
                ids.append(self._insert_locked(result, stored))
        replace -= replaced
        return ids

    def integrity_check(self):
        """Scan for child rows orphaned from ``trials`` — the damage
        the replace-path bug used to leave behind.  Returns a list of
        problem descriptions (empty when consistent).  Works without
        foreign-key enforcement, so it validates the file itself, not
        this connection's pragma state.
        """
        problems = []
        with self._lock:
            for table in _CHILD_COLUMNS:
                count = self._db.execute(
                    f"SELECT COUNT(*) FROM {table} c WHERE NOT EXISTS "
                    f"(SELECT 1 FROM trials t WHERE t.id = c.trial_id)"
                ).fetchone()[0]
                if count:
                    problems.append(
                        f"{table}: {count} row(s) orphaned from trials"
                    )
        return problems

    # -- reads -------------------------------------------------------------

    def query(self, experiment_name=None, benchmark=None, topology=None,
              workload=None, write_ratio=None, status=None,
              fidelity=None, scenario=None):
        """Fetch trials matching all given filters, as TrialResults.

        ``scenario=""`` selects plain (non-scenario) sweep trials;
        ``scenario=None`` (the default) applies no scenario filter.
        """
        clauses = []
        params = []
        for column, value in (
                ("experiment_name", experiment_name),
                ("benchmark", benchmark),
                ("topology", topology),
                ("workload", workload),
                ("status", status),
                ("fidelity", fidelity),
                ("scenario", scenario)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if write_ratio is not None:
            clauses.append("ABS(write_ratio - ?) < 1e-9")
            params.append(write_ratio)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        columns = _TABLE_COLUMNS["trials"]
        with self._lock:
            rows = self._db.execute(
                f"{_SELECT_TRIALS} {where} "
                f"ORDER BY topology, write_ratio, workload",
                params,
            ).fetchall()
            return [self._to_result(dict(zip(columns, row)))
                    for row in rows]

    def count(self):
        return self._count("trials")

    def experiments(self):
        with self._lock:
            rows = self._db.execute(
                "SELECT DISTINCT experiment_name FROM trials ORDER BY 1"
            ).fetchall()
        return [row[0] for row in rows]

    def topologies(self, experiment_name=None):
        with self._lock:
            if experiment_name is None:
                rows = self._db.execute(
                    "SELECT DISTINCT topology FROM trials "
                    "ORDER BY 1").fetchall()
            else:
                rows = self._db.execute(
                    "SELECT DISTINCT topology FROM trials "
                    "WHERE experiment_name = ? ORDER BY 1",
                    (experiment_name,)).fetchall()
        return [row[0] for row in rows]

    def total_collected_bytes(self, experiment_name=None):
        """Table 3's collected-data accounting, from the database."""
        with self._lock:
            if experiment_name is None:
                row = self._db.execute(
                    "SELECT SUM(collected_bytes) FROM trials").fetchone()
            else:
                row = self._db.execute(
                    "SELECT SUM(collected_bytes) FROM trials "
                    "WHERE experiment_name = ?",
                    (experiment_name,)).fetchone()
        return row[0] or 0

    def trial_keys(self):
        """The :class:`TrialKey` of every stored trial — the campaign's
        checkpoint: a resume skips exactly these."""
        with self._lock:
            rows = self._db.execute(_SELECT_KEYS).fetchall()
        return [TrialKey._make(row) for row in rows]

    def dump_rows(self, table):
        """Every row of *table*, ordered by rowid — the raw comparison
        surface the determinism tests diff (tracing must never change
        what lands in the observation tables)."""
        if table not in _TABLE_COLUMNS:
            raise ResultsError(f"unknown table {table!r}")
        with self._lock:
            return self._db.execute(
                f"SELECT * FROM {table} ORDER BY rowid").fetchall()

    # -- the (round, seq) logs: planner decisions and remediations ----------

    def _write_log(self, table, rows):
        """Store log tuples (in :data:`_LOG_COLUMNS` order) in one
        transaction.  ``INSERT OR REPLACE`` keyed on ``(round, seq)``
        makes re-logging a replayed round idempotent."""
        rows = list(rows)
        if rows:
            with self._transaction():
                self._db.executemany(_INSERT_LOG[table], rows)

    def _read_log(self, table):
        """Every row of a log as a dict, in (round, seq) order."""
        with self._lock:
            rows = self._db.execute(_SELECT_LOG[table]).fetchall()
        return [dict(zip(_LOG_COLUMNS[table], row)) for row in rows]

    def insert_decisions(self, rows):
        """Store planner-decision tuples in one transaction."""
        self._write_log("planner_decisions", rows)

    def clear_planner_decisions(self):
        """Drop the decision log — run_adaptive rewrites it wholesale,
        so a resumed exploration's log matches an uninterrupted one."""
        self._clear("planner_decisions")

    def planner_decisions(self):
        """Every decision as a dict, in (round, seq) order."""
        return self._read_log("planner_decisions")

    def decision_count(self):
        return self._count("planner_decisions")

    def insert_remediations(self, rows):
        """Store remediation tuples in one transaction."""
        self._write_log("remediations", rows)

    def clear_remediations(self):
        """Drop the remediation log — ``repro heal`` rewrites it
        wholesale, so a resumed heal's log matches an uninterrupted
        one."""
        self._clear("remediations")

    def remediations(self):
        """Every remediation event as a dict, in (round, seq) order."""
        return self._read_log("remediations")

    def remediation_count(self):
        return self._count("remediations")

    # -- failures (the fault plane's record) -------------------------------

    def failure_count(self):
        return self._count("failures")

    def failures_for(self, trial_id):
        """Every :class:`AttemptFailure` of one trial, in attempt order."""
        with self._lock:
            rows = self._db.execute(_SELECT_CHILD["failures"],
                                    (trial_id,)).fetchall()
        return [
            AttemptFailure(attempt=attempt, phase=phase, cause=cause,
                           error_type=error_type, transient=bool(transient),
                           resolution=resolution, fault_kind=fault_kind,
                           host=host, backoff_s=backoff_s)
            for (attempt, phase, cause, error_type, transient, resolution,
                 fault_kind, host, backoff_s) in rows
        ]

    def quarantined_hosts(self):
        """Hosts the campaign quarantined, with their failure record."""
        with self._lock:
            rows = self._db.execute(
                "SELECT DISTINCT host, cause FROM failures "
                "WHERE resolution = ? ORDER BY host",
                (QUARANTINED,)).fetchall()
        return {host: cause for host, cause in rows}

    # -- run cards (the provenance plane) ----------------------------------

    def insert_run_card(self, card):
        """Append one run card (a JSON-ready dict) to ``run_cards``.

        The stored text is the canonical serialized form (sorted keys),
        so equal cards store equal bytes.  Returns the card's row id.
        """
        from repro.provenance import canonical_json

        created = card.get("created", "")
        with self._lock:
            cursor = self._db.execute(_INSERT_RUN_CARD,
                                      (created, canonical_json(card)))
            self._db.commit()
            return cursor.lastrowid

    def run_cards(self):
        """Every stored run card as a dict, oldest first."""
        with self._lock:
            rows = self._db.execute(
                "SELECT card FROM run_cards ORDER BY id").fetchall()
        return [json.loads(card) for (card,) in rows]

    def run_card_count(self):
        return self._count("run_cards")

    # -- campaign meta (checkpoint/resume) ---------------------------------

    def set_meta(self, key, value):
        """Store a campaign-identity string under *key*."""
        with self._lock:
            self._db.execute(_SET_META, (key, str(value)))
            self._db.commit()

    def get_meta(self, key, default=None):
        with self._lock:
            row = self._db.execute(
                "SELECT value FROM campaign_meta WHERE key = ?",
                (key,)).fetchone()
        return default if row is None else row[0]

    def meta(self):
        with self._lock:
            rows = self._db.execute(
                "SELECT key, value FROM campaign_meta ORDER BY key"
            ).fetchall()
        return dict(rows)

    # -- spans (the trace plane) -------------------------------------------

    def span_count(self):
        return self._count("spans")

    def spans_for(self, trial_id):
        """All spans of one trial, in span-id (DFS preorder) order."""
        with self._lock:
            rows = self._db.execute(_SELECT_SPANS, (trial_id,)).fetchall()
        return [
            SpanRecord(span_id=sid, parent_id=pid, name=name,
                       start_s=start, duration_s=duration, status=status,
                       attributes=json.loads(attributes))
            for sid, pid, name, start, duration, status, attributes in rows
        ]

    def traced_trials(self, experiment_name=None):
        """Every traced trial with its spans, in trial-row order.

        Returns ``[(trial_info_dict, [SpanRecord, ...]), ...]`` where
        the info dict carries the trial's identity columns and status —
        the join the ``repro trace`` report renders.
        """
        columns = TrialKey._fields + ("status",)
        clause = ""
        params = ()
        if experiment_name is not None:
            clause = "AND t.experiment_name = ?"
            params = (experiment_name,)
        with self._lock:
            rows = self._db.execute(
                f"""SELECT t.id, {', '.join(f't.{c}' for c in columns)}
                    FROM trials t
                    WHERE EXISTS (SELECT 1 FROM spans s
                                  WHERE s.trial_id = t.id) {clause}
                    ORDER BY t.id""", params).fetchall()
        return [({"trial_id": row[0], **dict(zip(columns, row[1:]))},
                 self.spans_for(row[0]))
                for row in rows]

    # -- shards (the campaign service plane) --------------------------------

    def absorb_shard(self, shard, *, meta_prefix=None, round_base=0):
        """Copy every row of *shard* into this database, in shard order.

        The ingest half of :func:`merge_shards`: trials are re-inserted
        in their shard id order (so a single shard absorbed into an
        empty database reproduces its ids exactly), child rows follow
        their trial in the same grouping the campaign ingest wrote
        them, planner decisions and remediations land with their rounds
        offset by *round_base*, and campaign meta is copied under
        *meta_prefix* (``None`` copies keys verbatim).  The whole
        absorption is one transaction.  Returns the number of trials
        absorbed.
        """
        src = shard._db
        with self._transaction(), shard._lock:
            db = self._db
            for key, value in src.execute(
                    "SELECT key, value FROM campaign_meta "
                    "ORDER BY key").fetchall():
                name = key if meta_prefix is None else f"{meta_prefix}{key}"
                db.execute(_SET_META, (name, value))
            trials = src.execute(f"{_SELECT_TRIALS} ORDER BY id").fetchall()
            for row in trials:
                new_id = db.execute(_INSERT_TRIAL, row[1:]).lastrowid
                for table, select in _SELECT_CHILD.items():
                    db.executemany(
                        _INSERT_CHILD[table],
                        [(new_id,) + child for child in
                         src.execute(select, (row[0],)).fetchall()])
            for table, select in _SELECT_LOG.items():
                db.executemany(
                    _INSERT_LOG[table],
                    [(row[0] + round_base,) + row[1:]
                     for row in src.execute(select).fetchall()])
            # Provenance travels with the rows: the merged database
            # records every shard's run card, oldest first, so "what
            # produced these trials" survives the merge.
            db.executemany(_INSERT_RUN_CARD, src.execute(
                "SELECT created, card FROM run_cards ORDER BY id"
            ).fetchall())
        return len(trials)

    def max_planner_round(self):
        """The highest recorded planner round (0 when none)."""
        with self._lock:
            row = self._db.execute(
                "SELECT MAX(round) FROM planner_decisions").fetchone()
        return row[0] or 0

    def _to_result(self, row):
        metrics = TrialMetrics(
            completed=row["completed_requests"],
            errors=row["errors"],
            timeouts=row["timeouts"],
            rejections=row["rejections"],
            duration_s=row["duration_s"],
            throughput=row["throughput"],
            mean_response_s=row["mean_response_s"],
            p50_response_s=row["p50_response_s"],
            p90_response_s=row["p90_response_s"],
            p99_response_s=row["p99_response_s"],
            backlog=row["backlog"],
        )
        cpu_rows = self._db.execute(_SELECT_CHILD["host_cpu"],
                                    (row["id"],)).fetchall()
        state_rows = self._db.execute(_SELECT_CHILD["state_metrics"],
                                      (row["id"],)).fetchall()
        per_state = {
            state: {"count": count, "errors": errors,
                    "mean_response_s": mean_response_s}
            for state, count, errors, mean_response_s in state_rows
        }
        failures = self.failures_for(row["id"])
        # Failed-attempt rows reconstruct the attempt count: a trial
        # that gave up made exactly as many attempts as it failed; a
        # recovered (or clean) trial made one more.
        attempt_rows = [f for f in failures if f.resolution != QUARANTINED]
        gave_up = any(f.resolution == GAVE_UP for f in attempt_rows)
        attempts = len(attempt_rows) + (0 if gave_up else 1)
        return TrialResult(
            experiment_name=row["experiment_name"],
            benchmark=row["benchmark"],
            platform=row["platform"],
            topology_label=row["topology"],
            workload=row["workload"],
            write_ratio=row["write_ratio"],
            seed=row["seed"],
            status=row["status"],
            metrics=metrics,
            host_cpu={host: cpu for host, _tier, cpu in cpu_rows},
            tier_of_host={host: tier for host, tier, _cpu in cpu_rows},
            per_state=per_state,
            collected_bytes=row["collected_bytes"],
            script_lines=row["script_lines"],
            config_lines=row["config_lines"],
            generated_files=row["generated_files"],
            machine_count=row["machine_count"],
            attempts=attempts,
            failures=failures,
            fidelity=row["fidelity"],
            scenario=row["scenario"],
        )


def shard_path(db_path):
    """Where a campaign's write-behind shard lives while it runs.

    The shard sits next to the campaign's final database so a killed
    daemon leaves its checkpoint where a ``resume`` submit will look
    for it — derivable from the final path alone, with no knowledge of
    the campaign id the old daemon assigned.  A finished, verified
    shard is renamed onto the final path; it already is the final
    database.
    """
    return f"{db_path}.shard"


def merge_shards(shards, destination, *, namespace_meta=None):
    """Merge per-campaign shard databases into *destination*, in order.

    *shards* is a sequence of :class:`ResultsDatabase` instances or
    paths; *destination* likewise (a path is created).  Rows are copied
    shard by shard in the given order, trials in shard id order with
    their child rows regrouped exactly as the campaign ingest wrote
    them — so merging one campaign's single shard into a fresh
    destination produces tables byte-identical to the campaign having
    written the destination directly, and :meth:`ResultsDatabase.
    integrity_check` holds on the merged file by construction.  The
    daemon uses that single-shard form to seed a resume's shard from
    an already published database; it publishes a finished shard by
    rename, not by merge.

    Merging *several* campaigns into one combined database namespaces
    their ``campaign_meta`` keys (``<label>:<key>``) and offsets each
    shard's planner rounds past the previous maximum so the
    ``(round, seq)`` primary key never collides.  *namespace_meta*
    supplies the per-shard labels (default: ``shard1``, ``shard2``,
    ...); a single-shard merge copies meta verbatim.

    Returns the destination :class:`ResultsDatabase` (open; the caller
    closes it).
    """
    shards = list(shards)
    owned = []
    try:
        opened = []
        for shard in shards:
            if isinstance(shard, ResultsDatabase):
                opened.append(shard)
            else:
                database = ResultsDatabase(shard)
                owned.append(database)
                opened.append(database)
        if isinstance(destination, ResultsDatabase):
            merged = destination
        else:
            merged = ResultsDatabase(destination)
        if namespace_meta is None:
            namespace_meta = [f"shard{i + 1}" for i in range(len(opened))]
        elif len(namespace_meta) != len(opened):
            raise ResultsError(
                f"{len(opened)} shard(s) but {len(namespace_meta)} "
                f"namespace label(s)")
        single = len(opened) == 1
        for label, shard in zip(namespace_meta, opened):
            merged.absorb_shard(
                shard,
                meta_prefix=None if single else f"{label}:",
                round_base=0 if single else merged.max_planner_round())
        return merged
    finally:
        for database in owned:
            database.close()
