"""Mergeable relational store with policy-annotated schemas.

Rows are built from merge-friendly replicated values, tables carry
concurrency policies, and a deterministic simulator drives multi-replica
schedules for testing.
"""

from .crdt import (
    AdditiveCounter,
    Bound,
    BoundedCounter,
    EventStamp,
    LwwRegister,
    MvRegister,
    merge,
    render_scalar,
)
from .engine import (
    Cause,
    Replica,
    Row,
    RowView,
    Store,
    ViewContext,
    VisibilityVerdict,
    check_eval,
    compare,
    constraint_violations,
    dump_all,
    dump_table,
    integrity_violations,
    is_visible,
    render_dump,
)
from .errors import (
    AqlError,
    AqlSyntaxError,
    CheckViolation,
    DuplicateKey,
    FkParentMissing,
    FkRestrict,
    InsufficientRights,
    KindMismatch,
    LockUnavailable,
    RowNotFound,
    ScenarioError,
    TypeMismatch,
    ValidationError,
)
from .schema import (
    Catalog,
    ColumnDef,
    Modifier,
    Policy,
    TableSchema,
    catalog_to_ddl,
    concurrent_insert_allowed,
    parse_ddl,
    parse_literal,
    parse_schema_text,
    parse_statement,
    to_ddl,
)
from .sim import (
    Cluster,
    Event,
    FuzzConfig,
    FuzzOutcome,
    Report,
    Runner,
    Scenario,
    causal_orders,
    enumerate_orders,
    fuzz,
    load_scenario,
    minimize,
    parse_scenario,
    replay_records,
    replay_trace,
    run_scenario,
    store_canon,
)
from .txn import (
    CausalClock,
    CommitRecord,
    LockManager,
    Mode,
    RowDelta,
    Transaction,
    TxStatus,
)

__version__ = "0.1.0"

import types as _types

__all__ = sorted(
    name
    for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
