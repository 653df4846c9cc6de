"""Parser and validator for the AQL dialect.

Covers CREATE TABLE with per-table and per-column concurrency annotations,
plus the INSERT / UPDATE / DELETE / SELECT statement forms the engine
executes. Keywords are case-insensitive, identifiers are case-sensitive.

Parsed catalogs and statements are immutable, so they are shared:
parse_schema_text returns one catalog per schema text, and each catalog
keeps the statements parsed against it by text. Both caches are bounded by
module constants and emptied when full; a text that fails to parse is never
stored, so it raises again on every call.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

from .crdt import Bound, Scalar
from .errors import AqlSyntaxError, ValidationError


class Policy(Enum):
    UPDATE_WINS = "UPDATE_WINS"
    DELETE_WINS = "DELETE_WINS"
    NO_CONCURRENCY = "NO_CONCURRENCY"


class Modifier(Enum):
    LWW = "LWW"
    MULTI_VALUE = "MULTI_VALUE"
    ADDITIVE = "ADDITIVE"
    NONE = "NONE"


class Datatype(Enum):
    INT = "INT"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"

    def admits(self, value) -> bool:
        if self is Datatype.BOOLEAN:
            return isinstance(value, bool)
        if self is Datatype.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, str)


COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "<>")


@dataclass(frozen=True)
class CheckAtom:
    column: str
    op: str
    value: Scalar


@dataclass(frozen=True)
class PrimaryKey:
    pass


@dataclass(frozen=True)
class Check:
    atoms: tuple[CheckAtom, ...]


@dataclass(frozen=True)
class ForeignKey:
    table: str
    column: str
    policy: Policy = Policy.NO_CONCURRENCY
    cascade: bool = False


ConstraintDef = PrimaryKey | Check | ForeignKey


# A parsed column or table is never mutated, so derived properties are cached.
@dataclass
class ColumnDef:
    name: str
    datatype: Datatype
    modifier: Modifier = Modifier.NONE
    constraints: tuple[ConstraintDef, ...] = ()

    @property
    def is_primary_key(self) -> bool:
        return any(isinstance(c, PrimaryKey) for c in self.constraints)

    @property
    def checks(self) -> list[Check]:
        return [c for c in self.constraints if isinstance(c, Check)]

    @cached_property
    def foreign_key(self) -> ForeignKey | None:
        for c in self.constraints:
            if isinstance(c, ForeignKey):
                return c
        return None

    @cached_property
    def check_atoms(self) -> list[CheckAtom]:
        return [a for chk in self.checks for a in chk.atoms]


@dataclass
class TableSchema:
    name: str
    row_policy: Policy
    columns: list[ColumnDef]

    @cached_property
    def primary_key(self) -> str:
        for col in self.columns:
            if col.is_primary_key:
                return col.name
        raise ValidationError(f"table {self.name} has no primary key")

    @cached_property
    def _by_name(self) -> dict[str, ColumnDef]:
        return {col.name: col for col in self.columns}

    def column(self, name: str) -> ColumnDef:
        col = self._by_name.get(name)
        if col is None:
            raise ValidationError(f"table {self.name} has no column {name}")
        return col

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @cached_property
    def foreign_keys(self) -> list[tuple[str, ForeignKey]]:
        return [(c.name, c.foreign_key) for c in self.columns if c.foreign_key]

    @cached_property
    def concurrent_inserts(self) -> bool:
        """concurrent_insert_allowed(self), computed once."""
        return concurrent_insert_allowed(self)

    @cached_property
    def non_pk_columns(self) -> list[ColumnDef]:
        return [c for c in self.columns if not c.is_primary_key]


@dataclass
class Catalog:
    tables: dict[str, TableSchema] = field(default_factory=dict)
    # Statements parsed against this catalog, by text (see parse_statement).
    statements: dict[str, Statement] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def table(self, name: str) -> TableSchema:
        if name not in self.tables:
            raise ValidationError(f"unknown table {name}")
        return self.tables[name]

    @cached_property
    def _referencing(self) -> dict[str, tuple[tuple[str, str, ForeignKey], ...]]:
        out: dict[str, list[tuple[str, str, ForeignKey]]] = {}
        for child in self.tables.values():
            for col, fk in child.foreign_keys:
                out.setdefault(fk.table, []).append((child.name, col, fk))
        return {table: tuple(edges) for table, edges in out.items()}

    def referencing(self, table: str) -> tuple[tuple[str, str, ForeignKey], ...]:
        """Foreign keys pointing at table, as (child table, column, fk)."""
        return self._referencing.get(table, ())

    @cached_property
    def _row_locked_deletes(self) -> frozenset[str]:
        noc = Policy.NO_CONCURRENCY
        return frozenset(name for name, schema in self.tables.items() if schema.row_policy is noc
                         or any(fk.policy is noc for _, _, fk in self.referencing(name)))

    def delete_locks_row(self, table: str) -> bool:
        """Whether deleting a row of table takes its row lock: the table is
        NO_CONCURRENCY, or a NO_CONCURRENCY foreign key references it."""
        return table in self._row_locked_deletes


def concurrent_insert_allowed(schema: TableSchema) -> bool:
    """Concurrent inserts of one key merge only when every non-PK column has
    a concurrency modifier, the table is not NO_CONCURRENCY, and no ADDITIVE
    column is bounded at a limit other than 0. Merged concurrent creations
    of a bounded counter sum their head-room, giving sum(v) - (n-1) * limit
    for n inserted values v, which is the sum of the values only at limit 0."""
    if schema.row_policy is Policy.NO_CONCURRENCY:
        return False
    for c in schema.non_pk_columns:
        if c.modifier is Modifier.NONE:
            return False
        if c.modifier is Modifier.ADDITIVE:
            bound = additive_bound(c)
            if bound is not None and bound.limit != 0:
                return False
    return True


def additive_bound(col: ColumnDef) -> Bound | None:
    """The single bound a check constraint puts on an additive column."""
    atoms = col.check_atoms
    if not atoms:
        return None
    atom = atoms[0]
    if atom.op == ">=":
        return Bound("lower", atom.value)
    if atom.op == ">":
        return Bound("lower", atom.value + 1)
    if atom.op == "<=":
        return Bound("upper", atom.value)
    return Bound("upper", atom.value - 1)


# --------------------------------------------------------------------------
# statements (immutable: one parsed statement is shared by every caller)

@dataclass(frozen=True, slots=True)
class Where:
    column: str
    op: str
    value: Scalar

    def is_pk_lookup(self, schema: TableSchema) -> bool:
        return self.op == "=" and self.column == schema.primary_key


@dataclass(frozen=True, slots=True)
class SetAssign:
    column: str
    value: Scalar


@dataclass(frozen=True, slots=True)
class DeltaAssign:
    column: str
    delta: int


@dataclass(frozen=True, slots=True)
class Insert:
    table: str
    values: Mapping[str, Scalar]  # read-only


@dataclass(frozen=True, slots=True)
class Update:
    table: str
    assignments: tuple[SetAssign | DeltaAssign, ...]
    where: Where | None


@dataclass(frozen=True, slots=True)
class Delete:
    table: str
    where: Where | None


@dataclass(frozen=True, slots=True)
class Select:
    table: str
    columns: tuple[str, ...] | None  # None means *
    where: Where | None


Statement = Insert | Update | Delete | Select


# --------------------------------------------------------------------------
# tokenizer

# Every character matches one group, "bad" last, so finditer walks the text
# without gaps.
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|<>|[<>=])
      | (?P<sym>[(),;*+\-])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# A token is a (kind, text, offset) tuple; the last one is ("eof", "", len).
Token = tuple[str, str, int]


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise AqlSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _int(tok: Token) -> int:
    try:
        return int(tok[1])
    except ValueError:  # more digits than int() converts
        raise AqlSyntaxError(f"integer literal of {len(tok[1])} digits is too long", tok[2]) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def error(self, expected: str) -> AqlSyntaxError:
        _, text, pos = self.tokens[self.idx]
        got = text or "end of input"
        return AqlSyntaxError(f"unexpected {got!r}", pos, expected)

    def accept_keyword(self, *words: str) -> str | None:
        kind, text, _ = self.tokens[self.idx]
        if kind == "ident":
            word = text.upper()
            if word in words:
                self.idx += 1
                return word
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(word)

    def accept_sym(self, sym: str) -> bool:
        kind, text, _ = self.tokens[self.idx]
        if text == sym and (kind == "sym" or kind == "op"):
            self.idx += 1
            return True
        return False

    def expect_sym(self, sym: str) -> None:
        if not self.accept_sym(sym):
            raise self.error(repr(sym))

    def ident(self, what: str) -> str:
        kind, text, _ = self.tokens[self.idx]
        if kind != "ident":
            raise self.error(what)
        self.idx += 1
        return text

    def literal(self) -> Scalar:
        kind, text, _ = tok = self.peek()
        if kind == "string":
            self.idx += 1
            return text[1:-1].replace("''", "'")
        if kind == "int":
            self.idx += 1
            return _int(tok)
        if kind == "sym" and text == "-":
            self.idx += 1
            num = self.peek()
            if num[0] != "int":
                raise self.error("integer literal")
            self.idx += 1
            return -_int(num)
        if self.accept_keyword("TRUE"):
            return True
        if self.accept_keyword("FALSE"):
            return False
        raise self.error("literal")

    def comparison_op(self) -> str:
        kind, text, _ = self.tokens[self.idx]
        if kind == "op" and text in COMPARISON_OPS:
            self.idx += 1
            return text
        raise self.error("comparison operator")


# --------------------------------------------------------------------------
# caches

# Bounds on the number of parsed schema texts kept, and of statement texts
# kept per catalog. A full cache is emptied, not evicted entry by entry.
SCHEMA_CACHE_LIMIT = 64
STATEMENT_CACHE_LIMIT = 2048

_catalogs: dict[str, Catalog] = {}


def _remember(cache: dict, key: str, value, limit: int) -> None:
    if len(cache) >= limit:
        cache.clear()
    cache[key] = value


# --------------------------------------------------------------------------
# DDL

_POLICY_WORDS = ("UPDATE_WINS", "DELETE_WINS")


def parse_ddl(text: str, catalog: Catalog | None = None) -> TableSchema:
    """Parse one CREATE TABLE statement and validate it against catalog."""
    p = _Parser(text)
    schema = _parse_create(p, catalog or Catalog())
    p.accept_sym(";")
    if p.peek()[0] != "eof":
        raise p.error("end of statement")
    return schema


def parse_schema_text(text: str) -> Catalog:
    """Parse a sequence of CREATE TABLE statements into a catalog. The same
    text gives the same catalog object, which must not be mutated."""
    catalog = _catalogs.get(text)
    if catalog is None:
        p = _Parser(text)
        catalog = Catalog()
        while p.peek()[0] != "eof":
            schema = _parse_create(p, catalog)
            if schema.name in catalog.tables:
                raise ValidationError(f"table {schema.name} defined twice")
            catalog.tables[schema.name] = schema
            while p.accept_sym(";"):
                pass
        _remember(_catalogs, text, catalog, SCHEMA_CACHE_LIMIT)
    return catalog


def parse_literal(text: str) -> Scalar:
    """Parse a standalone scalar literal ('Sam', 42, -3, TRUE)."""
    p = _Parser(text)
    value = p.literal()
    if p.peek()[0] != "eof":
        raise p.error("end of literal")
    return value


def _parse_create(p: _Parser, catalog: Catalog) -> TableSchema:
    p.expect_keyword("CREATE")
    policy = Policy.NO_CONCURRENCY
    word = p.accept_keyword(*_POLICY_WORDS)
    if word:
        policy = Policy(word)
    p.expect_keyword("TABLE")
    name = p.ident("table name")
    p.expect_sym("(")
    columns = [_parse_column(p)]
    while p.accept_sym(","):
        columns.append(_parse_column(p))
    p.expect_sym(")")
    schema = TableSchema(name, policy, columns)
    _validate_schema(schema, catalog)
    return schema


def _parse_column(p: _Parser) -> ColumnDef:
    name = p.ident("column name")
    dt = p.accept_keyword("INT", "VARCHAR", "BOOLEAN")
    if not dt:
        raise p.error("datatype")
    datatype = Datatype(dt)
    modifier = Modifier.NONE
    word = p.accept_keyword("LWW", "MULTI_VALUE", "ADDITIVE")
    if word:
        modifier = Modifier(word)
    constraints: list[ConstraintDef] = []
    while True:
        if p.accept_keyword("PRIMARY"):
            p.expect_keyword("KEY")
            constraints.append(PrimaryKey())
        elif p.accept_keyword("CHECK"):
            constraints.append(_parse_check(p))
        elif p.accept_keyword("FOREIGN"):
            p.expect_keyword("KEY")
            constraints.append(_parse_foreign_key(p))
        else:
            break
    return ColumnDef(name, datatype, modifier, tuple(constraints))


def _parse_check(p: _Parser) -> Check:
    p.expect_sym("(")
    atoms = [_parse_check_atom(p)]
    while p.accept_keyword("AND"):
        atoms.append(_parse_check_atom(p))
    p.expect_sym(")")
    return Check(tuple(atoms))


def _parse_check_atom(p: _Parser) -> CheckAtom:
    column = p.ident("column name")
    op = p.comparison_op()
    value = p.literal()
    return CheckAtom(column, op, value)


def _parse_foreign_key(p: _Parser) -> ForeignKey:
    policy = Policy.NO_CONCURRENCY
    word = p.accept_keyword(*_POLICY_WORDS)
    if word:
        policy = Policy(word)
    p.expect_keyword("REFERENCES")
    table = p.ident("table name")
    p.expect_sym("(")
    column = p.ident("column name")
    p.expect_sym(")")
    cascade = False
    if p.accept_keyword("ON"):
        p.expect_keyword("DELETE")
        p.expect_keyword("CASCADE")
        cascade = True
    return ForeignKey(table, column, policy, cascade)


def _validate_schema(schema: TableSchema, catalog: Catalog) -> None:
    seen: set[str] = set()
    pk_count = 0
    for col in schema.columns:
        if col.name in seen:
            raise ValidationError(f"duplicate column {col.name} in {schema.name}")
        seen.add(col.name)
        if col.is_primary_key:
            pk_count += 1
    if pk_count != 1:
        raise ValidationError(
            f"table {schema.name} needs exactly one PRIMARY KEY column, found {pk_count}"
        )

    for col in schema.columns:
        if col.is_primary_key and col.modifier is not Modifier.NONE:
            raise ValidationError(
                f"primary key column {schema.name}.{col.name} cannot carry a modifier"
            )
        if col.modifier is Modifier.ADDITIVE and col.datatype is not Datatype.INT:
            raise ValidationError(
                f"ADDITIVE requires INT, column {schema.name}.{col.name} is {col.datatype.value}"
            )
        _validate_checks(schema, col)
        fk = col.foreign_key
        if fk is not None:
            if col.modifier is Modifier.ADDITIVE:
                raise ValidationError(
                    f"foreign key column {schema.name}.{col.name} cannot be ADDITIVE"
                )
            target = catalog.table(fk.table) if fk.table != schema.name else schema
            if not target.has_column(fk.column):
                raise ValidationError(
                    f"foreign key target {fk.table}.{fk.column} does not exist"
                )
            if target.primary_key != fk.column:
                raise ValidationError(
                    f"foreign key must reference the primary key of {fk.table}"
                )
            if target.column(fk.column).datatype is not col.datatype:
                raise ValidationError(
                    f"foreign key column {schema.name}.{col.name} type differs from {fk.table}.{fk.column}"
                )


def _validate_checks(schema: TableSchema, col: ColumnDef) -> None:
    atoms = col.check_atoms
    for atom in atoms:
        if atom.column != col.name:
            raise ValidationError(
                f"check on {schema.name}.{col.name} may only constrain that column"
            )
        if not col.datatype.admits(atom.value):
            raise ValidationError(
                f"check constant {atom.value!r} does not match {col.datatype.value}"
            )
    if col.modifier is Modifier.ADDITIVE and atoms:
        if len(atoms) != 1:
            raise ValidationError(
                f"additive column {schema.name}.{col.name} takes a single bound"
            )
        if atoms[0].op not in ("<", "<=", ">", ">="):
            raise ValidationError(
                f"additive column {schema.name}.{col.name} needs a one-sided bound"
            )


# --------------------------------------------------------------------------
# statements

def parse_statement(text: str, catalog: Catalog) -> Statement:
    """Parse and validate one statement against catalog. The same text under
    the same catalog gives the same (immutable) statement object."""
    stmt = catalog.statements.get(text)
    if stmt is None:
        stmt = _parse_statement(text, catalog)
        _remember(catalog.statements, text, stmt, STATEMENT_CACHE_LIMIT)
    return stmt


def _parse_statement(text: str, catalog: Catalog) -> Statement:
    p = _Parser(text)
    if p.accept_keyword("INSERT"):
        stmt = _parse_insert(p, catalog)
    elif p.accept_keyword("UPDATE"):
        stmt = _parse_update(p, catalog)
    elif p.accept_keyword("DELETE"):
        stmt = _parse_delete(p, catalog)
    elif p.accept_keyword("SELECT"):
        stmt = _parse_select(p, catalog)
    else:
        raise p.error("INSERT, UPDATE, DELETE or SELECT")
    p.accept_sym(";")
    if p.peek()[0] != "eof":
        raise p.error("end of statement")
    return stmt


def _parse_insert(p: _Parser, catalog: Catalog) -> Insert:
    p.expect_keyword("INTO")
    table = p.ident("table name")
    schema = catalog.table(table)
    columns: list[str] | None = None
    if p.accept_sym("("):
        columns = [p.ident("column name")]
        while p.accept_sym(","):
            columns.append(p.ident("column name"))
        p.expect_sym(")")
    p.expect_keyword("VALUES")
    p.expect_sym("(")
    values = [p.literal()]
    while p.accept_sym(","):
        values.append(p.literal())
    p.expect_sym(")")

    names = columns if columns is not None else [c.name for c in schema.columns]
    if len(names) != len(values):
        raise ValidationError(
            f"insert into {table} lists {len(names)} columns but {len(values)} values"
        )
    mapping: dict[str, Scalar] = {}
    for name, value in zip(names, values):
        col = schema.column(name)
        if name in mapping:
            raise ValidationError(f"column {name} listed twice")
        if not col.datatype.admits(value):
            raise ValidationError(
                f"value {value!r} does not match {table}.{name} ({col.datatype.value})"
            )
        mapping[name] = value
    missing = [c.name for c in schema.columns if c.name not in mapping]
    if missing:
        raise ValidationError(f"insert into {table} must cover columns {missing}")
    return Insert(table, MappingProxyType(mapping))


def _parse_update(p: _Parser, catalog: Catalog) -> Update:
    table = p.ident("table name")
    schema = catalog.table(table)
    p.expect_keyword("SET")
    assignments = [_parse_assignment(p, schema)]
    while p.accept_sym(","):
        assignments.append(_parse_assignment(p, schema))
    where = _parse_where(p, schema)
    return Update(table, tuple(assignments), where)


def _parse_assignment(p: _Parser, schema: TableSchema) -> SetAssign | DeltaAssign:
    name = p.ident("column name")
    col = schema.column(name)
    if col.is_primary_key:
        raise ValidationError(f"primary key column {name} cannot be assigned")
    p.expect_sym("=")
    # Delta form: col = col + k or col = col - k, only for additive columns.
    kind, text, _ = p.peek()
    if kind == "ident" and text.upper() not in ("TRUE", "FALSE"):
        ref = p.ident("column name")
        if ref != name:
            raise ValidationError(
                f"assignment to {name} may only reference {name} itself"
            )
        sign = 1
        if p.accept_sym("+"):
            sign = 1
        elif p.accept_sym("-"):
            sign = -1
        else:
            raise p.error("'+' or '-'")
        amount = p.peek()
        if amount[0] != "int":
            raise p.error("integer literal")
        p.idx += 1
        if col.modifier is not Modifier.ADDITIVE:
            raise ValidationError(f"column {name} is not ADDITIVE, use {name} = value")
        return DeltaAssign(name, sign * _int(amount))
    value = p.literal()
    if col.modifier is Modifier.ADDITIVE:
        raise ValidationError(
            f"additive column {name} must be updated as {name} = {name} + k"
        )
    if not col.datatype.admits(value):
        raise ValidationError(
            f"value {value!r} does not match {schema.name}.{name} ({col.datatype.value})"
        )
    return SetAssign(name, value)


def _parse_delete(p: _Parser, catalog: Catalog) -> Delete:
    p.expect_keyword("FROM")
    table = p.ident("table name")
    schema = catalog.table(table)
    return Delete(table, _parse_where(p, schema))


def _parse_select(p: _Parser, catalog: Catalog) -> Select:
    columns: tuple[str, ...] | None = None
    if not p.accept_sym("*"):
        names = [p.ident("column name")]
        while p.accept_sym(","):
            names.append(p.ident("column name"))
        columns = tuple(names)
    p.expect_keyword("FROM")
    table = p.ident("table name")
    schema = catalog.table(table)
    if columns is not None:
        for name in columns:
            schema.column(name)
    return Select(table, columns, _parse_where(p, schema))


def _parse_where(p: _Parser, schema: TableSchema) -> Where | None:
    if not p.accept_keyword("WHERE"):
        kind, text, _ = p.peek()
        if kind == "eof" or text == ";":
            return None
        raise p.error("WHERE or end of statement")
    column = p.ident("column name")
    col = schema.column(column)
    op = p.comparison_op()
    value = p.literal()
    if not col.datatype.admits(value):
        raise ValidationError(
            f"where constant {value!r} does not match {schema.name}.{column}"
        )
    return Where(column, op, value)


# --------------------------------------------------------------------------
# printing

def to_ddl(schema: TableSchema) -> str:
    policy = "" if schema.row_policy is Policy.NO_CONCURRENCY else schema.row_policy.value + " "
    cols = ", ".join(_column_ddl(c) for c in schema.columns)
    return f"CREATE {policy}TABLE {schema.name} ({cols})"


def catalog_to_ddl(catalog: Catalog) -> str:
    return ";\n".join(to_ddl(t) for t in catalog.tables.values()) + ";"


def _column_ddl(col: ColumnDef) -> str:
    parts = [col.name, col.datatype.value]
    if col.modifier is not Modifier.NONE:
        parts.append(col.modifier.value)
    for c in col.constraints:
        if isinstance(c, PrimaryKey):
            parts.append("PRIMARY KEY")
        elif isinstance(c, Check):
            cond = " AND ".join(
                f"{a.column} {a.op} {_literal_ddl(a.value)}" for a in c.atoms
            )
            parts.append(f"CHECK ({cond})")
        elif isinstance(c, ForeignKey):
            fkp = "" if c.policy is Policy.NO_CONCURRENCY else c.policy.value + " "
            suffix = " ON DELETE CASCADE" if c.cascade else ""
            parts.append(f"FOREIGN KEY {fkp}REFERENCES {c.table} ({c.column}){suffix}")
    return " ".join(parts)


def _literal_ddl(value: Scalar) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"
