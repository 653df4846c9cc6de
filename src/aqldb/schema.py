"""Parser and validator for the AQL dialect.

Covers CREATE TABLE with per-table and per-column concurrency annotations,
plus the INSERT / UPDATE / DELETE / SELECT statement forms the engine
executes. Keywords are case-insensitive, identifiers are case-sensitive.

Parsed catalogs and statements are immutable, so they are shared:
parse_schema_text returns one catalog per schema text, and each catalog
keeps the statements parsed against it by text once a text repeats (a text
seen once is only noted), and their templates (the text with each literal
masked as `?`) by template text, so a new text of a known shape only binds
its literals. All caches are bounded by module constants and emptied when
full; a text that fails to parse is never stored, so it raises again on
every call.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

from .crdt import Bound, Scalar
from .errors import AqlError, AqlSyntaxError, ValidationError


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
class ForeignKey:
    table: str
    column: str
    policy: Policy = Policy.NO_CONCURRENCY
    cascade: bool = False


# A parsed column or table is never mutated, so derived properties are cached.
@dataclass
class ColumnDef:
    """One column; _parse_column sets each constraint field once. Several
    CHECK clauses are one conjunction, check_atoms."""

    name: str
    datatype: Datatype
    modifier: Modifier = Modifier.NONE
    is_primary_key: bool = False
    foreign_key: ForeignKey | None = None
    check_atoms: tuple[CheckAtom, ...] = ()

    @cached_property
    def additive_bound(self) -> Bound | None:
        if not self.check_atoms:
            return None
        atom = self.check_atoms[0]
        if atom.op == ">=":
            return Bound("lower", atom.value)
        if atom.op == ">":
            return Bound("lower", atom.value + 1)
        if atom.op == "<=":
            return Bound("upper", atom.value)
        return Bound("upper", atom.value - 1)


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
    def column_names(self) -> tuple[str, ...]:
        return tuple([c.name for c in self.columns])

    @cached_property
    def foreign_keys(self) -> list[tuple[str, ForeignKey]]:
        return [(c.name, c.foreign_key) for c in self.columns if c.foreign_key]

    @cached_property
    def checked_columns(self) -> list[tuple[str, tuple[CheckAtom, ...]]]:
        return [(c.name, c.check_atoms) for c in self.columns if c.check_atoms]

    @cached_property
    def non_pk_columns(self) -> list[ColumnDef]:
        return [c for c in self.columns if not c.is_primary_key]


@dataclass
class Catalog:
    tables: dict[str, TableSchema] = field(default_factory=dict)
    # Statements parsed against this catalog by text, the texts parsed once
    # so far, and templates by template text (see parse_statement).
    statements: dict[str, Statement] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    seen: dict[str, None] = field(default_factory=dict, init=False, repr=False, compare=False)
    templates: dict[str, tuple[Statement, tuple[_Slot, ...]]] = field(
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
    def coordination(self) -> Mapping[str, Coordination]:
        """Each table's Coordination record, worked out once."""
        noc, out = Policy.NO_CONCURRENCY, {}
        for name, t in self.tables.items():
            guarded = t.row_policy is noc
            out[name] = Coordination(
                name, not concurrent_insert_allowed(t), guarded,
                guarded or any(fk.policy is noc for _, _, fk in self.referencing(name)),
                frozenset(c.name for c in t.non_pk_columns if c.modifier is Modifier.NONE),
                MappingProxyType({col: fk.table for col, fk in t.foreign_keys if fk.policy is noc}))
        return MappingProxyType(out)


@dataclass(frozen=True)
class Coordination:
    """Which writes to one table coordinate, decided once from the schema;
    all others merge lock-free. insert_locked (not concurrent_insert_allowed):
    an insert locks the row exclusively and validates live. row_guarded
    (NO_CONCURRENCY): an update shares the row lock, update and delete
    re-check the row live, and the commit fold observes its live flags.
    delete_locked: a delete locks the row exclusively. locked_columns: each
    takes an exclusive column lock when written. locked_parents: each
    NO_CONCURRENCY foreign key column -> its parent table; a write shares the
    parent's row lock and checks it live, and cascades and restricts follow
    the edge live once the lock is held."""

    table: str
    insert_locked: bool
    row_guarded: bool
    delete_locked: bool
    locked_columns: frozenset[str]
    locked_parents: Mapping[str, str]


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
            bound = c.additive_bound
            if bound is not None and bound.limit != 0:
                return False
    return True


def additive_bound(col: ColumnDef) -> Bound | None:
    """The single bound a check constraint puts on an additive column, one per column."""
    return col.additive_bound


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
      | (?P<param>\?)
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# A token is a (kind, text, offset) tuple; the last one is ("eof", "", len).
Token = tuple[str, str, int]


def _tokenize(text: str, params: bool = False) -> list[Token]:
    """The tokens of text; a `?` is a "param" token only where params is set."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad" or (kind == "param" and not params):
            raise AqlSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _int(tok: Token) -> int:
    try:
        return int(tok[1])
    except ValueError:  # more digits than int() converts
        raise AqlSyntaxError(f"integer literal of {len(tok[1])} digits is too long", tok[2]) from None


class _Slot:
    """A `?` in a statement template. It takes the index-th value, of exactly
    type (see _admits); an int_only one stands where only an integer token
    may, takes an int >= 0 and multiplies it by sign."""

    __slots__ = ("index", "sign", "int_only", "type")

    def __init__(self, index: int, sign: int, int_only: bool):
        self.index, self.sign, self.int_only = index, sign, int_only
        self.type: type | None = int if int_only else None


class _Parser:
    """Token cursor. Given a slots list, it parses a template: each `?` where
    a literal may stand becomes a _Slot, appended to slots."""

    def __init__(self, text: str, slots: list[_Slot] | None = None):
        self.tokens = _tokenize(text, slots is not None)
        self.idx = 0
        self.slots = slots

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

    def integer(self) -> Token:
        """Consume an integer literal token, or a `?` in a template."""
        tok = self.tokens[self.idx]
        if tok[0] != "int" and tok[0] != "param":
            raise self.error("integer literal")
        self.idx += 1
        return tok

    def number(self, tok: Token, sign: int, int_only: bool = True) -> int | _Slot:
        """sign times the integer tok, or for a `?` a new slot."""
        if tok[0] != "param":
            return sign * _int(tok)
        self.slots.append(_Slot(len(self.slots), sign, int_only))
        return self.slots[-1]

    def literal(self) -> Scalar | _Slot:
        kind, text, _ = tok = self.peek()
        if kind == "string":
            self.idx += 1
            return text[1:-1].replace("''", "'")
        if kind == "int":
            self.idx += 1
            return _int(tok)
        if kind == "param":
            self.idx += 1
            return self.number(tok, 1, False)
        if kind == "sym" and text == "-":
            self.idx += 1
            return self.number(self.integer(), -1)
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

# Bounds on the number of parsed schema texts kept, and of statement texts,
# texts seen once and statement templates kept per catalog. A full cache is
# emptied, not evicted entry by entry.
SCHEMA_CACHE_LIMIT = 64
STATEMENT_CACHE_LIMIT = 2048
TEMPLATE_CACHE_LIMIT = 256

_catalogs: dict[str, Catalog] = {}


def _remember(cache: dict, key: str, value, limit: int) -> None:
    if len(cache) >= limit:
        cache.clear()
    cache[key] = value


# --------------------------------------------------------------------------
# DDL

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
    policy = _parse_policy(p)
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
    col = ColumnDef(name, Datatype(dt))
    word = p.accept_keyword("LWW", "MULTI_VALUE", "ADDITIVE")
    if word:
        col.modifier = Modifier(word)
    while True:
        if p.accept_keyword("PRIMARY"):
            p.expect_keyword("KEY")
            if col.is_primary_key:
                raise ValidationError(f"column {name} has two PRIMARY KEY clauses")
            col.is_primary_key = True
        elif p.accept_keyword("CHECK"):
            col.check_atoms += _parse_check(p)
        elif p.accept_keyword("FOREIGN"):
            p.expect_keyword("KEY")
            if col.foreign_key is not None:
                raise ValidationError(f"column {name} has two FOREIGN KEY clauses")
            col.foreign_key = _parse_foreign_key(p)
        else:
            return col


def _parse_check(p: _Parser) -> tuple[CheckAtom, ...]:
    p.expect_sym("(")
    atoms = [_parse_check_atom(p)]
    while p.accept_keyword("AND"):
        atoms.append(_parse_check_atom(p))
    p.expect_sym(")")
    return tuple(atoms)


def _parse_check_atom(p: _Parser) -> CheckAtom:
    column = p.ident("column name")
    op = p.comparison_op()
    value = p.literal()
    return CheckAtom(column, op, value)


def _parse_policy(p: _Parser) -> Policy:
    """An optional policy word: a table or foreign key without one is NO_CONCURRENCY."""
    word = p.accept_keyword("UPDATE_WINS", "DELETE_WINS")
    return Policy(word) if word else Policy.NO_CONCURRENCY


def _parse_foreign_key(p: _Parser) -> ForeignKey:
    policy = _parse_policy(p)
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
            if fk.table == schema.name:  # an insert needs every column, and there is no NULL
                raise ValidationError(
                    f"foreign key {schema.name}.{col.name} references its own table, whose first row "
                    "could reference no parent"
                )
            target = catalog.table(fk.table)
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

def parse_statement(text: str, catalog: Catalog, params: Sequence[Scalar] = ()) -> Statement:
    """Parse and validate one statement against catalog. From its second
    parse on, the same text under the same catalog gives the same (immutable)
    statement object: a text is kept only once it repeats, so one-off texts
    leave no statement behind. Each `?` in text takes one of params, checked
    as a literal of it would be. Any failure takes the full parse, so an
    error keeps its type and offset."""
    if params:
        return _bind(text, params, catalog) or _parse_statement(_render(text, params), catalog)
    stmt = catalog.statements.get(text)
    if stmt is None:
        stmt = _bind_literals(text, catalog) or _parse_statement(text, catalog)
        if text in catalog.seen:
            _remember(catalog.statements, text, stmt, STATEMENT_CACHE_LIMIT)
        else:
            _remember(catalog.seen, text, None, STATEMENT_CACHE_LIMIT)
    return stmt


# A string or integer literal; digits after an identifier character belong
# to the identifier. As a capturing group, split keeps the literals.
_LITERAL_RE = re.compile(r"('(?:[^']|'')*'|(?<![A-Za-z0-9_])\d+)")


def _bind_literals(text: str, catalog: Catalog) -> Statement | None:
    if "?" in text:
        return None
    parts = _LITERAL_RE.split(text)
    try:
        values = [int(lit) if lit[0] != "'" else lit[1:-1].replace("''", "'") for lit in parts[1::2]]
        return _bind("?".join(parts[::2]), values, catalog)
    except (ValueError, AqlError):  # a literal too long for int(), or a shape that does not parse
        return None


def _bind(key: str, values: Sequence, catalog: Catalog) -> Statement | None:
    """The statement of template text key with values in its slots, or None
    where a value does not fit. A template is kept once a bind succeeds."""
    template = catalog.templates.get(key)
    if template is None:
        slots: list[_Slot] = []
        template = _parse_statement(key, catalog, slots), tuple(slots)
    stmt, slots = template
    if len(values) != len(slots):
        raise ValidationError(f"statement has {len(slots)} placeholders, {len(values)} parameters given")
    filled = []
    for slot, value in zip(slots, values):
        if type(value) is not slot.type or slot.int_only and value < 0:
            return None
        filled.append(slot.sign * value if slot.int_only else value)
    if key not in catalog.templates:
        _remember(catalog.templates, key, template, TEMPLATE_CACHE_LIMIT)
    return _fill(stmt, filled) if slots else stmt


def _fill(stmt: Statement, values: list[Scalar]) -> Statement:
    def get(value):
        return values[value.index] if type(value) is _Slot else value
    if type(stmt) is Insert:
        return Insert(stmt.table, MappingProxyType({k: get(v) for k, v in stmt.values.items()}))
    where = stmt.where
    if where is not None and type(where.value) is _Slot:
        where = Where(where.column, where.op, get(where.value))
    if type(stmt) is Update:
        return Update(stmt.table, tuple([
            DeltaAssign(a.column, get(a.delta)) if type(a) is DeltaAssign
            else SetAssign(a.column, get(a.value)) for a in stmt.assignments]), where)
    return Delete(stmt.table, where) if type(stmt) is Delete else Select(stmt.table, stmt.columns, where)


def _render(text: str, params: Sequence) -> str:
    """text with each `?` replaced by the literal of its parameter."""
    marks = [pos for kind, _, pos in _tokenize(text, True) if kind == "param"]
    pieces, start = [], 0
    for pos, value in zip(marks, params):
        if not isinstance(value, (int, str)):
            raise ValidationError(f"parameter {value!r} is not an INT, VARCHAR or BOOLEAN value")
        try:
            pieces += (text[start:pos], _literal_ddl(value))
        except ValueError:  # more digits than str() converts
            raise ValidationError(f"integer parameter of {value.bit_length()} bits is too long") from None
        start = pos + 1
    return "".join(pieces) + text[start:]


def _admits(datatype: Datatype, value: Scalar | _Slot) -> bool:
    """datatype.admits(value); a slot takes the check to its bind as an exact
    type, or none that fits when it must be an integer and datatype is not INT."""
    if type(value) is not _Slot:
        return datatype.admits(value)
    want = {Datatype.INT: int, Datatype.VARCHAR: str, Datatype.BOOLEAN: bool}[datatype]
    value.type = want if value.type in (None, want) else None
    return True


def _parse_statement(text: str, catalog: Catalog, slots: list[_Slot] | None = None) -> Statement:
    """The full parse; given a slots list, the parse of a template."""
    p = _Parser(text, slots)
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

    names = columns if columns is not None else schema.column_names
    if len(names) != len(values):
        raise ValidationError(
            f"insert into {table} lists {len(names)} columns but {len(values)} values"
        )
    mapping: dict[str, Scalar] = {}
    for name, value in zip(names, values):
        col = schema.column(name)
        if name in mapping:
            raise ValidationError(f"column {name} listed twice")
        if not _admits(col.datatype, value):
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
        amount = p.integer()
        if col.modifier is not Modifier.ADDITIVE:
            raise ValidationError(f"column {name} is not ADDITIVE, use {name} = value")
        return DeltaAssign(name, p.number(amount, sign))
    value = p.literal()
    if col.modifier is Modifier.ADDITIVE:
        raise ValidationError(
            f"additive column {name} must be updated as {name} = {name} + k"
        )
    if not _admits(col.datatype, value):
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
    if not _admits(col.datatype, value):
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
    return ";\n".join(to_ddl(t) for t in catalog.tables.values()) + ";" if catalog.tables else ""


def _column_ddl(col: ColumnDef) -> str:
    parts = [col.name, col.datatype.value]
    if col.modifier is not Modifier.NONE:
        parts.append(col.modifier.value)
    if col.is_primary_key:
        parts.append("PRIMARY KEY")
    if col.check_atoms:
        cond = " AND ".join(f"{a.column} {a.op} {_literal_ddl(a.value)}" for a in col.check_atoms)
        parts.append(f"CHECK ({cond})")
    fk = col.foreign_key
    if fk is not None:
        fkp = "" if fk.policy is Policy.NO_CONCURRENCY else fk.policy.value + " "
        suffix = " ON DELETE CASCADE" if fk.cascade else ""
        parts.append(f"FOREIGN KEY {fkp}REFERENCES {fk.table} ({fk.column}){suffix}")
    return " ".join(parts)


def _literal_ddl(value: Scalar) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"
