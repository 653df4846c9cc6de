"""Bad input to any parser raises an AqlError and never another exception."""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import aqldb.schema as sch
from aqldb.errors import AqlError, AqlSyntaxError, ScenarioError, ValidationError
from aqldb.sim import FUZZ_SCHEMA, parse_scenario

# More digits than int() converts by default (4300).
HUGE = "9" * 5000

SCENARIOS = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent.parent / "scenarios").glob("*.aqlsim"))
]

STATEMENTS = [
    "INSERT INTO Artists VALUES ('Sam', TRUE, 3)",
    "INSERT INTO Albums (Title, Artist, Stock, Genre) VALUES ('A1', 'Sam', 2, 'rock');",
    "INSERT INTO Reviews VALUES (1, 'A1', 5)",
    "UPDATE Artists SET Active = FALSE, Plays = Plays + 2 WHERE Name = 'Sam'",
    "UPDATE Albums SET Stock = Stock - 1 WHERE Title = 'A1'",
    "UPDATE Reviews SET Stars = 4 WHERE Id = 1",
    "DELETE FROM Artists WHERE Name = 'it''s'",
    "SELECT Name, Plays FROM Artists WHERE Plays >= -3",
    "SELECT * FROM Accounts",
]

LITERALS = ["'Sam'", "'it''s'", "42", "-3", "TRUE", "FALSE"]

# Pieces a mutation splices in: tokens of every kind, and text no token
# matches.
PIECES = [
    "'", "''", "(", ")", ",", ";", "*", "+", "-", "=", "<>", "<=", "#", "{", "}",
    "@r1", "\n", " ", "0", "-0", "1", HUGE, "TRUE", "NULL", "WHERE", "SET",
    "VALUES", "FROM", "PRIMARY KEY", "FOREIGN KEY", "REFERENCES", "CHECK",
    "ADDITIVE", "MULTI_VALUE", "ON DELETE CASCADE", "Artists", "Name", "tx",
    "assert", "deliver", "partition", "é", "٣",
]


@st.composite
def mutants(draw, seeds):
    """A seed text with a few characters deleted, replaced or spliced in."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 8)))
        piece = draw(st.sampled_from(PIECES) | st.text(max_size=4))
        text = text[:start] + piece + text[end:]
    return text


def texts(seeds):
    return st.text(max_size=60) | mutants(seeds)


# Derandomized and without an example database: the same cases on every run.
robust = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@robust
@given(texts(STATEMENTS))
@example(f"UPDATE Artists SET Plays = Plays + {HUGE} WHERE Name = 'Sam'")
@example(f"DELETE FROM Reviews WHERE Id = {HUGE}")
def test_parse_statement_raises_only_aql_errors(text):
    try:
        sch.parse_statement(text, sch.parse_schema_text(FUZZ_SCHEMA))
    except AqlError:
        pass


# ---------------------------------------------------------------------------
# The template cache answers like the full parse, and `?` parameters like
# the literals they stand for.

# What literal_swaps puts where a literal stood: every kind, values of the
# wrong type, a '-' before a string, digits no int() takes, Unicode digits.
SWAPS = [
    "'Sam'", "'A1'", "'it''s'", "''", "'?'", "'٣'", "'7'", "0", "1", "7", "42",
    "-3", "- 5", "-0", "TRUE", "FALSE", "-'x'", "٣", "1٣", HUGE, "-" + HUGE,
]
LITERAL = re.compile(r"'(?:[^']|'')*'|\b\d+\b|\bTRUE\b|\bFALSE\b")


@st.composite
def literal_swaps(draw, seeds):
    """A seed text with some of its literals replaced from SWAPS."""
    text = draw(st.sampled_from(seeds))
    return LITERAL.sub(lambda m: draw(st.sampled_from(SWAPS + [m.group()])), text)


def outcome(parse, *args):
    """What a parse gives: the statement, with its repr so that True and 1
    differ, or the error's type and message (the message holds the offset)."""
    try:
        stmt = parse(*args)
    except AqlError as err:
        return type(err), str(err)
    return stmt, repr(stmt)


def private_catalog():
    """The fuzz schema's tables under a catalog of its own, caches empty."""
    return sch.Catalog(dict(sch.parse_schema_text(FUZZ_SCHEMA).tables))


@robust
@given(texts(STATEMENTS) | literal_swaps(STATEMENTS) | mutants(STATEMENTS))
@example("SELECT * FROM Artists WHERE Name = -'x'")
@example("UPDATE Artists SET Plays = Plays + 'x' WHERE Name = 'Sam'")
@example("DELETE FROM Artists WHERE Name = 'it''s'")
@example("INSERT INTO Reviews VALUES (٣, 'A1', 5)")
def test_template_cache_answers_like_the_full_parse(text):
    catalog = private_catalog()
    expected = outcome(sch._parse_statement, text, catalog)
    # A template miss, a template hit (a text seen once is not kept), then
    # a text cache hit.
    for _ in range(3):
        assert outcome(sch.parse_statement, text, catalog) == expected
    # The same shape with other literals first, so the template is warm.
    other = private_catalog()
    for seed in STATEMENTS:
        sch.parse_statement(seed, other)
    assert outcome(sch.parse_statement, text, other) == expected


QSTATEMENTS = [LITERAL.sub("?", text) for text in STATEMENTS]

PARAMS = st.lists(
    st.integers() | st.text(max_size=4) | st.booleans()
    | st.sampled_from([-1, 0, 1.5, None, b"x", "it's", "?"]),
    max_size=5,
)


def literal_of(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"


@robust
@given(st.sampled_from(QSTATEMENTS), PARAMS)
@example("UPDATE Albums SET Stock = Stock - ? WHERE Title = ?", [-1, "A1"])
@example("SELECT Name, Plays FROM Artists WHERE Plays >= -?", ["x"])
def test_params_answer_like_their_literals(text, params):
    """Scalar parameters bind as the literal text would parse; the wrong
    number of them, or a value of another type, is a ValidationError. With
    no parameters a `?` is an unexpected character, as it always was."""
    catalog = private_catalog()
    got = outcome(sch.parse_statement, text, catalog, params)
    pieces = text.split("?")
    if not params:
        assert got == outcome(sch._parse_statement, text, catalog)
    elif len(params) != len(pieces) - 1:
        assert got[0] is ValidationError and "placeholders" in got[1]
    elif all(isinstance(v, (int, str)) for v in params):
        literal = pieces[0] + "".join(literal_of(v) + p for v, p in zip(params, pieces[1:]))
        assert got == outcome(sch._parse_statement, literal, catalog)
    else:
        assert got[0] is ValidationError


@robust
@given(texts(QSTATEMENTS) | mutants(QSTATEMENTS), PARAMS)
@example(f"DELETE FROM Reviews WHERE Id = ? AND {HUGE}", [1])
@example("SELECT * FROM Artists WHERE Name = ?", [10 ** 5000])
def test_parse_statement_with_params_raises_only_aql_errors(text, params):
    try:
        sch.parse_statement(text, sch.parse_schema_text(FUZZ_SCHEMA), params)
    except AqlError:
        pass


# ---------------------------------------------------------------------------
# The literal binder answers like the full parse, on statements of every
# shape over INT, VARCHAR and BOOLEAN columns. Identifiers hold digits, and
# the literals are of every kind the binder tells apart.

SHAPES_SCHEMA = """
CREATE UPDATE_WINS TABLE T1 (K INT PRIMARY KEY, Name1 VARCHAR LWW, On1 BOOLEAN LWW, Plays INT ADDITIVE);
CREATE TABLE T2 (Id VARCHAR PRIMARY KEY, Col2 INT, Flag BOOLEAN, Note2 VARCHAR MULTI_VALUE);
"""
NO_PARAM = None  # no `?` parameter stands for the literal

# A literal is (its text, the text of its `?` form, the parameter that form takes).
naturals = st.integers(0, 10 ** 6)
int_literals = naturals.flatmap(lambda n: st.sampled_from([
    (str(n), "?", n), (f"-{n}", "?", -n), (f"-{n}", "-?", n), (f"- {n}", "- ?", n),
]))
odd_int_literals = st.sampled_from([
    ("٣", "?", 3), ("1٣", "?", 13), ("-٣", "-?", 3), (HUGE, "?", NO_PARAM), ("-" + HUGE, "-?", NO_PARAM),
])
str_literals = st.text("ab'?٣1 ", max_size=5).map(lambda s: ("'" + s.replace("'", "''") + "'", "?", s))
bool_literals = st.sampled_from([("TRUE", "?", True), ("FALSE", "?", False)])
any_literal = st.one_of(
    int_literals, odd_int_literals, str_literals, bool_literals, st.just(("-'x'", "-?", NO_PARAM)),
)
LITERALS_OF = {"INT": int_literals | odd_int_literals, "VARCHAR": str_literals, "BOOLEAN": bool_literals}


@st.composite
def shaped_statements(draw):
    """A statement over SHAPES_SCHEMA as pieces: fixed texts, and literals
    mostly of their column's type. Some pieces do not fit: a primary key
    assigned, a value missing, a literal of another type."""
    table = sch.parse_schema_text(SHAPES_SCHEMA).table(draw(st.sampled_from(["T1", "T2"])))

    def literal(col):
        return draw(LITERALS_OF[col.datatype.value] if draw(st.integers(0, 4)) else any_literal)

    kind = draw(st.sampled_from(["INSERT", "UPDATE", "DELETE", "SELECT"]))
    if kind == "INSERT":
        listed = draw(st.booleans())
        names = draw(st.permutations(table.column_names)) if listed else list(table.column_names)
        names = names[:len(names) - (draw(st.integers(0, 9)) == 0)]
        pieces = [f"INSERT INTO {table.name} " + (f"({', '.join(names)}) " if listed else "") + "VALUES ("]
        for i, name in enumerate(names):
            pieces += [", "] * (i > 0) + [literal(table.column(name))]
        pieces.append(")")
    elif kind == "UPDATE":
        pieces = [f"UPDATE {table.name} SET "]
        for i, col in enumerate(draw(st.lists(st.sampled_from(table.columns), min_size=1, max_size=2))):
            pieces += [", "] * (i > 0)
            if col.modifier is sch.Modifier.ADDITIVE:
                sign = draw(st.sampled_from("+-"))
                pieces += [f"{col.name} = {col.name} {sign} ", draw(naturals.map(lambda n: (str(n), "?", n)) | any_literal)]
            else:
                pieces += [f"{col.name} = ", literal(col)]
    elif kind == "DELETE":
        pieces = [f"DELETE FROM {table.name}"]
    else:
        names = draw(st.lists(st.sampled_from(table.column_names), max_size=3))
        pieces = [f"SELECT {', '.join(names) or '*'} FROM {table.name}"]
    if kind != "INSERT" and draw(st.integers(0, 4)):
        col = draw(st.sampled_from(table.columns))
        pieces += [f" WHERE {col.name} {draw(st.sampled_from(sch.COMPARISON_OPS))} ", literal(col)]
    return pieces + [";"] * draw(st.booleans())


def answer(parse, *args):
    """The statement with its repr, or the error's type, message and offset."""
    try:
        stmt = parse(*args)
    except AqlError as err:
        return type(err), str(err), getattr(err, "position", None)
    return stmt, repr(stmt)


def shapes_catalog():
    return sch.Catalog(dict(sch.parse_schema_text(SHAPES_SCHEMA).tables))


@robust
@given(shaped_statements())
@example(["UPDATE T2 SET Note2 = ", ("'it''s ٣?'", "?", "it's ٣?"), " WHERE Id = ", ("'a1'", "?", "a1")])
@example(["SELECT Col2 FROM T2 WHERE Col2 <> ", ("-٣", "-?", 3)])
@example(["UPDATE T1 SET Plays = Plays - ", (HUGE, "?", NO_PARAM), " WHERE K = ", ("1٣", "?", 13)])
def test_the_literal_binder_answers_like_the_full_parse(pieces):
    """A template miss, a template hit and a text hit each answer as the
    full parse does, and the `?` form with the literals' values as
    parameters answers as the literal form, on a warm template and on a
    cold one (an error: of the same type)."""
    text = "".join(p if type(p) is str else p[0] for p in pieces)
    catalog = shapes_catalog()
    expected = answer(sch._parse_statement, text, catalog)
    for _ in range(3):
        assert answer(sch.parse_statement, text, catalog) == expected
    params = [p[2] for p in pieces if type(p) is not str]
    if NO_PARAM in params:
        return
    qtext = "".join(p if type(p) is str else p[1] for p in pieces)
    for cat in (catalog, shapes_catalog()):
        got = answer(sch.parse_statement, qtext, cat, params)
        assert got[0] is expected[0] if isinstance(expected[0], type) else got == expected


@robust
@given(texts([FUZZ_SCHEMA]))
@example(f"CREATE TABLE T (K INT PRIMARY KEY, V INT CHECK (V < {HUGE}))")
def test_parse_schema_text_raises_only_aql_errors(text):
    try:
        sch.parse_schema_text(text)
    except AqlError:
        pass


@robust
@given(texts(LITERALS))
@example(HUGE)
@example("-" + HUGE)
def test_parse_literal_raises_only_aql_errors(text):
    try:
        sch.parse_literal(text)
    except AqlError:
        pass


@robust
@given(mutants(SCENARIOS))
@example(SCENARIOS[0] + f"\nassert visible @r1 Artists {HUGE}\n")
def test_parse_scenario_raises_only_aql_errors(text):
    try:
        parse_scenario(text)
    except AqlError:
        pass


class TestHugeIntLiterals:
    """An INT literal int() cannot convert is a syntax error at its offset."""

    def test_parse_literal(self):
        with pytest.raises(AqlSyntaxError) as err:
            sch.parse_literal(HUGE)
        assert err.value.position == 0
        with pytest.raises(AqlSyntaxError) as err:
            sch.parse_literal("-" + HUGE)
        assert err.value.position == 1

    @pytest.mark.parametrize(
        "prefix, suffix",
        [
            ("UPDATE Artists SET Plays = Plays + ", " WHERE Name = 'Sam'"),
            ("DELETE FROM Reviews WHERE Id = ", ""),
            ("INSERT INTO Reviews VALUES (", ", 'A1', 5)"),
        ],
        ids=["delta", "where", "insert"],
    )
    def test_parse_statement(self, prefix, suffix):
        catalog = sch.parse_schema_text(FUZZ_SCHEMA)
        with pytest.raises(AqlSyntaxError) as err:
            sch.parse_statement(prefix + HUGE + suffix, catalog)
        assert err.value.position == len(prefix)

    def test_parse_schema_text(self):
        prefix = "CREATE TABLE T (K INT PRIMARY KEY, V INT CHECK (V < "
        with pytest.raises(AqlSyntaxError) as err:
            sch.parse_schema_text(prefix + HUGE + "))")
        assert err.value.position == len(prefix)

    def test_parse_scenario(self):
        with pytest.raises(ScenarioError, match="digits is too long"):
            parse_scenario(SCENARIOS[0] + f"\nassert visible @r1 Artists {HUGE}\n")
        with pytest.raises(ScenarioError, match="digits is too long"):
            parse_scenario(SCENARIOS[0] + f"\ntx big @r1 {{ DELETE FROM Artists WHERE Name = {HUGE} }}\n")
