"""Bad input to any parser raises an AqlError and never another exception."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import aqldb.schema as sch
from aqldb.errors import AqlError, AqlSyntaxError, ScenarioError
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
