"""Schema dialect: parsing, validation and printing."""

import pytest

import aqldb.schema as sch

from aqldb.errors import AqlSyntaxError, ValidationError
from aqldb.schema import (
    Modifier,
    Policy,
    catalog_to_ddl,
    concurrent_insert_allowed,
    parse_literal,
    parse_schema_text,
    parse_statement,
    to_ddl,
)

MUSIC = """
CREATE UPDATE_WINS TABLE Artists (
  Name VARCHAR PRIMARY KEY,
  Active BOOLEAN LWW,
  Plays INT ADDITIVE
);
CREATE DELETE_WINS TABLE Albums (
  Title VARCHAR PRIMARY KEY,
  Artist VARCHAR LWW FOREIGN KEY UPDATE_WINS REFERENCES Artists (Name) ON DELETE CASCADE,
  Stock INT ADDITIVE CHECK (Stock >= 0),
  Genre VARCHAR MULTI_VALUE
);
CREATE TABLE Plain (
  Id INT PRIMARY KEY,
  Note VARCHAR
);
"""


@pytest.fixture()
def catalog():
    return parse_schema_text(MUSIC)


def private_catalog():
    """MUSIC's tables under a catalog of their own, with empty caches."""
    return sch.Catalog(dict(parse_schema_text(MUSIC).tables))


def test_policies(catalog):
    assert catalog.table("Artists").row_policy is Policy.UPDATE_WINS
    assert catalog.table("Albums").row_policy is Policy.DELETE_WINS
    # no policy keyword means fully coordinated
    assert catalog.table("Plain").row_policy is Policy.NO_CONCURRENCY


def test_columns_and_modifiers(catalog):
    artists = catalog.table("Artists")
    assert artists.primary_key == "Name"
    assert artists.column("Active").modifier is Modifier.LWW
    assert artists.column("Plays").modifier is Modifier.ADDITIVE
    assert catalog.table("Albums").column("Genre").modifier is Modifier.MULTI_VALUE
    assert catalog.table("Plain").column("Note").modifier is Modifier.NONE


def test_foreign_key_details(catalog):
    fk = catalog.table("Albums").column("Artist").foreign_key
    assert fk.table == "Artists"
    assert fk.column == "Name"
    assert fk.policy is Policy.UPDATE_WINS
    assert fk.cascade


def test_referencing_index(catalog):
    edges = catalog.referencing("Artists")
    assert [(child, col) for child, col, _ in edges] == [("Albums", "Artist")]


def test_additive_bounds():
    cat = parse_schema_text(
        """
        CREATE TABLE T (
          K VARCHAR PRIMARY KEY,
          A INT ADDITIVE CHECK (A >= 0),
          B INT ADDITIVE CHECK (B > 2),
          C INT ADDITIVE CHECK (C <= 10),
          D INT ADDITIVE CHECK (D < 10),
          E INT ADDITIVE
        );
        """
    )
    t = cat.table("T")
    assert t.column("A").additive_bound.canon() == ">=0"
    assert t.column("B").additive_bound.canon() == ">=3"
    assert t.column("C").additive_bound.canon() == "<=10"
    assert t.column("D").additive_bound.canon() == "<=9"
    assert t.column("E").additive_bound is None


def test_concurrent_insert_allowed(catalog):
    assert concurrent_insert_allowed(catalog.table("Artists"))
    assert concurrent_insert_allowed(catalog.table("Albums"))
    # Plain.Note has no modifier and the table is coordinated
    assert not concurrent_insert_allowed(catalog.table("Plain"))


def test_mergeable_table_with_plain_column_blocks_concurrent_insert():
    cat = parse_schema_text(
        """
        CREATE UPDATE_WINS TABLE T (
          K VARCHAR PRIMARY KEY,
          V VARCHAR
        );
        """
    )
    assert not concurrent_insert_allowed(cat.table("T"))


@pytest.mark.parametrize(
    "column, allowed",
    [
        ("V INT ADDITIVE CHECK (V >= 0)", True),
        ("V INT ADDITIVE CHECK (V <= 0)", True),
        ("V INT LWW CHECK (V >= 1)", True),
        ("V INT ADDITIVE CHECK (V >= 1)", False),
        ("V INT ADDITIVE CHECK (V <= 6)", False),
    ],
)
def test_bound_off_zero_blocks_concurrent_insert(column, allowed):
    # Merged concurrent creations of a counter bounded at limit L sum to
    # sum(v) - (n-1) * L: only L = 0 keeps the inserted values' sum.
    cat = parse_schema_text(f"CREATE UPDATE_WINS TABLE T (K VARCHAR PRIMARY KEY, {column});")
    assert concurrent_insert_allowed(cat.table("T")) is allowed


def test_ddl_round_trip(catalog):
    text = catalog_to_ddl(catalog)
    again = parse_schema_text(text)
    assert catalog_to_ddl(again) == text
    for name in catalog.tables:
        assert to_ddl(catalog.table(name)) == to_ddl(again.table(name))
    assert catalog_to_ddl(parse_schema_text("")) == ""  # not a lone ";"


def test_parse_literal():
    assert parse_literal("'Sam'") == "Sam"
    assert parse_literal("42") == 42
    assert parse_literal("-3") == -3
    assert parse_literal("TRUE") is True
    with pytest.raises(AqlSyntaxError):
        parse_literal("'a' 'b'")


def one_table(text):
    """The one table a single CREATE TABLE statement defines."""
    (table,) = parse_schema_text(text).tables.values()
    return table


class TestValidation:
    def plain(self, body):
        return f"CREATE TABLE T (\n{body}\n)"

    def test_needs_exactly_one_pk(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT, B INT"))
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT PRIMARY KEY, B INT PRIMARY KEY"))

    def test_pk_cannot_merge(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT LWW PRIMARY KEY"))

    def test_additive_requires_int(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT PRIMARY KEY, B VARCHAR ADDITIVE"))

    def test_duplicate_column(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT PRIMARY KEY, A INT"))

    def test_check_constrains_own_column_only(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT PRIMARY KEY, B INT CHECK (A > 0)"))

    def test_check_constant_type(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT PRIMARY KEY, B INT CHECK (B > 'x')"))

    def test_additive_check_one_sided(self):
        with pytest.raises(ValidationError):
            one_table(
                self.plain("A INT PRIMARY KEY, B INT ADDITIVE CHECK (B > 0 AND B < 9)")
            )

    def test_fk_must_point_at_pk(self):
        with pytest.raises(ValidationError):
            parse_schema_text(
                """
                CREATE TABLE P (K VARCHAR PRIMARY KEY, V VARCHAR);
                CREATE TABLE C (
                  K VARCHAR PRIMARY KEY,
                  R VARCHAR FOREIGN KEY REFERENCES P (V)
                );
                """
            )

    def test_fk_type_must_match(self):
        with pytest.raises(ValidationError):
            parse_schema_text(
                """
                CREATE TABLE P (K VARCHAR PRIMARY KEY);
                CREATE TABLE C (
                  K VARCHAR PRIMARY KEY,
                  R INT FOREIGN KEY REFERENCES P (K)
                );
                """
            )

    def test_fk_unknown_table(self):
        with pytest.raises(ValidationError):
            one_table(self.plain("A INT PRIMARY KEY, B INT FOREIGN KEY REFERENCES Nope (X)"))

    def test_fk_to_own_table_is_rejected(self):
        # Every column needs a value and there is no NULL, so the first row
        # could reference no parent: such a table could never hold a row.
        with pytest.raises(ValidationError, match="T.B references its own table"):
            one_table("CREATE UPDATE_WINS TABLE T (A INT PRIMARY KEY, B INT LWW FOREIGN KEY UPDATE_WINS REFERENCES T (A))")

    @pytest.mark.parametrize("columns, message", [
        ("K INT PRIMARY KEY PRIMARY KEY", "column K has two PRIMARY KEY clauses"),
        ("K INT PRIMARY KEY CHECK (K > 0) PRIMARY KEY", "column K has two PRIMARY KEY clauses"),
        ("K INT PRIMARY KEY, P INT FOREIGN KEY REFERENCES A (K) FOREIGN KEY REFERENCES A (K)",
         "column P has two FOREIGN KEY clauses"),
        ("K INT PRIMARY KEY, P INT FOREIGN KEY REFERENCES A (K) FOREIGN KEY REFERENCES Nope (X)",
         "column P has two FOREIGN KEY clauses"),
    ])
    def test_clause_given_twice_is_rejected(self, columns, message):
        with pytest.raises(ValidationError, match=message):
            parse_schema_text(f"CREATE TABLE A (K INT PRIMARY KEY); CREATE TABLE B ({columns})")

    def test_several_checks_are_one_conjunction(self):
        catalog = parse_schema_text(
            "CREATE TABLE A (K INT PRIMARY KEY);"
            "CREATE TABLE B (K INT CHECK (K > 0) PRIMARY KEY,"
            " V INT FOREIGN KEY REFERENCES A (K) CHECK (V >= 0) CHECK (V < 9 AND V <> 5))"
        )
        v = catalog.table("B").column("V")
        assert [(a.op, a.value) for a in v.check_atoms] == [(">=", 0), ("<", 9), ("<>", 5)]
        # Printed in one order: PRIMARY KEY, CHECK, FOREIGN KEY.
        assert to_ddl(catalog.table("B")) == (
            "CREATE TABLE B (K INT PRIMARY KEY CHECK (K > 0),"
            " V INT CHECK (V >= 0 AND V < 9 AND V <> 5) FOREIGN KEY REFERENCES A (K))"
        )

    def test_dotted_column_name_is_reserved(self):
        with pytest.raises(AqlSyntaxError):
            one_table(self.plain("A INT PRIMARY KEY, ref.X INT"))

    def test_syntax_error_carries_position(self):
        with pytest.raises(AqlSyntaxError) as err:
            one_table("CREATE TABLE T (A INT PRIMARY KEY,,)")
        assert err.value.position is not None


class TestStatements:
    def test_insert(self, catalog):
        stmt = parse_statement(
            "INSERT INTO Artists VALUES ('Sam', TRUE, 0)", catalog
        )
        assert stmt.table == "Artists"
        assert stmt.values == {"Name": "Sam", "Active": True, "Plays": 0}

    def test_insert_with_column_list(self, catalog):
        stmt = parse_statement(
            "INSERT INTO Artists (Name, Plays, Active) VALUES ('Sam', 2, FALSE)",
            catalog,
        )
        assert stmt.values == {"Name": "Sam", "Plays": 2, "Active": False}

    def test_insert_arity_mismatch(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement("INSERT INTO Artists VALUES ('Sam', TRUE)", catalog)

    def test_insert_must_cover_all_columns(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement("INSERT INTO Artists (Name) VALUES ('Sam')", catalog)

    def test_update_set_and_delta(self, catalog):
        stmt = parse_statement(
            "UPDATE Artists SET Active = FALSE, Plays = Plays + 2 WHERE Name = 'Sam'",
            catalog,
        )
        names = [a.column for a in stmt.assignments]
        assert names == ["Active", "Plays"]
        assert stmt.where.column == "Name"
        assert stmt.where.value == "Sam"

    def test_update_delta_needs_additive(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement(
                "UPDATE Artists SET Active = Active + 1 WHERE Name = 'Sam'", catalog
            )

    def test_update_cannot_touch_pk(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement(
                "UPDATE Artists SET Name = 'Ana' WHERE Name = 'Sam'", catalog
            )

    def test_delete(self, catalog):
        stmt = parse_statement("DELETE FROM Albums WHERE Title = 'A1'", catalog)
        assert stmt.table == "Albums"

    def test_select_star(self, catalog):
        stmt = parse_statement("SELECT * FROM Artists", catalog)
        assert stmt.table == "Artists"
        assert stmt.where is None

    def test_unknown_table(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement("DELETE FROM Ghosts WHERE Id = 1", catalog)

    def test_unknown_column(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement(
                "UPDATE Artists SET Wings = TRUE WHERE Name = 'Sam'", catalog
            )

    def test_type_checked_values(self, catalog):
        with pytest.raises(ValidationError):
            parse_statement("INSERT INTO Artists VALUES ('Sam', 'yes', 0)", catalog)

    @pytest.mark.parametrize("text, params", [
        (f"{head} WHERE {key} = {slot}", params)
        for key, heads, literal, value in (
            ("Id", ("SELECT * FROM Plain", "UPDATE Plain SET Note = 'n'", "DELETE FROM Plain"), "TRUE", True),
            ("Id", ("SELECT * FROM Plain", "UPDATE Plain SET Note = 'n'", "DELETE FROM Plain"), "'x'", "x"),
            ("Name", ("SELECT * FROM Artists", "UPDATE Artists SET Active = TRUE", "DELETE FROM Artists"), "1", 1),
        )
        for head in heads
        for slot, params in ((literal, ()), ("?", (value,)))
    ])
    def test_type_checked_key_lookups(self, catalog, text, params):
        """A key lookup finds its row by the parsed key alone, and a dict
        finds key 1 under True, so parse must refuse a key of the wrong type."""
        with pytest.raises(ValidationError):
            parse_statement(text, catalog, params)

    def test_trailing_garbage(self, catalog):
        with pytest.raises(AqlSyntaxError):
            parse_statement("SELECT * FROM Artists garbage", catalog)


class TestCaches:
    """Parsed catalogs and statements are shared, so they must be immutable
    and a cached answer must equal a fresh parse."""

    def test_same_text_same_statement(self):
        cat = private_catalog()
        text = "UPDATE Artists SET Plays = Plays + 1 WHERE Name = 'Sam'"
        parse_statement(text, cat)
        assert text not in cat.statements and text in cat.seen  # a text seen once is only noted
        second = parse_statement(text, cat)
        assert cat.statements[text] is second
        assert parse_statement(text, cat) is second

    def test_statement_cache_is_per_catalog(self):
        two = parse_schema_text("CREATE TABLE T (K INT PRIMARY KEY, V INT);")
        three = parse_schema_text("CREATE TABLE T (K INT PRIMARY KEY, V INT, W INT);")
        short, long = "INSERT INTO T VALUES (1, 2)", "INSERT INTO T VALUES (1, 2, 3)"
        for _ in range(2):
            assert parse_statement(short, two).values == {"K": 1, "V": 2}
            with pytest.raises(ValidationError):
                parse_statement(short, three)
            assert parse_statement(long, three).values == {"K": 1, "V": 2, "W": 3}
            with pytest.raises(ValidationError):
                parse_statement(long, two)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM Artists garbage",
            "UPDATE Artists SET Plays = 'x' WHERE Name = 'Sam'",
            "INSERT INTO Artists VALUES ('Sam', TRUE)",
        ],
        ids=["syntax", "type", "arity"],
    )
    def test_failing_text_fails_alike_every_call(self, catalog, text):
        templates = dict(catalog.templates)
        seen = set()
        for _ in range(3):
            with pytest.raises((AqlSyntaxError, ValidationError)) as err:
                parse_statement(text, catalog)
            seen.add((type(err.value), str(err.value), getattr(err.value, "position", None)))
        assert len(seen) == 1
        assert text not in catalog.statements and text not in catalog.seen
        assert catalog.templates == templates

    @pytest.mark.parametrize(
        "text",
        [
            "DELETE FROM Plain WHERE Id = 'x'",
            "UPDATE Artists SET Plays = Plays + 'x' WHERE Name = 'Sam'",
            "SELECT * FROM Plain WHERE Id = -'x'",
            "INSERT INTO Plain VALUES (1, 2)",
            "DELETE FROM Plain WHERE Id = " + "9" * 5000,
        ],
        ids=["type", "delta", "minus", "insert", "huge"],
    )
    def test_text_that_does_not_bind_stores_no_template(self, text):
        cat = private_catalog()
        with pytest.raises((AqlSyntaxError, ValidationError)):
            parse_statement(text, cat)
        assert cat.templates == {} and cat.statements == {} and cat.seen == {}

    def test_one_shape_one_template(self, catalog):
        texts = [f"UPDATE Plain SET Note = 'n{k}' WHERE Id = {k}" for k in range(50)]
        before = set(catalog.templates)
        for k, text in enumerate(texts):
            stmt = parse_statement(text, catalog)
            assert stmt == sch._parse_statement(text, catalog)
            assert stmt.where.value == k and stmt.assignments[0].value == f"n{k}"
        assert set(catalog.templates) - before == {"UPDATE Plain SET Note = ? WHERE Id = ?"}

    def test_template_cache_is_bounded(self):
        cat = parse_schema_text("CREATE TABLE Shapes (K INT PRIMARY KEY, V INT);")
        limit = sch.TEMPLATE_CACHE_LIMIT
        for k in range(limit + 5):
            # Each run of blanks is another shape.
            stmt = parse_statement("DELETE FROM Shapes WHERE K =" + " " * (k + 1) + str(k), cat)
            assert stmt.where.value == k
            assert len(cat.templates) <= limit
        assert len(cat.templates) == 5

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM Plain WHERE Id = ٣",
            "SELECT * FROM Plain WHERE Id = -٣",
            "INSERT INTO Plain VALUES (1٣, 'al1234')",
            "SELECT * FROM Plain WHERE Id = -12",
            "SELECT * FROM Plain WHERE Id = - 12",
            "SELECT * FROM Plain WHERE Id = -0",
            "UPDATE Artists SET Plays = Plays - 12 WHERE Name = 'al1234'",
            "UPDATE Artists SET Active = TRUE WHERE Name = 'it''s ٣'",
            "SELECT * FROM Plain WHERE Note = 'Col1'",
        ],
    )
    def test_edge_literals_bind_like_the_full_parse(self, text):
        cat = private_catalog()
        expected = sch._parse_statement(text, cat)
        for _ in range(3):  # a template miss, a template hit, then a text cache hit
            stmt = parse_statement(text, cat)
            assert (stmt, repr(stmt)) == (expected, repr(expected))
        assert cat.templates

    @pytest.mark.parametrize(
        "schema, text",
        [
            ("CREATE TABLE T (Col1 INT PRIMARY KEY, al1234 INT);", "SELECT al1234 FROM T WHERE Col1 = 1"),
            ("CREATE TABLE T (K INT PRIMARY KEY, Col INT);", "SELECT Col FROM T WHERE K = 1"),
            ("CREATE TABLE T (K VARCHAR PRIMARY KEY);", "SELECT * FROM T WHERE K = -'x'"),
            ("CREATE TABLE T (K VARCHAR PRIMARY KEY);", "SELECT * FROM T WHERE K = -5"),
            ("CREATE TABLE T (K INT PRIMARY KEY, Col INT);", "SELECT Col٣ FROM T"),
            ("CREATE TABLE T (K INT PRIMARY KEY);", "SELECT * FROM T WHERE K = 1 ?"),
            ("CREATE TABLE T (K VARCHAR PRIMARY KEY);", "SELECT * FROM T WHERE K = '?'"),
        ],
        ids=["digits-in-identifiers", "column", "minus-string", "minus-on-varchar",
             "unicode-digit-after-identifier", "question-mark", "question-mark-in-string"],
    )
    def test_edge_shapes_answer_like_the_full_parse(self, schema, text):
        cat = parse_schema_text(schema)
        try:
            expected = sch._parse_statement(text, cat)
        except (AqlSyntaxError, ValidationError) as err:
            expected = (type(err), str(err))
        for _ in range(3):  # as in test_edge_literals_bind_like_the_full_parse
            try:
                got = parse_statement(text, cat)
            except (AqlSyntaxError, ValidationError) as err:
                got = (type(err), str(err))
            assert got == expected

    def test_statements_are_immutable(self, catalog):
        insert = parse_statement("INSERT INTO Artists VALUES ('Sam', TRUE, 0)", catalog)
        update = parse_statement(
            "UPDATE Artists SET Active = FALSE, Plays = Plays + 2 WHERE Name = 'Sam'", catalog
        )
        select = parse_statement("SELECT Name FROM Artists", catalog)
        with pytest.raises(AttributeError):
            insert.table = "Albums"
        with pytest.raises(TypeError):
            insert.values["Name"] = "Ana"
        with pytest.raises(AttributeError):
            update.where.value = "Ana"
        with pytest.raises(AttributeError):
            update.assignments[0].value = True
        assert isinstance(update.assignments, tuple)
        assert select.columns == ("Name",)

    def test_same_schema_text_same_catalog(self):
        assert parse_schema_text(MUSIC) is parse_schema_text(MUSIC)

    def test_params_bind_through_the_template(self, catalog):
        text = "UPDATE Artists SET Active = ?, Plays = Plays - ? WHERE Name = ?"
        stmt = parse_statement(text, catalog, (False, 2, "it's"))
        assert stmt == parse_statement("UPDATE Artists SET Active = FALSE, Plays = Plays - 2 WHERE Name = 'it''s'", catalog)
        assert text in catalog.templates and text not in catalog.statements
        # A shape first seen as literals serves parameters too, and back.
        literal = parse_statement("DELETE FROM Plain WHERE Id = 4", catalog)
        assert parse_statement("DELETE FROM Plain WHERE Id = ?", catalog, [4]) == literal

    @pytest.mark.parametrize(
        "params, literal",
        [
            (("yes", 1, "Sam"), "UPDATE Artists SET Active = 'yes', Plays = Plays - 1 WHERE Name = 'Sam'"),
            ((True, -1, "Sam"), "UPDATE Artists SET Active = TRUE, Plays = Plays - -1 WHERE Name = 'Sam'"),
            ((True, "1", "Sam"), "UPDATE Artists SET Active = TRUE, Plays = Plays - '1' WHERE Name = 'Sam'"),
            ((True, 1, 7), "UPDATE Artists SET Active = TRUE, Plays = Plays - 1 WHERE Name = 7"),
        ],
        ids=["set", "negative-delta", "string-delta", "where"],
    )
    def test_param_of_the_wrong_type_fails_as_its_literal(self, catalog, params, literal):
        text = "UPDATE Artists SET Active = ?, Plays = Plays - ? WHERE Name = ?"
        with pytest.raises((AqlSyntaxError, ValidationError)) as want:
            parse_statement(literal, catalog)
        with pytest.raises(type(want.value)) as got:
            parse_statement(text, catalog, params)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("params", [(1,), (1, 2, 3), (1.5, 2), (None, 2)])
    def test_param_count_and_kind_are_validated(self, catalog, params):
        with pytest.raises(ValidationError):
            parse_statement("UPDATE Plain SET Note = ? WHERE Id = ?", catalog, params)

    def test_question_mark_without_params_is_a_syntax_error(self, catalog):
        with pytest.raises(AqlSyntaxError, match="unexpected character '\\?' at offset 29"):
            parse_statement("DELETE FROM Plain WHERE Id = ?", catalog)

    def test_statement_cache_is_bounded(self):
        cat = parse_schema_text("CREATE TABLE Bounded (K INT PRIMARY KEY);")
        limit = sch.STATEMENT_CACHE_LIMIT
        for k in range(limit + 5):
            for _ in range(2):  # a text is kept on its second parse
                stmt = parse_statement(f"DELETE FROM Bounded WHERE K = {k}", cat)
                assert stmt.where.value == k
                assert len(cat.statements) <= limit and len(cat.seen) <= limit
        assert len(cat.statements) == 5

    def test_schema_cache_is_bounded(self):
        limit = sch.SCHEMA_CACHE_LIMIT
        for k in range(limit + 5):
            cat = parse_schema_text(f"CREATE TABLE S{k} (K INT PRIMARY KEY);")
            assert cat.table(f"S{k}").primary_key == "K"
            assert len(sch._catalogs) <= limit


def test_catalog_lookups(catalog):
    albums = catalog.table("Albums")
    assert albums.column("Genre") is albums.columns[3]
    assert albums.has_column("Stock") and not albums.has_column("Nope")
    with pytest.raises(ValidationError):
        albums.column("Nope")
    assert [c.name for c in albums.non_pk_columns] == ["Artist", "Stock", "Genre"]
    assert catalog.referencing("Albums") == ()
    assert catalog.referencing("Artists") is catalog.referencing("Artists")
