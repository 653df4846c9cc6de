"""The benchmark's workloads, driven from one thread over the public API.

Every workload uses the built-in fuzz schema (Artists <- Albums <- Reviews,
plus the policy-free Accounts table) on three replicas. Inputs come from the
workload seed alone. Each client is a closed loop: it waits for a call to
return before it makes the next one.

A workload object is used in three phases: ``setup()`` builds the cluster,
``step()`` runs one block of work with the same make-up every time and may
be called any number of times, and ``gate()`` checks that the outputs are
correct. Any wrong output raises BenchFailure.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from aqldb import engine, schema as sch, sim
from aqldb.errors import AqlError
from aqldb.txn import TxStatus
from calib import RefClock

REPLICAS = ["r1", "r2", "r3"]
REVIEW_SEQUENCE = "review_id"


class BenchFailure(Exception):
    """An output of the program differs from what the benchmark expects."""


@dataclass
class Tally:
    """What a workload's measured loop observed."""

    op_ms: list[float] = field(default_factory=list)
    kind_ms: dict[str, list[float]] = field(default_factory=dict)
    commits: int = 0
    aborts: int = 0
    abort_kinds: dict[str, int] = field(default_factory=dict)
    deliver_records: int = 0
    deliver_s: float = 0.0
    converge_ms: list[float] = field(default_factory=list)
    suite_s: list[float] = field(default_factory=list)

    def kind(self, kind: str, ms: float) -> None:
        self.kind_ms.setdefault(kind, []).append(ms)

    def abort(self, err: AqlError) -> None:
        self.aborts += 1
        self.abort_kinds[err.kind] = self.abort_kinds.get(err.kind, 0) + 1


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


def verb(sql: str) -> str:
    return sql.split(None, 1)[0].lower()


class KeySet:
    """Keys in a list with O(1) add, remove and seeded random choice."""

    def __init__(self):
        self.items: list = []
        self.where: dict = {}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, key) -> None:
        self.where[key] = len(self.items)
        self.items.append(key)

    def remove(self, key) -> None:
        i = self.where.pop(key)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.where[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


def canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def audit(cluster: sim.Cluster, catalog: sch.Catalog) -> list[str]:
    """The simulator's invariant audit, called through the sim module so a
    tracer sees it: integrity and checks at every replica, lock safety."""
    problems = list(cluster.locks.safety_violations())
    for rid in cluster.replica_ids:
        store = cluster.replica(rid).store
        problems += [f"{rid}: {p}" for p in sim.integrity_violations(store, catalog)]
        problems += [f"{rid}: {p}" for p in sim.constraint_violations(store, catalog)]
    return problems


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}/{seed}/ops")
        self.tally = Tally()
        self.attempted = 0
        self.tracer = None  # set by the traced run, to tag request ids
        # Every time a workload records is read from this clock; the
        # measured run swaps in one that runs at reference speed.
        self.clock = RefClock(enabled=False)

    def request(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.set_request(label)

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def gate(self) -> None:
        raise NotImplementedError

    def fingerprint(self):
        """What a traced and an untraced run of one seed must agree on."""
        raise NotImplementedError

    def info(self) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed next to the gated metrics."""
        return {}


def _next_txid(rep: engine.Replica) -> str:
    # Replica.begin names transactions <rid>-t<n>; predicting the id lets
    # the begin span itself carry it.
    return f"{rep.rid}-t{rep.txn_counter + 1}"


# --------------------------------------------------------------------------
# point-large: point transactions over a large FK chain, checked by a model


class ChainModel:
    """Dict-based prediction of the visible Artists/Albums/Reviews state."""

    def __init__(self):
        self.artists: dict[str, list] = {}  # name -> [active, plays]
        self.albums: dict[str, list] = {}  # title -> [artist, stock, genre]
        self.reviews: dict[int, list] = {}  # id -> [album, stars]
        self.keys = {"Artists": KeySet(), "Albums": KeySet(), "Reviews": KeySet()}
        self.albums_of: dict[str, set] = {}
        self.reviews_of: dict[str, set] = {}
        self.childless = KeySet()  # artists no visible album references
        self.last_review = 0
        self.serial = 0

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def add_artist(self, name: str, active: bool, plays: int) -> None:
        self.artists[name] = [active, plays]
        self.keys["Artists"].add(name)
        self.albums_of[name] = set()
        self.childless.add(name)

    def add_album(self, title: str, artist: str, stock: int, genre: str) -> None:
        self.albums[title] = [artist, stock, genre]
        self.keys["Albums"].add(title)
        self.reviews_of[title] = set()
        self._link(title, artist)

    def add_review(self, rid: int, album: str, stars: int) -> None:
        self.reviews[rid] = [album, stars]
        self.keys["Reviews"].add(rid)
        self.reviews_of[album].add(rid)
        self.last_review = rid

    def _link(self, title: str, artist: str) -> None:
        if not self.albums_of[artist]:
            self.childless.remove(artist)
        self.albums_of[artist].add(title)

    def _unlink(self, title: str, artist: str) -> None:
        self.albums_of[artist].discard(title)
        if not self.albums_of[artist]:
            self.childless.add(artist)

    def move_album(self, title: str, artist: str) -> None:
        self._unlink(title, self.albums[title][0])
        self.albums[title][0] = artist
        self._link(title, artist)

    def delete_review(self, rid: int) -> None:
        album = self.reviews.pop(rid)[0]
        self.keys["Reviews"].remove(rid)
        self.reviews_of[album].discard(rid)

    def delete_album(self, title: str) -> None:
        for rid in list(self.reviews_of[title]):
            self.delete_review(rid)
        del self.reviews_of[title]
        self._unlink(title, self.albums.pop(title)[0])
        self.keys["Albums"].remove(title)

    def delete_artist(self, name: str) -> None:
        del self.artists[name], self.albums_of[name]
        self.keys["Artists"].remove(name)
        self.childless.remove(name)

    def select(self, table: str, pk) -> list[dict]:
        if table == "Artists":
            row = self.artists.get(pk)
            return [dict(zip(("Name", "Active", "Plays"), [pk, *row]))] if row else []
        if table == "Albums":
            row = self.albums.get(pk)
            return [dict(zip(("Title", "Artist", "Stock", "Genre"), [pk, *row]))] if row else []
        row = self.reviews.get(pk)
        return [dict(zip(("Id", "Album", "Stars"), [pk, *row]))] if row else []

    def dump(self) -> dict[str, list[str]]:
        def lines(rows: dict) -> list[str]:
            return [
                ",".join(canon(v) for v in (pk, *rows[pk]))
                for pk in sorted(rows, key=canon)
            ]

        return {
            "Accounts": [],
            "Albums": lines(self.albums),
            "Artists": lines(self.artists),
            "Reviews": lines(self.reviews),
        }


GENRES = ("rock", "jazz", "folk", "soul", "punk")
PK = {"Artists": "Name", "Albums": "Title", "Reviews": "Id"}


def _lit(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int):
        return str(value)
    return f"'{value}'"


class PointLarge(Workload):
    """Point SELECT / UPDATE / INSERT / DELETE-by-pk transactions, one at a
    time and rotated across replicas, each followed by deliver_all.

    One step is a deck of 40 transactions (DECK) in seeded order. Every deck has
    the same make-up, so runs of different seeds do the same mix of work,
    and the rare cascading album delete is 1 in 40: p95 then falls inside
    the Reviews operations rather than on the edge between two kinds. Ops on
    Albums (1.2k rows) are the middle third of the deck, so the p50 falls
    inside them too, not on the steep edge between them and the Reviews ops.
    """

    name = "point-large"
    ROWS = 4000
    BATCH = 250
    # (kind, table): transactions per deck.
    DECK = {
        ("select", "Artists"): 3, ("select", "Albums"): 6, ("select", "Reviews"): 5,
        ("update", "Artists"): 3, ("update", "Albums"): 6, ("update", "Reviews"): 3,
        ("insert", "Artists"): 1, ("insert", "Albums"): 3, ("insert", "Reviews"): 4,
        ("delete", "Artists"): 1, ("delete", "Albums"): 1, ("delete", "Reviews"): 4,
    }

    def __init__(self, seed: int, root: Path, rows: int = ROWS):
        super().__init__(seed, root)
        self.rows = rows
        self.txns = 0

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/{self.rows}/preload")
        self.catalog = sch.parse_schema_text(sim.FUZZ_SCHEMA)
        self.cluster = sim.Cluster(self.catalog, REPLICAS)
        model = self.model = ChainModel()
        n_artists = self.rows // 10
        n_albums = self.rows * 3 // 10
        n_reviews = self.rows - n_artists - n_albums
        rep = self.cluster.replica(REPLICAS[0])
        work = []
        for _ in range(n_artists):
            name, active, plays = model.fresh("ar"), rng.random() < 0.5, rng.randrange(100)
            model.add_artist(name, active, plays)
            work.append(f"INSERT INTO Artists VALUES ('{name}', {_lit(active)}, {plays})")
        for _ in range(n_albums):
            title = model.fresh("al")
            artist = model.keys["Artists"].choice(rng)
            stock, genre = rng.randrange(20), rng.choice(GENRES)
            model.add_album(title, artist, stock, genre)
            work.append(f"INSERT INTO Albums VALUES ('{title}', '{artist}', {stock}, '{genre}')")
        for _ in range(n_reviews):
            album = model.keys["Albums"].choice(rng)
            stars = 1 + rng.randrange(5)
            model.add_review(model.last_review + 1, album, stars)
            work.append((album, stars))
        expect_id = 0
        for i in range(0, len(work), self.BATCH):
            self.clock.tick()
            tx = rep.begin()
            for item in work[i:i + self.BATCH]:
                if isinstance(item, str):
                    rep.execute(tx, item)
                    continue
                expect_id += 1
                self._insert_review(rep, tx, expect_id, *item)
            self.cluster.commit(tx)
        self.cluster.deliver_all()

    @staticmethod
    def _insert_review(rep, tx, expect_id: int, album: str, stars: int) -> None:
        rid = rep.next_sequential_id(tx, REVIEW_SEQUENCE)
        if rid != expect_id:
            raise BenchFailure(f"review sequence gave {rid}, expected {expect_id}")
        rep.execute(tx, f"INSERT INTO Reviews VALUES ({rid}, '{album}', {stars})")

    def _plan(self, kind: str, table: str):
        """Fill in one transaction: (sql or review tuple, expected SELECT
        result, model update to apply after commit)."""
        rng, model = self.rng, self.model
        if kind == "select":
            if rng.random() < 0.1:
                pk = model.fresh("gone") if table != "Reviews" else model.last_review + 1000
            else:
                pk = model.keys[table].choice(rng)
            sql = f"SELECT * FROM {table} WHERE {PK[table]} = {_lit(pk)}"
            return sql, model.select(table, pk), None
        if kind == "update":
            pk = model.keys[table].choice(rng)
            where = f"WHERE {PK[table]} = {_lit(pk)}"
            if table == "Artists":
                row = model.artists[pk]
                if rng.random() < 0.5:
                    active = rng.random() < 0.5
                    return f"UPDATE Artists SET Active = {_lit(active)} {where}", None, \
                        lambda: row.__setitem__(0, active)
                k = 1 + rng.randrange(5)
                return f"UPDATE Artists SET Plays = Plays + {k} {where}", None, \
                    lambda: row.__setitem__(1, row[1] + k)
            if table == "Albums":
                row = model.albums[pk]
                what = rng.choices(("take", "give", "genre", "artist"), (30, 20, 30, 20))[0]
                if what == "take" and row[1] > 0:
                    k = 1 + rng.randrange(min(row[1], 4))
                    return f"UPDATE Albums SET Stock = Stock - {k} {where}", None, \
                        lambda: row.__setitem__(1, row[1] - k)
                if what in ("take", "give"):
                    k = 1 + rng.randrange(4)
                    return f"UPDATE Albums SET Stock = Stock + {k} {where}", None, \
                        lambda: row.__setitem__(1, row[1] + k)
                if what == "genre":
                    genre = rng.choice(GENRES)
                    return f"UPDATE Albums SET Genre = '{genre}' {where}", None, \
                        lambda: row.__setitem__(2, genre)
                artist = model.keys["Artists"].choice(rng)
                return f"UPDATE Albums SET Artist = '{artist}' {where}", None, \
                    lambda: model.move_album(pk, artist)
            row = model.reviews[pk]
            stars = 1 + rng.randrange(5)
            return f"UPDATE Reviews SET Stars = {stars} {where}", None, \
                lambda: row.__setitem__(1, stars)
        if kind == "insert":
            if table == "Artists":
                name, active, plays = model.fresh("ar"), rng.random() < 0.5, rng.randrange(100)
                return f"INSERT INTO Artists VALUES ('{name}', {_lit(active)}, {plays})", \
                    None, lambda: model.add_artist(name, active, plays)
            if table == "Albums":
                title, artist = model.fresh("al"), model.keys["Artists"].choice(rng)
                stock, genre = rng.randrange(20), rng.choice(GENRES)
                return f"INSERT INTO Albums VALUES ('{title}', '{artist}', {stock}, '{genre}')", \
                    None, lambda: model.add_album(title, artist, stock, genre)
            album, stars = model.keys["Albums"].choice(rng), 1 + rng.randrange(5)
            rid = model.last_review + 1
            return (album, stars), None, lambda: model.add_review(rid, album, stars)
        if table == "Artists" and not model.childless:
            table = "Reviews"
        if table == "Artists":
            pk = model.childless.choice(rng)
            return f"DELETE FROM Artists WHERE Name = '{pk}'", None, \
                lambda: model.delete_artist(pk)
        pk = model.keys[table].choice(rng)
        if table == "Albums":
            return f"DELETE FROM Albums WHERE Title = '{pk}'", None, \
                lambda: model.delete_album(pk)
        return f"DELETE FROM Reviews WHERE Id = {pk}", None, \
            lambda: model.delete_review(pk)

    def step(self) -> None:
        deck = [plan for plan, n in self.DECK.items() for _ in range(n)]
        self.rng.shuffle(deck)
        for kind, table in deck:
            self._transaction(kind, table)

    def _transaction(self, kind: str, table: str) -> None:
        sql, expected, apply = self._plan(kind, table)
        rep = self.cluster.replica(REPLICAS[self.txns % len(REPLICAS)])
        self.txns += 1
        self.attempted += 1
        self.request(_next_txid(rep))
        clock = self.clock
        clock.tick()
        t0 = clock()
        try:
            tx = rep.begin()
            t1 = clock()
            if isinstance(sql, tuple):
                self._insert_review(rep, tx, self.model.last_review + 1, *sql)
                result = None
            else:
                result = rep.execute(tx, sql)
            t2 = clock()
            self.cluster.commit(tx)
        except AqlError as err:
            raise BenchFailure(f"{kind} transaction failed: {err.kind}: {err} ({sql!r})") from err
        t3 = clock()
        records = self.cluster.deliver_all()
        t4 = clock()
        if expected is not None and result != expected:
            raise BenchFailure(f"{sql!r} returned {result!r}, the model expects {expected!r}")
        if apply is not None:
            apply()
        t = self.tally
        t.commits += 1
        t.op_ms.append((t3 - t0) * 1e3)
        t.kind("begin", (t1 - t0) * 1e3)
        t.kind(kind, (t2 - t1) * 1e3)
        t.kind("commit", (t3 - t2) * 1e3)
        t.deliver_records += records
        t.deliver_s += t4 - t3

    def gate(self) -> None:
        self.request("gate")
        want = self.model.dump()
        for rid in REPLICAS:
            got = engine.dump_all(self.cluster.replica(rid).store, self.catalog)
            if got != want:
                for table in want:
                    if got.get(table) != want[table]:
                        extra = sorted(set(got.get(table, [])) - set(want[table]))[:3]
                        missing = sorted(set(want[table]) - set(got.get(table, [])))[:3]
                        raise BenchFailure(
                            f"{rid} {table} differs from the model: extra {extra}, missing {missing}"
                        )
        if not self.cluster.converged():
            raise BenchFailure("replicas did not converge")
        problems = audit(self.cluster, self.catalog)
        if problems:
            raise BenchFailure(f"audit: {problems[:3]}")

    def fingerprint(self):
        return _cluster_fingerprint(self.cluster, self.tally)

    def info(self) -> dict[str, tuple[float, str]]:
        return _oltp_info(self.tally)


def _cluster_fingerprint(cluster: sim.Cluster, tally: Tally):
    canons = tuple(sim.store_canon(cluster.replica(rid).store) for rid in cluster.replica_ids)
    return canons, tally.commits, tally.aborts, cluster.deliveries


def _oltp_info(t: Tally) -> dict[str, tuple[float, str]]:
    out = {}
    for kind in ("select", "update", "insert", "delete", "begin", "commit"):
        if t.kind_ms.get(kind):
            out[f"{kind}_p50_ms"] = (statistics.median(t.kind_ms[kind]), "ms")
    attempted = t.commits + t.aborts
    out["abort_ratio"] = (t.aborts / attempted if attempted else 0.0, "ratio")
    if t.deliver_s > 0:
        out["deliver_rps"] = (t.deliver_records / t.deliver_s, "1/s")
    if t.converge_ms:
        out["converge_ms"] = (statistics.median(t.converge_ms), "ms")
    return out


# --------------------------------------------------------------------------
# contended-small: interleaved transactions on a hot key set, with partitions


class ContendedSmall(Workload):
    """Four interleaved clients on three replicas hit a small hot key set;
    partitions come and go and build delivery backlogs.

    One step is BLOCK scheduler ticks. A tick moves the next client, round
    robin, by one call, or delivers on a fixed cadence. Statement kinds are
    dealt from a shuffled deck and transactions cycle through 1, 2 and 3
    statements, so every block has nearly the same make-up."""

    name = "contended-small"
    CLIENTS = 4
    HOT = 0.8  # share of statements that target a hot key
    BLOCK = 1000  # scheduler ticks per step()
    PARTITION_EVERY = 240  # ticks between partitions
    FRESH_PER_REPLICA = 10  # new keys each replica mints, so the store stays small
    PARTITION_FOR = 80
    # (table, preloaded rows, hot rows)
    SIZES = (("Artists", 16, 3), ("Albums", 36, 4), ("Reviews", 40, 6), ("Accounts", 8, 2))
    # Statement kinds, with their count in one deck.
    MIX = (
        ("acct_spend", 12), ("acct_credit", 6), ("acct_select", 5),
        ("acct_delete", 1), ("acct_reinsert", 2),
        ("stock_spend", 10), ("stock_credit", 5), ("genre", 8), ("album_artist", 4),
        ("album_delete", 1), ("album_reinsert", 3), ("album_new", 2),
        ("artist_active", 6), ("artist_plays", 6), ("artist_delete", 1), ("artist_reinsert", 2),
        ("review_stars", 6), ("review_delete", 1), ("review_reinsert", 4), ("review_new", 2),
        ("select", 10),
    )

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.ticks = 0
        self.begun = 0
        self.turn = 0
        self.deck: list[str] = []
        self.minted = {rid: 0 for rid in REPLICAS}
        self.partitioned = False
        self.next_switch = self.PARTITION_EVERY
        # client -> [transaction or None, statements left, begin time, label]
        self.clients = [[None, [], 0.0, ""] for _ in range(self.CLIENTS)]
        self.ledger: dict[tuple, int] = {}

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/preload")
        self.catalog = sch.parse_schema_text(sim.FUZZ_SCHEMA)
        self.cluster = sim.Cluster(self.catalog, REPLICAS)
        self.keys = {}
        for table, rows, hot in self.SIZES:
            prefix = {"Artists": "art", "Albums": "alb", "Accounts": "acct"}.get(table)
            self.keys[table] = ([f"{prefix}{i}" for i in range(rows)] if prefix
                                else list(range(1, rows + 1)), hot)
        self.initial = {}
        stmts = []
        for name in self.keys["Artists"][0]:
            stmts.append(f"INSERT INTO Artists VALUES ('{name}', TRUE, {rng.randrange(10)})")
        for title in self.keys["Albums"][0]:
            artist = rng.choice(self.keys["Artists"][0])
            self.initial[title] = artist
            stmts.append(f"INSERT INTO Albums VALUES ('{title}', '{artist}', {5 + rng.randrange(10)}, 'rock')")
        for rid in self.keys["Reviews"][0]:
            album = rng.choice(self.keys["Albums"][0])
            self.initial[rid] = album
            stmts.append(f"INSERT INTO Reviews VALUES ({rid}, '{album}', {1 + rng.randrange(5)})")
        for owner in self.keys["Accounts"][0]:
            stmts.append(f"INSERT INTO Accounts VALUES ('{owner}', {20 + rng.randrange(30)})")
        rep = self.cluster.replica(REPLICAS[0])
        tx = rep.begin()
        for sql in stmts:
            rep.execute(tx, sql)
        self.cluster.commit(tx)
        self._record_ledger(tx)
        self.cluster.deliver_all()

    def _record_ledger(self, tx) -> None:
        for (table, pk), write in tx.buffer.items():
            for col, delta in write.deltas.items():
                key = (table, pk, col)
                self.ledger[key] = self.ledger.get(key, 0) + delta

    def _key(self, table: str):
        keys, hot = self.keys[table]
        if self.rng.random() < self.HOT:
            return keys[self.rng.randrange(hot)]
        return keys[hot + self.rng.randrange(len(keys) - hot)]

    def _statement(self, rep: engine.Replica) -> str:
        rng = self.rng
        if not self.deck:
            self.deck = [what for what, n in self.MIX for _ in range(n)]
            rng.shuffle(self.deck)
        what = self.deck.pop()
        if what in ("album_new", "review_new"):
            if self.minted[rep.rid] < self.FRESH_PER_REPLICA:
                self.minted[rep.rid] += 1
            else:
                what = what.replace("_new", "_reinsert")
        k = 1 + rng.randrange(4)
        if what.startswith("acct"):
            owner = self._key("Accounts")
            where = f"WHERE Owner = '{owner}'"
            return {
                "acct_spend": f"UPDATE Accounts SET Balance = Balance - {k} {where}",
                "acct_credit": f"UPDATE Accounts SET Balance = Balance + {k} {where}",
                "acct_select": f"SELECT * FROM Accounts {where}",
                "acct_delete": f"DELETE FROM Accounts {where}",
                "acct_reinsert": f"INSERT INTO Accounts VALUES ('{owner}', {k * 5})",
            }[what]
        if what in ("stock_spend", "stock_credit", "genre", "album_artist", "album_delete", "album_reinsert"):
            title = self._key("Albums")
            where = f"WHERE Title = '{title}'"
            return {
                "stock_spend": f"UPDATE Albums SET Stock = Stock - {k} {where}",
                "stock_credit": f"UPDATE Albums SET Stock = Stock + {k} {where}",
                "genre": f"UPDATE Albums SET Genre = '{rng.choice(GENRES)}' {where}",
                "album_artist": f"UPDATE Albums SET Artist = '{self._key('Artists')}' {where}",
                "album_delete": f"DELETE FROM Albums {where}",
                "album_reinsert": f"INSERT INTO Albums VALUES ('{title}', '{self.initial[title]}', {k}, 'rock')",
            }[what]
        if what == "album_new":
            # Fresh keys are minted per replica, so no two replicas ever
            # create the same bounded counter.
            title = rep.next_unique_id()
            return f"INSERT INTO Albums VALUES ('{title}', '{self._key('Artists')}', {k}, 'jazz')"
        if what.startswith("artist"):
            name = self._key("Artists")
            where = f"WHERE Name = '{name}'"
            return {
                "artist_active": f"UPDATE Artists SET Active = {_lit(rng.random() < 0.5)} {where}",
                "artist_plays": f"UPDATE Artists SET Plays = Plays + {k} {where}",
                "artist_delete": f"DELETE FROM Artists {where}",
                "artist_reinsert": f"INSERT INTO Artists VALUES ('{name}', TRUE, {k})",
            }[what]
        if what == "review_new":
            serial = int(rep.next_unique_id().rsplit("-", 1)[1])
            rid = 10_000 + serial * len(REPLICAS) + REPLICAS.index(rep.rid)
            return f"INSERT INTO Reviews VALUES ({rid}, '{self._key('Albums')}', {1 + rng.randrange(5)})"
        if what.startswith("review"):
            rid = self._key("Reviews")
            return {
                "review_stars": f"UPDATE Reviews SET Stars = {1 + rng.randrange(5)} WHERE Id = {rid}",
                "review_delete": f"DELETE FROM Reviews WHERE Id = {rid}",
                "review_reinsert": f"INSERT INTO Reviews VALUES ({rid}, '{self.initial[rid]}', {k})",
            }[what]
        table = rng.choice(("Artists", "Albums", "Reviews"))
        return f"SELECT * FROM {table} WHERE {PK[table]} = {_lit(self._key(table))}"

    def step(self) -> None:
        for _ in range(self.BLOCK):
            self._tick()

    def _tick(self) -> None:
        self.clock.tick()
        self.ticks += 1
        if self.ticks >= self.next_switch:
            self._switch_partition()
        if self.ticks % 32 == 0:
            self._deliver(None)
        elif self.ticks % 8 == 0:
            self._deliver(REPLICAS[self.ticks // 8 % len(REPLICAS)])
        else:
            self.turn += 1
            self._advance(self.clients[self.turn % self.CLIENTS])

    def _deliver(self, rid: str | None) -> None:
        self.request("net")
        t0 = self.clock()
        n = self.cluster.deliver_all() if rid is None else self.cluster.pump(rid)
        self.tally.deliver_s += self.clock() - t0
        self.tally.deliver_records += n

    def _switch_partition(self) -> None:
        self.request("net")
        if not self.partitioned:
            cut = 1 + self.rng.randrange(len(REPLICAS) - 1)
            order = REPLICAS[:]
            self.rng.shuffle(order)
            self.cluster.partition([sorted(order[:cut]), sorted(order[cut:])])
            self.partitioned = True
            self.next_switch = self.ticks + self.PARTITION_FOR
            return
        self.partitioned = False
        self.next_switch = self.ticks + self.PARTITION_EVERY
        clock = self.clock
        t0 = clock()
        self.cluster.heal()
        t1 = clock()
        n = self.cluster.deliver_all()
        t2 = clock()
        ok = self.cluster.converged()
        t3 = clock()
        if not ok:
            raise BenchFailure(f"replicas differ after heal and deliver_all at tick {self.ticks}")
        self.tally.converge_ms.append((t3 - t0) * 1e3)
        self.tally.deliver_records += n
        self.tally.deliver_s += t2 - t1

    def _advance(self, client: list) -> None:
        tx, script, began, label = client
        clock = self.clock
        t = self.tally
        if tx is None:
            rep = self.cluster.replica(REPLICAS[self.begun % len(REPLICAS)])
            self.begun += 1
            label = _next_txid(rep)
            self.request(label)
            began = clock()
            tx = rep.begin()
            t.kind("begin", (clock() - began) * 1e3)
            script = [self._statement(rep) for _ in range(1 + self.begun % 3)]
            client[:] = [tx, script, began, label]
            self.attempted += 1
            return
        self.request(label)
        rep = self.cluster.replica(tx.origin)
        try:
            if script:
                sql = script.pop(0)
                t0 = clock()
                rep.execute(tx, sql)
                t.kind(verb(sql), (clock() - t0) * 1e3)
                return
            t0 = clock()
            self.cluster.commit(tx)
            end = clock()
            t.kind("commit", (end - t0) * 1e3)
            t.commits += 1
            self._record_ledger(tx)
        except AqlError as err:
            # Refusals are the expected price of contention: the engine has
            # aborted the transaction, and the client moves on.
            end = clock()
            if tx.status is TxStatus.ACTIVE:
                raise BenchFailure(f"{tx.txid} raised {err.kind} but stayed active") from err
            t.abort(err)
        t.op_ms.append((end - began) * 1e3)
        client[:] = [None, [], 0.0, ""]

    def gate(self) -> None:
        self.request("gate")
        for client in self.clients:
            tx = client[0]
            if tx is not None and tx.status is TxStatus.ACTIVE:
                self.cluster.replica(tx.origin).abort(tx)
        self.cluster.quiesce()
        if not self.cluster.converged():
            raise BenchFailure("replicas did not converge after quiesce")
        problems = audit(self.cluster, self.catalog)
        for (table, pk, col), expected in sorted(self.ledger.items(), key=repr):
            for rid in REPLICAS:
                row = self.cluster.replica(rid).store.row(table, pk)
                cell = row.cells.get(col) if row is not None else None
                value = cell.value() if cell is not None else None
                if value != expected:
                    problems.append(f"{rid} {table}/{pk}.{col} = {value}, committed deltas sum to {expected}")
        if problems:
            raise BenchFailure(f"{len(problems)} problems, first: {problems[:3]}")

    def fingerprint(self):
        return _cluster_fingerprint(self.cluster, self.tally)

    def info(self) -> dict[str, tuple[float, str]]:
        return _oltp_info(self.tally)


# --------------------------------------------------------------------------
# checker: the developer loop, scenario suite plus audited fuzz runs

SCENARIOS = (
    "bounded_counter_guards_partition",
    "cascade_chain_three_tables",
    "cascade_vs_insert_delete_wins",
    "cascade_vs_touch_update_wins",
    "concurrent_inserts_merge_or_reject",
    "counter_sums_across_partition",
    "delete_vs_insert_delete_wins",
    "delete_vs_insert_update_wins",
    "multivalue_keeps_conflicting_writes",
    "restrict_blocks_parent_delete",
    "stale_reference_after_reinsert",
    "strict_table_locks_across_partition",
    "update_vs_delete_both_policies",
)

# The fuzz runs use FUZZ_SCHEMA without the bound on Albums.Stock. Two fuzz
# clients can insert the same album at once, and with the bound that is the
# concurrent creation of one bounded counter, which the engine gets wrong
# (ROADMAP open item 1). Unbounded, the column is a per-writer counter that
# merges correctly. Accounts.Balance keeps its bound; its rows are created
# under row locks, never concurrently.
_BOUNDED_STOCK = "Stock INT ADDITIVE CHECK (Stock >= 0)"
if _BOUNDED_STOCK not in sim.FUZZ_SCHEMA:
    raise RuntimeError("sim.FUZZ_SCHEMA no longer declares the bounded Albums.Stock")
CHECKER_FUZZ_SCHEMA = sim.FUZZ_SCHEMA.replace(_BOUNDED_STOCK, "Stock INT ADDITIVE")


class Checker(Workload):
    """One step is a pass over the shipped scenarios and then a block of
    seeded fuzz runs with invariant auditing on."""

    name = "checker"
    FUZZ_EVENTS = 200
    FUZZ_PER_PASS = 20

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.fuzz_runs = 0
        self.fuzz_s = 0.0
        self.outcomes: list[tuple] = []

    def setup(self) -> None:
        folder = self.root / "scenarios"
        self.scenarios = [sim.load_scenario(str(folder / f"{name}.aqlsim")) for name in SCENARIOS]

    def step(self) -> None:
        self._suite()
        for _ in range(self.FUZZ_PER_PASS):
            self._fuzz()

    def _check(self, report: sim.Report) -> None:
        self.attempted += 1
        if not report.ok:
            raise BenchFailure(f"{report.name}: {report.failures[:3]}")
        self.tally.commits += report.commits
        self.tally.aborts += report.aborts
        self.tally.deliver_records += report.deliveries
        self.outcomes.append((report.name, report.commits, report.aborts, report.deliveries, len(report.steps)))

    def _suite(self) -> None:
        t0 = self.clock()
        for scenario in self.scenarios:
            self.clock.tick()
            self.request(f"scenario-{scenario.name}")
            self._check(sim.run_scenario(scenario))
        self.tally.suite_s.append(self.clock() - t0)

    def _fuzz(self) -> None:
        seed = self.seed * 100_000 + self.fuzz_runs
        self.fuzz_runs += 1
        self.request(f"fuzz-{seed}")
        config = sim.FuzzConfig(seed=seed, events=self.FUZZ_EVENTS, schema_text=CHECKER_FUZZ_SCHEMA)
        self.clock.tick()
        t0 = self.clock()
        outcome = sim.fuzz(config, shrink=False)
        dt = self.clock() - t0
        self._check(outcome.report)
        digest = hashlib.sha256(outcome.trace_text().encode()).hexdigest()
        self.outcomes.append(("trace", digest))
        self.tally.op_ms.append(dt * 1e3)
        self.fuzz_s += dt

    def gate(self) -> None:
        # Every report was checked as it arrived; nothing is left open.
        if self.attempted == 0:
            raise BenchFailure("the checker ran nothing")

    def fingerprint(self):
        return tuple(self.outcomes)

    def info(self) -> dict[str, tuple[float, str]]:
        t = self.tally
        out = {}
        if self.fuzz_s > 0:
            out["fuzz_seeds_per_s"] = (self.fuzz_runs / self.fuzz_s, "1/s")
        if t.suite_s:
            out["scenario_suite_s"] = (statistics.median(t.suite_s), "s")
        attempted = t.commits + t.aborts
        out["abort_ratio"] = (t.aborts / attempted if attempted else 0.0, "ratio")
        return out


WORKLOADS = {cls.name: cls for cls in (PointLarge, ContendedSmall, Checker)}
