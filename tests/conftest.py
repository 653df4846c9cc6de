import collections

import pytest

from aqldb.sim import Cluster


@pytest.fixture()
def broadcasts(monkeypatch):
    """The records each Cluster broadcasts, in broadcast order, keyed by
    cluster. A Cluster keeps no history of its own: it drops a record once
    every destination has merged it."""
    sent = collections.defaultdict(list)
    broadcast = Cluster._broadcast

    def recording(cluster, record):
        sent[cluster].append(record)
        broadcast(cluster, record)

    monkeypatch.setattr(Cluster, "_broadcast", recording)
    return sent
