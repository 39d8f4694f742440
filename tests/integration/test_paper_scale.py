"""Paper-scale pin: the full Elk1993 corpus at the Section 5.3
parameters (ε = 27, MinLns = 9, suppression 2) gives byte-identical
labels, ε-graph and representatives.

Every performance change to the partition, graph, sweep or
representative layers must leave these digests where they are.  The fit
takes a few seconds and peaks at roughly 0.7 GB, so the test is marked
``slow``.
"""

import hashlib

import numpy as np
import pytest

from repro import TraclusConfig
from repro.api.workspace import Workspace
from repro.datasets.starkey import generate_elk1993


def md5_of(*arrays):
    digest = hashlib.md5(usedforsecurity=False)
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.slow
def test_full_elk1993_digests():
    workspace = Workspace(
        generate_elk1993(),
        TraclusConfig(eps=27.0, min_lns=9.0, suppression=2.0),
    )
    result = workspace.fit()
    graph = workspace.eps_graph(27.0)
    assert len(result.segments) == 29541
    assert md5_of(np.asarray(result.labels, dtype=np.int64)) == (
        "e913dbbb213775e4521eaec2fe348a72"
    )
    assert md5_of(graph.indptr, graph.indices, graph.data) == (
        "d083f03a8ed3f68ff429e015d26559d8"
    )
    assert md5_of(*(np.asarray(cluster.representative, dtype=np.float64)
                    for cluster in result.clusters)) == (
        "675e65d496ffc99caf1a516b8af9ebd5"
    )
