"""Unit tests for HDFS blocks, placement, NameNode and the locality index."""

import numpy as np
import pytest

from repro.hdfs.block import Block
from repro.hdfs.locality import LocalityIndex
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import RandomPlacement


def blocks_for(replicas_map):
    return [
        Block(block_id=i, file="f", size_mb=8.0, replicas=tuple(reps))
        for i, reps in enumerate(replicas_map)
    ]


# ---------------------------------------------------------------------------
# Block
# ---------------------------------------------------------------------------
def test_block_locality_and_work():
    b = Block(1, "f", 8.0, replicas=("a", "b"), cost_factor=1.5)
    assert b.is_local_to("a") and not b.is_local_to("c")
    assert b.work_mb == 12.0


def test_block_validation():
    with pytest.raises(ValueError):
        Block(1, "f", 0.0)
    with pytest.raises(ValueError):
        Block(1, "f", 8.0, cost_factor=0.0)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
def test_random_placement_distinct_nodes():
    p = RandomPlacement()
    out = p.place(50, ["a", "b", "c", "d"], replication=3, rng=np.random.default_rng(0))
    for reps in out:
        assert len(set(reps)) == 3


def test_replication_capped_by_cluster_size():
    p = RandomPlacement()
    out = p.place(3, ["a", "b"], replication=3, rng=np.random.default_rng(0))
    assert all(len(reps) == 2 for reps in out)


# ---------------------------------------------------------------------------
# RandomPlacement's batched kernel against per-block Generator.choice
# ---------------------------------------------------------------------------
def choice_per_block(num_blocks, node_ids, replication, rng):
    """The loop the kernel replaces: one ``choice`` call per block."""
    r = min(replication, len(node_ids))
    return [
        tuple(node_ids[int(p)] for p in rng.choice(len(node_ids), size=r, replace=False))
        for _ in range(num_blocks)
    ]


def next_draws(rng):
    """The generator's next 64-bit and 32-bit draws (its state, observed)."""
    return rng.integers(2**63), rng.integers(2**32, dtype=np.uint32)


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 39, 100])
def test_placement_kernel_equals_per_block_choice(seed, n):
    nodes = [f"n{i:03d}" for i in range(n)]
    for replication in (1, 2, 3, 4):
        for num_blocks in (0, 1, 2, 8, 2048):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = choice_per_block(num_blocks, nodes, replication, want_rng)
            got = RandomPlacement().place(num_blocks, nodes, replication, got_rng)
            assert got == want, (replication, num_blocks)
            assert next_draws(got_rng) == next_draws(want_rng), (replication, num_blocks)


def _raw_zero_next(seed):
    """A generator whose next raw 32-bit draw is 0 (a buffered half-word)."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("n", [5, 39])
@pytest.mark.parametrize("num_blocks", [1, 8])
def test_placement_kernel_rejects_a_raw_zero_like_choice(n, num_blocks):
    # The first draw is bounded to [0, n-2]; neither 3 nor 37 is a power of
    # two, so Lemire's method rejects a raw 0 and both take the next draw.
    nodes = [f"n{i:02d}" for i in range(n)]
    want_rng, got_rng = _raw_zero_next(3), _raw_zero_next(3)
    want = choice_per_block(num_blocks, nodes, 3, want_rng)
    got = RandomPlacement().place(num_blocks, nodes, 3, got_rng)
    assert got == want
    assert next_draws(got_rng) == next_draws(want_rng)


class ScriptedDraws:
    """Serves scripted raw 32-bit draws where a Generator's would be read."""

    def __init__(self, raws):
        self.raws = list(raws)
        self.taken = 0

    def integers(self, high, size, dtype):
        assert high == 2**32 and dtype == np.uint32
        out = np.array(self.raws[self.taken:self.taken + size], dtype=np.uint32)
        self.taken += size
        return out


def test_placement_kernel_skips_a_rejected_draw_and_takes_one_more():
    nodes = ["a", "b", "c", "d", "e"]  # bounds 3, 4, 5 then 3, 2 per block
    raws = np.random.default_rng(11).integers(1, 2**32, size=3 * 5, dtype=np.uint32)
    plain = ScriptedDraws(raws)
    want = RandomPlacement().place(3, nodes, 3, plain)
    assert plain.taken == 15
    # A raw 0 is rejected for the bounds 3 and 5 and accepted for 4 and 2.
    for index, rejected in ((0, True), (1, False), (7, True), (8, True), (9, False)):
        script = ScriptedDraws([*raws[:index], 0, *raws[index:]])
        got = RandomPlacement().place(3, nodes, 3, script)
        if rejected:  # skipped: the draws after it serve as before, plus one
            assert (got, script.taken) == (want, 16)
        else:  # used: the last scripted draw is left over
            assert got != want and script.taken == 15


# ---------------------------------------------------------------------------
# NameNode
# ---------------------------------------------------------------------------
def test_create_file_splits_and_places():
    nn = NameNode(["a", "b", "c"], replication=2)
    blocks = nn.create_file("f", size_mb=100.0, block_size_mb=32.0)
    assert len(blocks) == 4
    assert [b.size_mb for b in blocks] == [32.0, 32.0, 32.0, 4.0]
    assert sum(b.size_mb for b in blocks) == 100.0
    assert all(len(b.replicas) == 2 for b in blocks)


def test_create_file_cost_factors():
    nn = NameNode(["a"], replication=1)
    blocks = nn.create_file("f", 64.0, 16.0, cost_factors=np.array([1.0, 2.0, 0.5, 1.5]))
    assert [b.cost_factor for b in blocks] == [1.0, 2.0, 0.5, 1.5]


def test_duplicate_file_rejected():
    nn = NameNode(["a"])
    nn.create_file("f", 10.0, 5.0)
    with pytest.raises(ValueError):
        nn.create_file("f", 10.0, 5.0)


def test_blocks_on_node():
    nn = NameNode(["a", "b", "c"], replication=1)
    nn.create_file("f", 48.0, 16.0)
    per_node = {
        n: [b for b in nn.blocks_of("f") if b.is_local_to(n)] for n in "abc"
    }
    assert sum(len(blocks) for blocks in per_node.values()) == 3


def test_block_ids_unique_across_files():
    nn = NameNode(["a"])
    b1 = nn.create_file("f1", 10.0, 5.0)
    b2 = nn.create_file("f2", 10.0, 5.0)
    ids = [b.block_id for b in b1 + b2]
    assert len(set(ids)) == len(ids)


def test_namenode_validation():
    with pytest.raises(ValueError):
        NameNode([])
    with pytest.raises(ValueError):
        NameNode(["a"], replication=0)
    nn = NameNode(["a"])
    with pytest.raises(ValueError):
        nn.create_file("f", 0.0, 8.0)


# ---------------------------------------------------------------------------
# LocalityIndex — the NodeToBlock / BlockToNode maps of LTB
# ---------------------------------------------------------------------------
def test_index_initial_maps():
    idx = LocalityIndex(blocks_for([("a", "b"), ("b", "c"), ("a", "c")]))
    assert idx.unprocessed == 3
    assert len(idx.local_blocks("a")) == 2
    assert len(idx.local_blocks("b")) == 2
    assert idx.node_to_block["a"] == {0, 2}
    assert idx.block_to_node[1] == {"b", "c"}


def test_take_removes_from_both_maps():
    idx = LocalityIndex(blocks_for([("a", "b"), ("b", "c")]))
    idx.take(0)
    assert idx.unprocessed == 1
    assert idx.local_blocks("a") == []
    assert 0 not in idx.block_to_node
    assert idx.node_to_block["b"] == {1}


def test_take_twice_raises():
    idx = LocalityIndex(blocks_for([("a",)]))
    idx.take(0)
    with pytest.raises(KeyError):
        idx.take(0)


def test_put_back_restores():
    blocks = blocks_for([("a", "b")])
    idx = LocalityIndex(blocks)
    b = idx.take(0)
    idx.put_back(b)
    assert idx.unprocessed == 1
    assert idx.local_blocks("a") == [b]
    with pytest.raises(KeyError):
        idx.put_back(b)  # not taken anymore


def test_take_for_node_prefers_local():
    idx = LocalityIndex(blocks_for([("a",), ("a",), ("b",), ("b",)]))
    local, remote = idx.take_for_node("a", 2)
    assert len(local) == 2 and len(remote) == 0
    assert all(b.is_local_to("a") for b in local)


def test_take_for_node_falls_back_to_busiest_remote():
    idx = LocalityIndex(blocks_for([("a",), ("b",), ("b",), ("c",)]))
    local, remote = idx.take_for_node("a", 3)
    assert len(local) == 1
    assert len(remote) == 2
    # The busiest donor is "b" with two unprocessed blocks.
    assert remote[0].is_local_to("b")


def test_take_for_node_exhausts_gracefully():
    idx = LocalityIndex(blocks_for([("a",), ("b",)]))
    local, remote = idx.take_for_node("a", 10)
    assert len(local) + len(remote) == 2
    assert idx.unprocessed == 0


def test_each_block_processed_exactly_once():
    reps = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("b", "c")]
    idx = LocalityIndex(blocks_for(reps))
    seen = []
    for node in ["a", "b", "c", "a", "b", "c"]:
        local, remote = idx.take_for_node(node, 1)
        seen.extend(b.block_id for b in local + remote)
    assert sorted(seen) == [0, 1, 2, 3, 4]
    assert idx.unprocessed == 0


def test_busiest_node_excludes_and_tie_breaks():
    idx = LocalityIndex(blocks_for([("a",), ("b",)]))
    assert idx.busiest_node(exclude="a") == "b"
    # tie between a and b -> lexicographic
    assert idx.busiest_node() == "a"


def test_take_for_node_rejects_zero():
    idx = LocalityIndex(blocks_for([("a",)]))
    with pytest.raises(ValueError):
        idx.take_for_node("a", 0)
