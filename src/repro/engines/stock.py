"""Stock Hadoop map engine: uniform splits, static input binding.

One map task per fixed-size HDFS block (64 MB default, 128 MB industry
recommended — the two settings of Fig. 5/6).  Containers prefer splits with
a local replica; a node with none left waits :data:`LOCALITY_DELAY_S`
(delay scheduling), then runs any pending split with a remote read.  LATE
speculative execution (``speculate=False`` turns it off) re-runs
stragglers; the race and the last-wave offer requests are the base AM's.
"""

from __future__ import annotations

from repro.engines.base import ApplicationMaster, MapAssignment
from repro.engines.registry import register_engine
from repro.engines.speculation import SpeculationManager
from repro.hdfs.locality import LocalityIndex
from repro.mapreduce.split import InputSplit
from repro.yarn.container import Container

#: Delay scheduling: a node whose local splits are exhausted waits this
#: long before accepting remote work, hoping a local split frees up
#: (yarn node-locality-delay).
LOCALITY_DELAY_S = 10.0


@register_engine("hadoop-64", block_size_mb=64.0)
class StockHadoopAM(ApplicationMaster):
    """Fixed-size splits with locality-preferred dispatch."""

    engine_name = "hadoop"

    def __init__(self, *args, speculate: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.speculation = SpeculationManager(self, speculate)
        self._wave_counter: dict[str, int] = {}
        self._idle_since: dict[str, float] = {}

    # ------------------------------------------------------------------
    def prepare_maps(self) -> None:
        blocks = self.namenode.blocks_of(self.job.input_file)
        self.index = LocalityIndex(blocks)

    def maps_pending(self) -> bool:
        assert self.index is not None
        return self.index.unprocessed > 0

    def select_map(self, container: Container) -> MapAssignment | None:
        assert self.index is not None
        # With no map running, the offer was routed here because a block is
        # pending (see MapPhaseDriver.offer): the index is read only once.
        if not self.maps.running or self.index.unprocessed > 0:
            return self._dispatch_block(container)
        # Nothing pending: maybe launch a speculative copy.
        return self.speculation.select_speculative(container)

    def _dispatch_block(self, container: Container) -> MapAssignment | None:
        """A pending block for the container: a local one, else a remote
        one once the node has sat out the locality delay."""
        assert self.index is not None
        node_id = container.node_id
        block_id = self.index.min_local_block(node_id)
        if block_id is not None:
            block = self.index.take(block_id)
            if self.obs is not None:
                self.obs.metrics.counter("stock.local_dispatch").inc()
        else:
            # No local split left: delay briefly hoping for local work,
            # then run any pending split remotely.
            idle_since = self._idle_since.setdefault(node_id, self.sim.now)
            waited = self.sim.now - idle_since
            if waited < LOCALITY_DELAY_S:
                # Declined; the heartbeat tick retries every 5 s, which
                # doubles as the "scheduling opportunity" cadence.
                return None
            donor = self.index.busiest_node()
            block = self.index.take(
                self.index.min_local_block(donor)
                if donor is not None
                else next(iter(b.block_id for b in self.index.remaining_blocks()))
            )
            if self.obs is not None:
                self.obs.metrics.counter("stock.remote_dispatch").inc()
                self.obs.trace.emit(
                    "remote_fallback", self.sim.now,
                    node=node_id, waited_s=round(waited, 3),
                )
        self._idle_since.pop(node_id, None)
        wave = self._wave_counter.get(node_id, 0)
        self._wave_counter[node_id] = wave + 1
        return MapAssignment(
            task_id=self.maps.next_task_id(),
            split=InputSplit.for_node([block], node_id),
            wave=wave // max(1, container.node.slots),
        )

    def requeue_map(self, assignment: MapAssignment) -> None:
        """Node failure: the split's blocks return to the locality index
        (HDFS replicas on surviving nodes keep them reachable)."""
        assert self.index is not None
        for block in assignment.split.blocks:
            self.index.put_back(block)

    def on_tick(self, round_no: int) -> None:
        # Nodes sitting out their locality delay need periodic re-offers.
        assert self.index is not None
        if self.index.unprocessed > 0 and any(
            n.alive and n.free_slots > 0 for n in self.cluster.nodes
        ):
            self.rm.request_offers()


# The same class backs three named configurations of the comparison set;
# registered post-definition (not stacked) to keep the historical
# registry insertion order: hadoop-64, hadoop-128, hadoop-nospec-64.
register_engine("hadoop-128", block_size_mb=128.0)(StockHadoopAM)
register_engine("hadoop-nospec-64", block_size_mb=64.0, speculate=False)(StockHadoopAM)
