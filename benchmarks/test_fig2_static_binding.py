"""Fig. 2 — uniform task size + static input binding limit load balancing.

The worked example: three nodes at 1:1:3 capacity, four one-block tasks,
replication 3.  Stock Hadoop completes tasks 1:1:2 — the fast node cannot
process replicas of in-flight splits.  With many fine-grained BUs, FlexMap
approaches the 1:1:3 capacity shares.
"""

import pytest
from conftest import save_result

from repro.engines import run_job
from repro.experiments.figures import fig2_static_binding
from repro.experiments.report import render_table
from repro.experiments.clusters import three_node_example
from repro.mapreduce.job import JobSpec


def test_fig2_four_block_example(benchmark):
    data = benchmark.pedantic(fig2_static_binding, rounds=1, iterations=1)
    rows = [[e] + vals for e, vals in data.series.items()]
    text = render_table(
        "Fig. 2 -- input share per node (capacity shares: 0.2 / 0.2 / 0.6)",
        ["engine", "slow-a", "slow-b", "fast"],
        rows,
    )
    save_result("fig2_static_binding", text)
    stock = data.series["hadoop-nospec-64"]
    # The fast node (60% of capacity) is pinned at 2-of-4 blocks = 50%.
    assert stock[2] == pytest.approx(0.5)
    assert stock[0] == stock[1] == pytest.approx(0.25)


def test_fig2_flexmap_converges_to_capacity_share(benchmark):
    """With a larger input (many BUs), FlexMap's provisioning approaches the
    fast node's 0.6 capacity share — the balance static binding can't reach."""
    job = JobSpec("fig2-big", input_mb=4096.0, map_cost_s_per_mb=0.625,
                  shuffle_ratio=0.0, num_reducers=0, input_file="fig2-big")

    def run():
        return run_job(three_node_example, job, "flexmap", seed=3)

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    fast_share = sum(
        m.processed_mb for m in r.trace.maps() if m.node == "fast"
    ) / job.input_mb
    save_result(
        "fig2_flexmap_share",
        f"FlexMap fast-node input share on 4 GB: {fast_share:.3f} (capacity share 0.6)",
    )
    assert fast_share > 0.5
