"""§4 — the data-analysis substrate itself.

The paper reports that its SQL-Server warehouse ran whole-table
statistics at 30% of the time of a hand-optimised C pass over the raw
traces, and justifies the two-fact-table design by the cost of touching
every record.  This bench measures our equivalents: columnar fact-table
construction throughput and instance-table (second fact table) build
throughput over the study's records: the columnar table's segment
reductions, without the row views.
"""

from repro.analysis.sessions import frame_instances
from repro.analysis.warehouse import TraceWarehouse

from benchmarks.conftest import print_header, print_row


def test_sec4_warehouse_build(benchmark, study):
    wh = benchmark(TraceWarehouse.from_study, study)
    rate = study.total_records / benchmark.stats.stats.mean
    print_header("Section 4: warehouse construction")
    print_row("trace fact-table rows", "-", str(wh.n_records))
    print_row("load throughput", "-", f"{rate / 1e6:.2f}M records/s")
    assert wh.n_records == study.total_records


def test_sec4_instance_build(benchmark, warehouse):
    table = benchmark(frame_instances, warehouse.record_frame(),
                      warehouse.machine_idx, warehouse.file_info)
    rate = warehouse.n_records / benchmark.stats.stats.mean
    print_header("Section 4: instance (second fact table) construction")
    print_row("instances built", "-", str(len(table)))
    print_row("build throughput", "-", f"{rate / 1e6:.2f}M records/s")
    # The two-fact-table design's premise: instances are far fewer than
    # records, so per-session queries avoid touching the raw table.
    assert len(table) < warehouse.n_records / 3
