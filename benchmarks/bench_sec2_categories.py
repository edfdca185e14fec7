"""§2 / §6.1 — the five usage categories compared.

The paper's cross-category observations: scientific machines use files an
order of magnitude larger (100–300 MB) but read them in small mapped
portions, so they do not produce the peak loads; the development (pool)
stations do, with their 5–8 MB precompiled-header/incremental-link files.
"""

import numpy as np

from repro.analysis.categories import by_category, format_category_table

from benchmarks.conftest import print_header, print_row


def test_sec2_categories(benchmark, study, warehouse):
    profiles = benchmark(by_category, warehouse, study.duration_ticks)
    print_header("Section 2/6.1: usage categories")
    print(format_category_table(profiles))

    sci = profiles.get("scientific")
    pool = profiles.get("pool")
    walkup = profiles.get("walkup")
    sci_machines = {idx for idx, name in enumerate(warehouse.machine_names)
                    if warehouse.machine_categories.get(name)
                    == "scientific"}
    sci_sizes = [inst.file_size_max for inst in warehouse.instances
                 if inst.machine_idx in sci_machines
                 and not inst.open_failed and inst.has_data]
    if sci is not None and walkup is not None and sci_sizes \
            and walkup.n_data_opens:
        biggest_sci = max(sci_sizes)
        print_row("largest scientific file vs walk-up p90", "10x larger",
                  f"{biggest_sci / max(walkup.p90_file_size, 1):.1f}x")
        # The dataset files are 100-300 MB; nothing on a walk-up machine
        # approaches them.  (The p90s are seed-noisy at this scale since
        # dataset opens are a small fraction of scientific sessions.)
        assert biggest_sci > walkup.p90_file_size
    if sci is not None and pool is not None:
        print_row("pool (dev) throughput vs scientific",
                  "dev produces the peaks",
                  f"{pool.throughput_kbs:.0f} vs {sci.throughput_kbs:.0f}"
                  " KB/s")
    assert len(profiles) >= 4
