"""SPEC CPU2017 last-level-cache traffic characterization (Section IV-C).

The paper simulates SPECrate CPU2017 on a Skylake-like core with Sniper and
feeds the resulting 16 MB LLC access statistics (reads, writes, execution
time per benchmark) into NVMExplorer.  Sniper and the SPEC binaries are not
available offline, so this module ships a characterization table whose LLC
read/write rates are consistent with published SPEC2017 LLC MPKI studies:
a ~4 GHz 8-core part, per-benchmark LLC read MPKI of roughly 0.2-25 and
write (dirty writeback) MPKI of roughly 0.05-12.

``repro.cachesim`` can regenerate a table of the same form from synthetic
address streams (see README.md, "Substitutions"); the studies accept either
source because both are just lists of :class:`TrafficPattern`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traffic.base import TrafficPattern

#: 64-byte cache lines.
LLC_LINE_BYTES = 64

#: Aggregate instruction throughput of the simulated 8-core part, inst/s.
_AGGREGATE_IPS = 2.0e10


@dataclass(frozen=True)
class SpecBenchmark:
    """One SPEC CPU2017 benchmark's LLC behaviour."""

    name: str
    suite: str  # "SPECint" | "SPECfp"
    llc_read_mpki: float
    llc_write_mpki: float

    @property
    def reads_per_second(self) -> float:
        return self.llc_read_mpki * _AGGREGATE_IPS / 1000.0

    @property
    def writes_per_second(self) -> float:
        return self.llc_write_mpki * _AGGREGATE_IPS / 1000.0


#: Characterization table: LLC MPKI values representative of SPECrate 2017
#: on a 16 MB inclusive LLC (read MPKI = LLC loads, write MPKI = dirty
#: writebacks).  Memory-bound benchmarks (mcf, lbm, bwaves...) sit at the
#: top; compute-bound ones (exchange2, leela...) at the bottom.
SPEC2017_BENCHMARKS: tuple[SpecBenchmark, ...] = (
    SpecBenchmark("600.perlbench_s", "SPECint", 0.9, 0.35),
    SpecBenchmark("602.gcc_s", "SPECint", 5.2, 2.6),
    SpecBenchmark("605.mcf_s", "SPECint", 24.8, 7.4),
    SpecBenchmark("620.omnetpp_s", "SPECint", 10.3, 4.9),
    SpecBenchmark("623.xalancbmk_s", "SPECint", 4.1, 1.3),
    SpecBenchmark("625.x264_s", "SPECint", 1.2, 0.5),
    SpecBenchmark("631.deepsjeng_s", "SPECint", 1.6, 0.7),
    SpecBenchmark("641.leela_s", "SPECint", 0.4, 0.15),
    SpecBenchmark("648.exchange2_s", "SPECint", 0.2, 0.05),
    SpecBenchmark("657.xz_s", "SPECint", 6.4, 3.1),
    SpecBenchmark("603.bwaves_s", "SPECfp", 18.5, 6.2),
    SpecBenchmark("607.cactuBSSN_s", "SPECfp", 7.9, 3.8),
    SpecBenchmark("619.lbm_s", "SPECfp", 22.1, 11.8),
    SpecBenchmark("621.wrf_s", "SPECfp", 6.8, 2.9),
    SpecBenchmark("627.cam4_s", "SPECfp", 4.6, 1.9),
    SpecBenchmark("628.pop2_s", "SPECfp", 5.8, 2.4),
    SpecBenchmark("638.imagick_s", "SPECfp", 0.6, 0.2),
    SpecBenchmark("644.nab_s", "SPECfp", 1.1, 0.4),
    SpecBenchmark("649.fotonik3d_s", "SPECfp", 14.2, 5.6),
    SpecBenchmark("654.roms_s", "SPECfp", 9.7, 4.2),
)


def spec_traffic(benchmark: SpecBenchmark) -> TrafficPattern:
    """LLC traffic for one benchmark."""
    return TrafficPattern(
        name=benchmark.name,
        reads_per_second=benchmark.reads_per_second,
        writes_per_second=benchmark.writes_per_second,
        access_bytes=LLC_LINE_BYTES,
        metadata={"suite": benchmark.suite, "kind": "spec2017"},
    )


def spec2017_suite() -> list[TrafficPattern]:
    """LLC traffic for the full SPEC CPU2017 characterization table."""
    return [spec_traffic(b) for b in SPEC2017_BENCHMARKS]


def benchmark_by_name(name: str) -> SpecBenchmark:
    """Look up one benchmark (exact or suffix-tolerant match)."""
    for bench in SPEC2017_BENCHMARKS:
        if bench.name == name or bench.name.split(".")[-1] == name:
            return bench
    raise KeyError(f"unknown SPEC2017 benchmark: {name!r}")
