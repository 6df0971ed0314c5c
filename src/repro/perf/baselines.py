"""Analytic baseline models for the comparator libraries.

The paper compares Exo 2 generated kernels against Intel MKL, OpenBLAS, BLIS,
Halide, the original Exo, and Gemmini's hand-written library.  Offline we model
each comparator as a tuned library running on the same machine spec:

``runtime = dispatch_overhead + packing_overhead(size)
          + max(flops / flops_per_cycle, bytes / dram_bytes_per_cycle) * efficiency``

The constants are calibrated to the qualitative behaviour the paper reports:
all libraries approach the same bandwidth/compute roofline at large sizes
(ratios → ~1), while generic libraries pay dispatch/packing overheads that
dominate at small sizes (ratios > 1 in Exo 2's favour, largest for the
smallest inputs — compare Figures 8 and 14–19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .model import MachineSpec

__all__ = ["LibraryModel", "library_model", "BASELINES"]


@dataclass
class LibraryModel:
    """An analytic comparator-library performance model."""

    name: str
    dispatch_overhead: float  # cycles per call
    packing_overhead_per_kb: float  # extra cycles per KiB touched (setup/packing)
    efficiency: float  # multiplier on the roofline time (>= 1.0)
    simd_width_bits: int = 256

    def flops_per_cycle(self, precision: str) -> float:
        lanes = self.simd_width_bits // (32 if precision == "f32" else 64)
        return 2.0 * lanes  # one FMA per cycle

    def runtime_cycles(self, spec: MachineSpec, *, flops: float, bytes_moved: float, precision: str = "f32") -> float:
        compute = flops / self.flops_per_cycle(precision)
        memory = bytes_moved / spec.dram_bytes_per_cycle
        roofline = max(compute, memory) * self.efficiency
        packing = self.packing_overhead_per_kb * (bytes_moved / 1024.0)
        return self.dispatch_overhead + packing + roofline


def _mk_baselines(simd_width_bits: int) -> Dict[str, LibraryModel]:
    return {
        # MKL: lowest overhead of the vendor libraries, excellent large-size throughput
        "MKL": LibraryModel("MKL", dispatch_overhead=220.0, packing_overhead_per_kb=1.0, efficiency=1.00, simd_width_bits=simd_width_bits),
        # OpenBLAS: slightly larger dispatch overhead and packing costs
        "OpenBLAS": LibraryModel("OpenBLAS", dispatch_overhead=420.0, packing_overhead_per_kb=1.6, efficiency=1.02, simd_width_bits=simd_width_bits),
        # BLIS: framework dispatch cost close to OpenBLAS
        "BLIS": LibraryModel("BLIS", dispatch_overhead=430.0, packing_overhead_per_kb=1.5, efficiency=1.02, simd_width_bits=simd_width_bits),
        # Halide: ahead-of-time pipelines, modest boundary handling overhead
        "Halide": LibraryModel("Halide", dispatch_overhead=120.0, packing_overhead_per_kb=0.4, efficiency=1.05, simd_width_bits=simd_width_bits),
        # Original Exo: same code-generation model as Exo 2, no library overhead
        "Exo": LibraryModel("Exo", dispatch_overhead=30.0, packing_overhead_per_kb=0.0, efficiency=1.00, simd_width_bits=simd_width_bits),
        # Gemmini's hand-written standard library (paper: ~3.5x slower than Exo)
        "GemminiLib": LibraryModel("GemminiLib", dispatch_overhead=2000.0, packing_overhead_per_kb=6.0, efficiency=3.5, simd_width_bits=simd_width_bits),
    }


BASELINES: Dict[int, Dict[str, LibraryModel]] = {
    256: _mk_baselines(256),
    512: _mk_baselines(512),
}


def library_model(name: str, simd_width_bits: int = 256) -> LibraryModel:
    """Look up a comparator-library model for a given SIMD width."""
    return BASELINES[simd_width_bits][name]
