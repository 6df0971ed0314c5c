"""The five workloads, by name (the order ``python3 -m bench`` runs them in)."""

from .blas_family import BlasFamily
from .first_result import FirstResult
from .kernel_run import KernelLarge, KernelSmall
from .service_mix import ServiceMix

WORKLOADS = {w.name: w for w in (BlasFamily, FirstResult, KernelLarge, KernelSmall, ServiceMix)}
