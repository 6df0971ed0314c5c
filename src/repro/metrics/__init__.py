"""Lines-of-code and rewrite-count metrics (Figures 6c, 9, 13c); the
kernels a build is sized on are in ``repro.metrics.kernels``."""

from .loc import count_loc, function_loc, generated_c_loc

__all__ = ["count_loc", "function_loc", "generated_c_loc"]
