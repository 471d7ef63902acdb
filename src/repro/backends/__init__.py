"""Hardware abstraction layer: simulated GPU devices and vendor backends.

This package plays the role GPUArrays.jl + KernelAbstractions.jl play in the
paper: a single kernel source targets every registered device, and all
vendor-specific behaviour (precision support, FP16 upcast rules, memory
capacity, warp width, cache sizes) is data, not code.
"""

from .backend import Backend, BackendLike, list_backends, resolve_backend
from .device import DeviceSpec, Vendor, get_device, list_devices, register_device

__all__ = [
    "Backend",
    "BackendLike",
    "DeviceSpec",
    "Vendor",
    "get_device",
    "list_devices",
    "list_backends",
    "register_device",
    "resolve_backend",
]
