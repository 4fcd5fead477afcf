"""LSB steganography over virtual bit planes from integer numeral systems.

The public names load on first use (PEP 562), so `import planestego` loads
no numpy, and `planestego.cli` can set up the environment before numpy
loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "GrayImage": "image_io",
    "PgmError": "image_io",
    "read_pgm": "image_io",
    "write_pgm": "image_io",
    "DistortionReport": "metrics",
    "psnr": "metrics",
    "SchemeKind": "number_systems",
    "WeightScheme": "number_systems",
    "WeightTable": "number_systems",
    "build_map": "number_systems",
    "build_weight_table": "number_systems",
    "CapacityError": "stego_engine",
    "EmbedReport": "stego_engine",
    "StegoParams": "stego_engine",
    "capacity": "stego_engine",
    "embed": "stego_engine",
    "extract": "stego_engine",
    "pixel_order": "stego_engine",
    "plane_luts": "stego_engine",
    "table_for": "stego_engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
