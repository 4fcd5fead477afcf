"""LSB steganography over virtual bit planes from integer numeral systems."""

from .image_io import GrayImage, PgmError, read_pgm, write_pgm
from .metrics import DistortionReport, psnr
from .number_systems import (
    SchemeKind,
    WeightScheme,
    WeightTable,
    build_map,
    build_weight_table,
)
from .stego_engine import (
    CapacityError,
    EmbedReport,
    StegoParams,
    capacity,
    embed,
    extract,
    pixel_order,
    plane_luts,
    table_for,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DistortionReport",
    "EmbedReport",
    "GrayImage",
    "PgmError",
    "SchemeKind",
    "StegoParams",
    "WeightScheme",
    "WeightTable",
    "build_map",
    "build_weight_table",
    "capacity",
    "embed",
    "extract",
    "pixel_order",
    "plane_luts",
    "psnr",
    "read_pgm",
    "table_for",
    "write_pgm",
]
