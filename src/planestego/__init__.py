"""LSB steganography over virtual bit planes from integer numeral systems."""

from .image_io import (
    GrayImage,
    PgmError,
    PgmFormatError,
    TruncatedPgmError,
    UnsupportedDepthError,
    read_pgm,
    write_pgm,
)
from .metrics import DistortionReport, mse, plane_report, psnr
from .number_systems import SchemeKind, WeightScheme, WeightTable, build_weight_table
from .plane_codec import BitplaneMap, build_map, extract_plane, plane_luts
from .stego_engine import (
    CapacityError,
    EmbedReport,
    StegoParams,
    TruncationError,
    capacity,
    embed,
    extract,
    frame,
    pixel_order,
    table_for,
    unframe,
)

__version__ = "0.1.0"

__all__ = [
    "BitplaneMap",
    "CapacityError",
    "DistortionReport",
    "EmbedReport",
    "GrayImage",
    "PgmError",
    "PgmFormatError",
    "SchemeKind",
    "StegoParams",
    "TruncatedPgmError",
    "TruncationError",
    "UnsupportedDepthError",
    "WeightScheme",
    "WeightTable",
    "build_map",
    "build_weight_table",
    "capacity",
    "embed",
    "extract",
    "extract_plane",
    "frame",
    "mse",
    "pixel_order",
    "plane_luts",
    "plane_report",
    "psnr",
    "read_pgm",
    "table_for",
    "unframe",
    "write_pgm",
]
