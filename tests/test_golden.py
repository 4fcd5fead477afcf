"""Golden vectors pinning the bit-exact wire format.

Stego images outlive the code that wrote them, so these digests must not
change: a refactor that alters them breaks extraction of existing images.
The cover is derived from SHA-256 alone, so it does not depend on numpy's
random streams.
"""

import hashlib

import pytest

from planestego.image_io import GrayImage, write_pgm
from planestego.number_systems import SchemeKind, WeightScheme
from planestego.stego_engine import StegoParams, embed, extract, pixel_order

COVER = GrayImage(
    64, 64, b"".join(hashlib.sha256(b"golden cover %d" % i).digest() for i in range(128))
)
PAYLOAD = b"virtual bit planes, pinned bit-exact"
KEY = b"golden"

# (scheme, Fibonacci order, plane, keyed) -> SHA-256 of write_pgm(stego)
STEGO_SHA256 = {
    ("binary", 1, 0, False): "76105376d997d23ff4bfe70db87a661adff851465c26c320115722683a4b494d",
    ("binary", 1, 0, True): "c19fce224748069d5eae838c5548ee86a6e78bfcbeafc008693f537bb247c12a",
    ("binary", 1, 1, False): "a0950d805a154253a2e75168112e2d2525933ed10a84357958c12e62f0798df7",
    ("binary", 1, 1, True): "72b7c2477e12ddb807e10ca0b87b035956095feb24d69edea171dea103ea4f3a",
    ("binary", 1, 7, False): "a4cc59ae0c7ab231ec05f7a750b3588bdf87bc55f981a6db2677cc18e0e80d2e",
    ("binary", 1, 7, True): "51c08d53900783afc71da431cb2fe397c4237c89fa97b5ec6da70768bda74f2a",
    ("fibonacci", 1, 0, False): "8aff9a0764552b179dff56a0b77e42f4f61c63ce117c543ec7fbde1f29293103",
    ("fibonacci", 1, 0, True): "13449f42b45a087bb5192c6d7a6511da85b992fa34933af6944f930937b65eac",
    ("fibonacci", 1, 1, False): "ace9ba18a231520ded89c84c1c37692e040915fbf37e76918831f52655940a6b",
    ("fibonacci", 1, 1, True): "12932a9bc5d8ec6a0399b9e5841be1ca27d2ac5762780e5257d988b2c32c031b",
    ("fibonacci", 1, 11, False): "4695e19b726957500f09aa2cca74d2df03bddf1c450449e3ae4b50c6e9c93e0b",
    ("fibonacci", 1, 11, True): "e9e93e81ed26354f529c9a6be5e1bc9c4fb087554ab268048d8ebe711420bef6",
    ("prime", 1, 0, False): "197c96f76f5e53920b34c212324f8171129b184837fe9166d5d8717eb16a37bd",
    ("prime", 1, 0, True): "a682260f426946eaa338deb0c4daf383b47f38641cdec4ed7718892afa209f21",
    ("prime", 1, 1, False): "d84f1fa11728362732f29619a1b179c4896a83c6919b909928ef535f8b985861",
    ("prime", 1, 1, True): "1fba06f3ebc5773f9ff5bf4a45c459cfbff2287b2b5cecfb57e4d8f3f5fcd5c1",
    ("prime", 1, 14, False): "fbe41a68a8324161f54ade8c45626cf45155f3ac17330ef9b5d3b7b3954a0917",
    ("prime", 1, 14, True): "0ff95e5ddd702e2ea2386e48a26652cb7a0fc322fd60cfca995db01b332152c9",
    ("natural", 1, 0, False): "0e2366c963b46dc4afe994db6a503e0fa854ff6734be4f6204f3258fcaf3174d",
    ("natural", 1, 0, True): "2c2877248d3fc4dfcf6e89dd10c6b03b52feb324a1d911920ba8e82d3ea22c38",
    ("natural", 1, 1, False): "bbdd14781cecf9582de4600fe1b64484370fbee5756110cbcc5b8c59aa73b384",
    ("natural", 1, 1, True): "f552b72f28a6a4dd8e0af8eb59b8dc25d6760a9a0ae69b273abbaaf1facf7797",
    ("natural", 1, 22, False): "a29b99c31e8060fc5ba6052eb02c872dd54023fe07978c6c9f47266c0da0880d",
    ("natural", 1, 22, True): "ef56f5ba408a2299da68aff0404daf4a92e6cc3d9618b56ba492a37b169ebc8e",
    ("fibonacci", 2, 0, False): "5cd17ab3a3b33a89d1b3a606f49650fa55756fed4882e826001884f693a58b75",
    ("fibonacci", 2, 0, True): "376b860db95f13c3481667e8bf5568b2a42f6d666732bebece583467413c0079",
}

ORDER_PREFIX = {
    (64, 64): [642, 1259, 2155, 3225, 3983, 1227, 4090, 3693,
               942, 1278, 3202, 748, 3196, 3054, 1771, 3256],
    (7, 5): [16, 6, 14, 15, 18, 19, 22, 27, 0, 17, 11, 1, 24, 31, 5, 29],
}


@pytest.mark.parametrize("case", sorted(STEGO_SHA256), ids=str)
def test_stego_digest(case):
    name, p, plane, keyed = case
    params = StegoParams(
        WeightScheme(SchemeKind(name), p=p), plane=plane, key=KEY if keyed else None
    )
    stego, _ = embed(COVER, PAYLOAD, params)
    assert hashlib.sha256(write_pgm(stego)).hexdigest() == STEGO_SHA256[case]
    assert extract(stego, params) == PAYLOAD


@pytest.mark.parametrize("size", sorted(ORDER_PREFIX), ids=str)
def test_keyed_order_prefix(size):
    assert pixel_order(*size, KEY)[:16].tolist() == ORDER_PREFIX[size]
