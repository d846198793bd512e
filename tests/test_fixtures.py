"""The bytes of every file ``fixtures.write_fixture_files`` writes.

``perfbench/inputs.py`` builds every benchmark input from these files
and ``perfbench/reference.json`` was recorded on them, so a change to a
fixture, a column list or the writer (CRLF line ends, ``repr`` floats)
must show here before it shows in a benchmark run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from mueflow import fixtures

FILE_SHA256 = {
    "dual_route": {
        "nodes": "a675bbb48e54598b81ac3a0ef6a6fb14fd9555bd6f045a800c81349b4e9e4d3e",
        "links": "817d982794e02105ac7c4911c3d71e1cf125e4fc28f69737078f158790121281",
        "zones": "40d40cc8b036f8c3fcd41b99c69b72d353928a0db021a1dc89dd3d55a606c412",
        "od": "f6c140dc795df9076f29f85de1b88ae24d916db7756f70c48713a2b1a4c6a96c",
        "cost": "e09f7439961df7024ba9b6ef4e36eac124133cb5191b8e8b86988aee492378e1",
    },
    "braess": {
        "nodes": "92c0dbe95da27d7ef2bc0da55a7973907c7841612085ea8d8879e6f53a811ee1",
        "links": "76679e5c5f6b55188936240ab95c0ede34d863d425ca1f02f2ac1c03d5a9525b",
        "zones": "0fa5c4d4927e84d0e98659854d40ad880e58dce3bb878b8bf90c149c9772a3dc",
        "od": "2c73308be56297a32fd7dac80a498e6935a95abc30530a5f08eb5dbd32afa530",
        "cost": "c94b2c8ea408202b0d47061914c45d1dafe06648d7d2f6158b4051e2caa6ddf3",
    },
    "grid3x3": {
        "nodes": "5d644979a00c86b0280c1898333d444a2107da8d1469b33ce10b36bae657cb07",
        "links": "26429fd593cd1556197da6e0b33489bc9fa0203580a7dd9bb2b975a43f605b80",
        "zones": "83b192e9ee129d42d485ec29a23f184d39f86f3cd83b691de0eec213f897e71e",
        "od": "6447f795b11b284b728105c3f49769b1890ff83c8875c7ad51caac4c831cb0f4",
        "cost": "372240f14b33a0be4c6e66b8b0889d9dd9fcaab96fbfcf705dc95fcb31c70435",
    },
    "grid10x10": {
        "nodes": "a310ed99741b02868198159f09f6d9b2b4828922d6e5d59de53ae82d110b066d",
        "links": "a7c0a54162889c46033d782a3a2e98a2e02cb68f89889b515414f5502f88f0f0",
        "zones": "4e71189bdee95355df840091bac02198a7ff6672bf2ee2704857a7299f24b9d6",
        "od": "3519607e38cb362f365a37d4b528b0536c6fb59407235e8d61a650790c8d8df1",
        "cost": "8dc06e69f312f891e168149b98a24e42e93fd83dc7fa52e0c3b4a1349c84677d",
    },
    "mini_city": {
        "nodes": "8f7c113233d761faae1abee70e4b998917dd5aeda5c396362eb3e6e3fa65edb6",
        "links": "1563b07f347553814b4ccf1d1ac9cc581ead8fa631a5eea47eae18c792d23e8d",
        "zones": "12eea7ce6d58c2bc217dc72b860851f324f29ec266393e4dc6cb26af349c9554",
        "od": "56a24617d796ad620b9835d99d3245d49628052cbb5a0b0057c4afe13a6c1a0b",
        "cost": "05a9caf753fd86e314bb00f7058888fc7476d414c50575b0380007e2de932e30",
    },
}


@pytest.mark.parametrize("name", list(fixtures.FIXTURES))
def test_fixture_file_bytes_are_pinned(name, tmp_path):
    paths = fixtures.write_fixture_files(name, tmp_path)
    got = {kind: hashlib.sha256(Path(path).read_bytes()).hexdigest()
           for kind, path in paths.items()}
    assert got == FILE_SHA256.get(name)
