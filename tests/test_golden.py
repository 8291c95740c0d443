"""Byte-level golden digests of the construction's outputs.

Each digest is the SHA-256 of a canonical rendering: the exact standard
output of ``build-extender --json`` (the input file is addressed by a
relative path, so the report holds no temporary directory), or the sorted
faces and both certificates of a gadget.  A refactor of the construction
must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from extenders import partition_extender
from extenders.cli import main

COMPLEXES = {
    "bowtie": [[1, 2, 3], [3, 4, 5]],
    "k4_plus_edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [5, 6], [7, 8]],
    "triangle_boundary": [[1, 2], [1, 3], [2, 3]],
    "edge_plus_vertex": [[1, 2], [3]],
    "triangle_boundary_plus_vertex": [[1, 2], [1, 3], [2, 3], [4]],
    "mixed": [[1, 2, 3], [3, 4], [5], [4, 5, 6, 7]],
}

# None: the input is not pure, so the command exits 2 with no report.
PURE_REPORTS = {
    "bowtie": "6e0b34975330c28ddfb994c638b584d528b7da60a5e6d5932afd5393200efb81",
    "k4_plus_edges": "300825cf4abd373af220219bcd209bad3aa7e4a2eac8ea754504b806f0dcb241",
    "triangle_boundary": "d87aad25767f2d28f25c9b31d4e9ae790d51ad7cb1841c4d2547c27f8a7d1df9",
    "edge_plus_vertex": None,
    "triangle_boundary_plus_vertex": None,
    "mixed": None,
}

NONPURE_REPORTS = {
    "bowtie": "6e0b34975330c28ddfb994c638b584d528b7da60a5e6d5932afd5393200efb81",
    "k4_plus_edges": "300825cf4abd373af220219bcd209bad3aa7e4a2eac8ea754504b806f0dcb241",
    "triangle_boundary": "d87aad25767f2d28f25c9b31d4e9ae790d51ad7cb1841c4d2547c27f8a7d1df9",
    "edge_plus_vertex": "0bc2ebfd929f21861f7877471959dd3e74f427b8ee84315d3cfce1a46dc22efe",
    "triangle_boundary_plus_vertex": "38adfbf7dbb9a7c7d5158d49d5cdd8474bde1b49db9524bd9f73b69748cca3ab",
    "mixed": "ba5150b1bb78ecf82a9a27cc2fa713eedcb19ac1f62248886edae1f1d05b24bb",
}

GADGETS = {
    (0, -1): "94dd7d84ae9d6c7e36998d908623d7ebc5f1508080e02ef91b2ee53c843dedcc",
    (0, 0): "89dce36924a59ab8e414b0901aa8e7aa34fb75d7fd3dcfc06c3c3a421571cb40",
    (1, -1): "2958a635923d35dfec78d4187ff0b8e5276fbf9444ceace086fe58eb66f1d335",
    (1, 0): "b23d712ea9d2e881d1cf1a4e17f3b0849cbc510f5a838d4aff70f93a8d4500c8",
    (1, 1): "fd79cd3d8dc42063fec2c29b6257363c5faeab73ef09c03b012a94f911aef25e",
    (2, -1): "70ee6006779e31407be1f4535d21ec6f759267ea9e6496c0f2ccc15262577eb7",
    (2, 0): "0e1cb3bc1537dbb66db7b80cb981211d6c193dc35fb67511b9c9e6fc2a537215",
    (2, 1): "dd1ce5a6ed9254f79d7762ce74d4a90f400b7837111f98c82d6fd8e17dff5c47",
    (2, 2): "acb84c017c424aa851a4472f83dd1303a45acbae80ec8db3424b9bd562cf6f45",
    (3, -1): "6ad2db50fbf0dc6f3a2b3cff61bbd585afea69cd76d4e41e759499f3932bbd36",
    (3, 0): "87674a8c7600d61213077a0b68fc20fc3b8946618e280f299788ee6c23ba87c7",
    (3, 1): "2cdfd29b68ef65a7ae0a467a223ec5601395e789635f2419dd979bf7da31a71e",
    (3, 2): "796accc134abf1b4b04bc29f449e3f248cb50cd471a6a6de6cbe2f7e90f1e488",
    (3, 3): "b88ee820e43c1525188a1968adaa02fc0aa94ee598f4df6f52455ed4a54bf574",
    (4, -1): "0ff65e0d5a085b59d23948e47ac0dcfd803112244526e7cc6abc5f7ea8c03564",
    (4, 0): "619b0ad6881c3bcb290067d195b141b5af3d9aa09d33056edf20f5537a06fd57",
    (4, 1): "ba14bb102da756ace1a8b09820acd45866c0f4cf478084ed5273078ee7236508",
    (4, 2): "47c6baf249022347e94c5a79dd65f4332f54eda928fc048a6a4de270866e9f5a",
    (4, 3): "05e36005f2d6c55bbcf039e7e8d2720aa7da86b3dd2a1446f614a5fb2acede8b",
    (4, 4): "4d1452bf9fae8b137c01440a5abbd31740ea32bc9761a0a6dd3aeec5d1983e49",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _build(name, tmp_path, monkeypatch, capsys, *flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps({"facets": COMPLEXES[name]}))
    status = main(["build-extender", f"{name}.json", "--json", *flags])
    return status, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(PURE_REPORTS))
def test_build_extender_report_digest(name, tmp_path, monkeypatch, capsys):
    status, out = _build(name, tmp_path, monkeypatch, capsys)
    if PURE_REPORTS[name] is None:
        assert (status, out) == (2, "")
    else:
        assert status == 0
        assert _sha(out) == PURE_REPORTS[name]


@pytest.mark.parametrize("name", sorted(NONPURE_REPORTS))
def test_nonpure_build_extender_report_digest(name, tmp_path, monkeypatch, capsys):
    status, out = _build(name, tmp_path, monkeypatch, capsys, "--nonpure")
    assert status == 0
    assert _sha(out) == NONPURE_REPORTS[name]


def _gadget_rendering(d, k):
    marked = partition_extender(d, k)
    without = marked.without_face_partition
    return json.dumps({
        "faces": [sorted(f) for f in marked.complex.sorted_faces()],
        "with_face": marked.with_face_partition.to_records(),
        "without_face": None if without is None else without.to_records(),
    }, sort_keys=True)


@pytest.mark.parametrize("dk", sorted(GADGETS))
def test_partition_extender_digest(dk):
    assert _sha(_gadget_rendering(*dk)) == GADGETS[dk]
