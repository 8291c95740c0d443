"""Byte-level golden digests of the construction's and the CLI's outputs.

Each digest is the SHA-256 of a canonical rendering: the exact standard
output of a CLI command (input files are addressed by relative paths, so
no report holds a temporary directory), or the sorted faces and both
certificates of a gadget.  A refactor of the construction or of the CLI
must leave every digest, and every pinned exit status, unchanged.
"""

import contextlib
import hashlib
import io
import json

import pytest

from extenders import partition_extender
from extenders.cli import main
from extenders.complexes import face_key

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
    "bowtie": "5c3b5c073996826bf1e640b23a9f45c69393a88bf9ab08523010f8bddaab82f8",
    "k4_plus_edges": "3bcea14d2214737955aefbf18adbcd878437d2f83db565dd894d1bb114d46fb8",
    "triangle_boundary": "04d2cf8e2e4e10bee0449179ec23b47dd401df2978e408fce4dca2af1bc1e3b2",
    "edge_plus_vertex": None,
    "triangle_boundary_plus_vertex": None,
    "mixed": None,
}

NONPURE_REPORTS = {
    "bowtie": "5c3b5c073996826bf1e640b23a9f45c69393a88bf9ab08523010f8bddaab82f8",
    "k4_plus_edges": "3bcea14d2214737955aefbf18adbcd878437d2f83db565dd894d1bb114d46fb8",
    "triangle_boundary": "04d2cf8e2e4e10bee0449179ec23b47dd401df2978e408fce4dca2af1bc1e3b2",
    "edge_plus_vertex": "db8c0cb47d1facbc2a3cc3147b9b7a0ad387addffd5c6ca1598d01e198ab13ee",
    "triangle_boundary_plus_vertex": "8b3f9d5d1c4c5f9e1636f17186745604ebde470b0953009c7356593e91013daf",
    "mixed": "e1f3ce9ad200f954f1aa6e2d0ab3b4ab843ac07bd6c27379d980aecd517795d4",
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
        "faces": [sorted(f) for f in sorted(marked.complex.faces, key=face_key)],
        "with_face": marked.with_face_partition.to_records(),
        "without_face": None if without is None else without.to_records(),
    }, sort_keys=True)


@pytest.mark.parametrize("dk", sorted(GADGETS))
def test_partition_extender_digest(dk):
    assert _sha(_gadget_rendering(*dk)) == GADGETS[dk]


# Every subcommand, in text and --json mode, on the corpus above plus a few
# auxiliary files.  The reports read back by verify-partition are written by
# the CLI itself in the corpus fixture; their bytes are pinned here too.
AUX_FILES = {
    "bowtie.txt": "1 2 3\n3 4 5\n",
    "void.txt": "",
    "triangle_order.txt": "1 2\n1 3\n2 3\n",
    "bowtie_order.json": "[[1, 2, 3], [3, 4, 5]]",
    "short_order.txt": "1 2\n",
    "vertex_order.txt": "4\n",
    "triangle_good.json": json.dumps([
        {"bottom": [], "top": [1, 2]},
        {"bottom": [3], "top": [1, 3]},
        {"bottom": [2, 3], "top": [2, 3]}]),
    "triangle_bad.json": json.dumps([{"bottom": [], "top": [1, 2]}]),
    "vertex_interval.json": json.dumps({"intervals": [{"bottom": [4], "top": [4]}]}),
}
REPORTS = {
    "bowtie.report.json": ["build-extender", "bowtie.json", "--json"],
    "mixed.report.json": ["build-extender", "mixed.json", "--nonpure", "--json"],
    "triangle.partition.json": ["partitionable", "triangle_boundary.json", "--json"],
}

SINGLE_FILES = [f"{name}.json" for name in sorted(COMPLEXES)] + ["bowtie.txt", "void.txt"]
SINGLE_COMMANDS = [
    "info", "partitionable", "build-extender", "build-extender --nonpure",
    "depth", "depth --char 2", "cm-check", "cm-check --char 2",
    "cm-extender", "cm-extender --char 2", "shellable",
]
PAIRS = [
    ("bowtie.json", "triangle_boundary.json"),
    ("mixed.json", "edge_plus_vertex.json"),
    ("triangle_boundary_plus_vertex.json", "triangle_boundary.json"),
    ("triangle_boundary.json", "bowtie.json"),
]
PAIR_COMMANDS = [
    "rel-cm-check {big} {small}", "rel-cm-check {big} {small} --char 2",
    "partitionable {big} --minus {small}", "shellable {big} --minus {small}",
]
OTHER_COMMANDS = [
    "verify-partition triangle_boundary.json triangle_good.json",
    "verify-partition triangle_boundary.json triangle_bad.json",
    "verify-partition triangle_boundary_plus_vertex.json vertex_interval.json "
    "--minus triangle_boundary.json",
    "verify-partition bowtie.report.json",
    "verify-partition mixed.report.json",
    "verify-partition triangle.partition.json",
    "verify-partition tampered.json",
    "shelling-check triangle_boundary.json triangle_order.txt",
    "shelling-check bowtie.json bowtie_order.json",
    "shelling-check triangle_boundary.json short_order.txt",
    "shelling-check triangle_boundary_plus_vertex.json vertex_order.txt "
    "--minus triangle_boundary.json",
    "estimate-size 3 2", "estimate-size 2 5", "estimate-size 4 0",
]
COMMANDS = (
    [f"{cmd} {path}" for cmd in SINGLE_COMMANDS for path in SINGLE_FILES]
    + [cmd.format(big=big, small=small) for cmd in PAIR_COMMANDS for big, small in PAIRS]
    + OTHER_COMMANDS)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for name, facets in COMPLEXES.items():
            (root / f"{name}.json").write_text(json.dumps({"facets": facets}))
        for name, text in AUX_FILES.items():
            (root / name).write_text(text)
        for name, argv in REPORTS.items():
            (root / name).write_text(_run(argv)[1])
        tampered = json.loads((root / "triangle.partition.json").read_text())
        tampered["certificates"][0]["intervals"].pop()
        (root / "tampered.json").write_text(json.dumps(tampered))
    return root


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("mode", ["text", "json"])
def test_subcommand_output_pinned(command, mode, corpus, monkeypatch):
    monkeypatch.chdir(corpus)
    argv = command.split() + (["--json"] if mode == "json" else [])
    status, out = _run(argv)
    assert f"{status} {_sha(out)}" == CLI_PINS[f"{mode}: {command}"]


CLI_PINS = {
    "text: info bowtie.json":
        "0 129be6406526fb7a237d3ff4a1d2d7f1477299260a809cb6994ab9b43fdd5e6f",
    "text: info edge_plus_vertex.json":
        "0 94a215fb49f81161232193e54e8701b72ce57c7a9c76f3e636361961e11f0a81",
    "text: info k4_plus_edges.json":
        "0 6c0b1574e9148486c177da6d408691d76fcf2f17ffc7d4c29ecf45496ea18e27",
    "text: info mixed.json":
        "0 ff5a93626c7c47944d25e5f2f3c7823a4f19011e6340f5e88183b96e719ab830",
    "text: info triangle_boundary.json":
        "0 c463910082b3cd5c07d191b8cc8720ea2de40003b9bf5af0af773555cc447a50",
    "text: info triangle_boundary_plus_vertex.json":
        "0 30462eac6f2f585d2e9d32c22a9534e8d7c0699740e150692e45dd9a85718721",
    "text: info bowtie.txt":
        "0 129be6406526fb7a237d3ff4a1d2d7f1477299260a809cb6994ab9b43fdd5e6f",
    "text: info void.txt":
        "0 94c648fd7934e63237bc499bcdbfea82aa8d13271b0b87e884bbb56113527c23",
    "text: partitionable bowtie.json":
        "1 b47888bed8d3fc304c7fa86cdd07af8cd9e146bccc47df90b06b007408c242cd",
    "text: partitionable edge_plus_vertex.json":
        "0 f3f0fa64eb0714cbc8cb08118f505254657b361954b8d6508868b867cf1df928",
    "text: partitionable k4_plus_edges.json":
        "1 e559cdf670f8fe13cd162c2a854a558f7938ef277b752396a43cc9541d306ae8",
    "text: partitionable mixed.json":
        "1 174622e5f462912c0a69cde9d439715edc16f2db5add8dd6643685da3496164a",
    "text: partitionable triangle_boundary.json":
        "0 9e140207963ed0ea03966dfe3c1e1dac4b4f04f89477c25c4a2194d3fbffec6b",
    "text: partitionable triangle_boundary_plus_vertex.json":
        "0 dd71ffd26c448dff71f054186f30f4a75bf46af63069349d2fa8387514acba5a",
    "text: partitionable bowtie.txt":
        "1 b47888bed8d3fc304c7fa86cdd07af8cd9e146bccc47df90b06b007408c242cd",
    "text: partitionable void.txt":
        "0 11d5961e0d1e58c1b436be783be726f7c716d4ffb8bbd21f3b5ca1bde53f7cb1",
    "text: build-extender bowtie.json":
        "0 dec93ba3ca3b46513caa7ef4b826ddc2c0c986a3e1e4abd7685b6e47d38fef79",
    "text: build-extender edge_plus_vertex.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: build-extender k4_plus_edges.json":
        "0 8cf53dc52a3fc91632a56a02eb019aea57d1965e01b76d1c7edb00ef904ef6f9",
    "text: build-extender mixed.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: build-extender triangle_boundary.json":
        "0 6e90f2327971ef352127779dc0ae9583b1bb55722ff9abdf80c18e5f9d2024ba",
    "text: build-extender triangle_boundary_plus_vertex.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: build-extender bowtie.txt":
        "0 dec93ba3ca3b46513caa7ef4b826ddc2c0c986a3e1e4abd7685b6e47d38fef79",
    "text: build-extender void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: build-extender --nonpure bowtie.json":
        "0 dec93ba3ca3b46513caa7ef4b826ddc2c0c986a3e1e4abd7685b6e47d38fef79",
    "text: build-extender --nonpure edge_plus_vertex.json":
        "0 dd80347ada9548dc71f934e4eb54332f0b5d257596e99b482d9eb1c3185c2e9d",
    "text: build-extender --nonpure k4_plus_edges.json":
        "0 8cf53dc52a3fc91632a56a02eb019aea57d1965e01b76d1c7edb00ef904ef6f9",
    "text: build-extender --nonpure mixed.json":
        "0 748599d8b30d5794957b180e64a63a102103456e177ee2e1d672c8ab4694b50a",
    "text: build-extender --nonpure triangle_boundary.json":
        "0 6e90f2327971ef352127779dc0ae9583b1bb55722ff9abdf80c18e5f9d2024ba",
    "text: build-extender --nonpure triangle_boundary_plus_vertex.json":
        "0 6f39693178fbf405e60a2865ce68280f0d1a622c951049b0e688077351fda7ee",
    "text: build-extender --nonpure bowtie.txt":
        "0 dec93ba3ca3b46513caa7ef4b826ddc2c0c986a3e1e4abd7685b6e47d38fef79",
    "text: build-extender --nonpure void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: depth bowtie.json":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth edge_plus_vertex.json":
        "0 3401121837843578659ce4232f51193057b04f86ddaed70ca28baec70ef5deed",
    "text: depth k4_plus_edges.json":
        "0 3401121837843578659ce4232f51193057b04f86ddaed70ca28baec70ef5deed",
    "text: depth mixed.json":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth triangle_boundary.json":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth triangle_boundary_plus_vertex.json":
        "0 3401121837843578659ce4232f51193057b04f86ddaed70ca28baec70ef5deed",
    "text: depth bowtie.txt":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: depth --char 2 bowtie.json":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth --char 2 edge_plus_vertex.json":
        "0 3401121837843578659ce4232f51193057b04f86ddaed70ca28baec70ef5deed",
    "text: depth --char 2 k4_plus_edges.json":
        "0 3401121837843578659ce4232f51193057b04f86ddaed70ca28baec70ef5deed",
    "text: depth --char 2 mixed.json":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth --char 2 triangle_boundary.json":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth --char 2 triangle_boundary_plus_vertex.json":
        "0 3401121837843578659ce4232f51193057b04f86ddaed70ca28baec70ef5deed",
    "text: depth --char 2 bowtie.txt":
        "0 071434894915cb9af50bc477b0bcf46dfd3e8e64c310d7576d10e6645b0bf405",
    "text: depth --char 2 void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: cm-check bowtie.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check edge_plus_vertex.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check k4_plus_edges.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check mixed.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check triangle_boundary.json":
        "0 969d254b30d3483ea631dea8da8500dc8018e07265b3cf907b09f29017f33b51",
    "text: cm-check triangle_boundary_plus_vertex.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check bowtie.txt":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: cm-check --char 2 bowtie.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check --char 2 edge_plus_vertex.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check --char 2 k4_plus_edges.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check --char 2 mixed.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check --char 2 triangle_boundary.json":
        "0 969d254b30d3483ea631dea8da8500dc8018e07265b3cf907b09f29017f33b51",
    "text: cm-check --char 2 triangle_boundary_plus_vertex.json":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check --char 2 bowtie.txt":
        "1 450d4db8e429f629e863a61b64b44197c9c15e92e9df3977b2de8ff01a58fe92",
    "text: cm-check --char 2 void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: cm-extender bowtie.json":
        "0 37901e1c4548676d3621d29016d8fadce9464ba7a4a6063a637b8af8b765f667",
    "text: cm-extender edge_plus_vertex.json":
        "0 002a434ff0e0d68131bf672d691c275f2ae43606595d587cf4fbe7c175b4dc4e",
    "text: cm-extender k4_plus_edges.json":
        "0 9f26e47bac97b3c6c365970dfd498bdf0d0f3c46fa0a5a016a949e490dbce932",
    "text: cm-extender mixed.json":
        "1 b300a4b663521900c68833bb39aa3e6a1243fce5ba5b05f3e9fc07a3bda9aa79",
    "text: cm-extender triangle_boundary.json":
        "0 e8b55d0f1f85c6618c090132dca455fccd5e3bed7983e5b43c6b5bbc16824d52",
    "text: cm-extender triangle_boundary_plus_vertex.json":
        "0 ecfc438cef2d5cd158595b317b398d1e92a241c559222a18298b623f5bfdf45b",
    "text: cm-extender bowtie.txt":
        "0 37901e1c4548676d3621d29016d8fadce9464ba7a4a6063a637b8af8b765f667",
    "text: cm-extender void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: cm-extender --char 2 bowtie.json":
        "0 37901e1c4548676d3621d29016d8fadce9464ba7a4a6063a637b8af8b765f667",
    "text: cm-extender --char 2 edge_plus_vertex.json":
        "0 002a434ff0e0d68131bf672d691c275f2ae43606595d587cf4fbe7c175b4dc4e",
    "text: cm-extender --char 2 k4_plus_edges.json":
        "0 9f26e47bac97b3c6c365970dfd498bdf0d0f3c46fa0a5a016a949e490dbce932",
    "text: cm-extender --char 2 mixed.json":
        "1 b300a4b663521900c68833bb39aa3e6a1243fce5ba5b05f3e9fc07a3bda9aa79",
    "text: cm-extender --char 2 triangle_boundary.json":
        "0 e8b55d0f1f85c6618c090132dca455fccd5e3bed7983e5b43c6b5bbc16824d52",
    "text: cm-extender --char 2 triangle_boundary_plus_vertex.json":
        "0 ecfc438cef2d5cd158595b317b398d1e92a241c559222a18298b623f5bfdf45b",
    "text: cm-extender --char 2 bowtie.txt":
        "0 37901e1c4548676d3621d29016d8fadce9464ba7a4a6063a637b8af8b765f667",
    "text: cm-extender --char 2 void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: shellable bowtie.json":
        "1 c3639c16a157aaba2278589019097fc405183101df3008b91203387ccb720793",
    "text: shellable edge_plus_vertex.json":
        "0 631ae0310b06a9eef32525e39e9684129cba0e7b33a76adac01cb5c7d3d4596b",
    "text: shellable k4_plus_edges.json":
        "1 ee43aa7970c226a6576f298e3b30481c5eaf28635f69980398fb59386e1f6e49",
    "text: shellable mixed.json":
        "1 434435e1b841538e2da2fb26f24f3a04fbcea488cf84ed5b8dce02476d5bf7de",
    "text: shellable triangle_boundary.json":
        "0 83a522343e42574326ad68b0ebf6916b31ab57a482015f20f145df64eeb12ac7",
    "text: shellable triangle_boundary_plus_vertex.json":
        "0 2fd5db033d26e39e45ad84a9a4db45474c37f4d3f8aad8ceac336e94e391307b",
    "text: shellable bowtie.txt":
        "1 c3639c16a157aaba2278589019097fc405183101df3008b91203387ccb720793",
    "text: shellable void.txt":
        "0 b13aac8c8bde3e71cf7c305a72f4f3343909e7d6d72d194fc351eb47ea120869",
    "text: rel-cm-check bowtie.json triangle_boundary.json":
        "1 7adf60c6ead0d639b4eadc2ef7965089cc9c3a671dc98a38b1cbf201db593229",
    "text: rel-cm-check mixed.json edge_plus_vertex.json":
        "1 7adf60c6ead0d639b4eadc2ef7965089cc9c3a671dc98a38b1cbf201db593229",
    "text: rel-cm-check triangle_boundary_plus_vertex.json triangle_boundary.json":
        "1 7adf60c6ead0d639b4eadc2ef7965089cc9c3a671dc98a38b1cbf201db593229",
    "text: rel-cm-check triangle_boundary.json bowtie.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: rel-cm-check bowtie.json triangle_boundary.json --char 2":
        "1 7adf60c6ead0d639b4eadc2ef7965089cc9c3a671dc98a38b1cbf201db593229",
    "text: rel-cm-check mixed.json edge_plus_vertex.json --char 2":
        "1 7adf60c6ead0d639b4eadc2ef7965089cc9c3a671dc98a38b1cbf201db593229",
    "text: rel-cm-check triangle_boundary_plus_vertex.json triangle_boundary.json --char 2":
        "1 7adf60c6ead0d639b4eadc2ef7965089cc9c3a671dc98a38b1cbf201db593229",
    "text: rel-cm-check triangle_boundary.json bowtie.json --char 2":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: partitionable bowtie.json --minus triangle_boundary.json":
        "1 b47888bed8d3fc304c7fa86cdd07af8cd9e146bccc47df90b06b007408c242cd",
    "text: partitionable mixed.json --minus edge_plus_vertex.json":
        "1 174622e5f462912c0a69cde9d439715edc16f2db5add8dd6643685da3496164a",
    "text: partitionable triangle_boundary_plus_vertex.json --minus triangle_boundary.json":
        "0 fe340bc3fb9b8f4d189fbf1a379c2d9bc570797e9ab02b31e1ce652f0d8564b9",
    "text: partitionable triangle_boundary.json --minus bowtie.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: shellable bowtie.json --minus triangle_boundary.json":
        "1 c3639c16a157aaba2278589019097fc405183101df3008b91203387ccb720793",
    "text: shellable mixed.json --minus edge_plus_vertex.json":
        "1 434435e1b841538e2da2fb26f24f3a04fbcea488cf84ed5b8dce02476d5bf7de",
    "text: shellable triangle_boundary_plus_vertex.json --minus triangle_boundary.json":
        "0 90549640d41eae11644ebf817f7c359ce19f8504fda8cbdc702b1f95a9b6ce97",
    "text: shellable triangle_boundary.json --minus bowtie.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: verify-partition triangle_boundary.json triangle_good.json":
        "0 009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268",
    "text: verify-partition triangle_boundary.json triangle_bad.json":
        "1 405cf7a5728f070f5f97c194920357e6bbf77fb9ded678db7647c8bdba41ce26",
    "text: verify-partition triangle_boundary_plus_vertex.json vertex_interval.json --minus triangle_boundary.json":
        "0 009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268",
    "text: verify-partition bowtie.report.json":
        "0 3f021ef2fd3caa6a5647dfd86f40a5ff07e8a85af21ef84f6a5773507bf33499",
    "text: verify-partition mixed.report.json":
        "0 3f021ef2fd3caa6a5647dfd86f40a5ff07e8a85af21ef84f6a5773507bf33499",
    "text: verify-partition triangle.partition.json":
        "0 9dd3d42f7a814268c5a57b1ae293bccf7fbea4faf3901114c237d953787702ca",
    "text: verify-partition tampered.json":
        "1 b1f66a90004861e578cef0b6f98189d99a78fb18c0eee06a13a6a312f5dce4df",
    "text: shelling-check triangle_boundary.json triangle_order.txt":
        "0 7ba15e9807e4c5f7c424dc00d86957d2ff1d9b788e47a7b734aa8887af994f19",
    "text: shelling-check bowtie.json bowtie_order.json":
        "1 22c5cd50f634bb8acfb7166e9a23c1302c36491714aeeb9e7766fe605d66c3b5",
    "text: shelling-check triangle_boundary.json short_order.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: shelling-check triangle_boundary_plus_vertex.json vertex_order.txt --minus triangle_boundary.json":
        "0 7ba15e9807e4c5f7c424dc00d86957d2ff1d9b788e47a7b734aa8887af994f19",
    "text: estimate-size 3 2":
        "0 196260f2c61b3010fed98d27523e3bfbe5e68764c3bda701729d5cd923ef7229",
    "text: estimate-size 2 5":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "text: estimate-size 4 0":
        "0 601c1593c8e10ae30a9aa4979b693acde244cc9d64331d3900da6b0330ff0d2a",
    "json: info bowtie.json":
        "0 e53e118565414addc695b1e7a76c9e43b5bf7800fda23af8eb4059144d1f06a6",
    "json: info edge_plus_vertex.json":
        "0 6ff6d39571d546c434610e2473d0a06ad709632ed664f1dd3dcbddd2f4a1f289",
    "json: info k4_plus_edges.json":
        "0 02281a1e0830ace5567f2cdd976bbe0acfef936984b46577b0c349e9f0ab6b49",
    "json: info mixed.json":
        "0 35e823fe191916d381e4477b0c2b1f07b497d74d9f8de6f331d24701e03a3444",
    "json: info triangle_boundary.json":
        "0 e1232a635ac4894ef61379482bc89e183880ec1de46fcd6f0af36faa38fbaecb",
    "json: info triangle_boundary_plus_vertex.json":
        "0 f8cb0724a37c79709f84720529935e5caf04e7919e758ab28a108f810df39404",
    "json: info bowtie.txt":
        "0 df9c6da834b7e1f7e1ed9c2df0b47bbfa5b82a31eaf64cac53741341b64ae4f4",
    "json: info void.txt":
        "0 302a649ba401d673d6c7383e0976b47156e20a70fdb11509f14ec1a9cd2a5f4c",
    "json: partitionable bowtie.json":
        "1 f89cb690077bb577cd7db7eb217e3c7887a7a7210ddaa9cf7d92c6b27c1fe576",
    "json: partitionable edge_plus_vertex.json":
        "0 70eb9d5fca76e2e715e42fc69ed6ec41e9eb81ab509337862709f8e6f11fdcbc",
    "json: partitionable k4_plus_edges.json":
        "1 53468c6e795ea3584e88e164795fb332723c268ff6006d144e7fd4613a336a50",
    "json: partitionable mixed.json":
        "1 1feb0eab76d0b47256597085e906f627fb65a0e13a0bab211e412d0cc04d4ca8",
    "json: partitionable triangle_boundary.json":
        "0 999c9424eec79d01e7fd2e3bbfcd549d4bdc67634d301687c19d8aa566c790e1",
    "json: partitionable triangle_boundary_plus_vertex.json":
        "0 f5cce373b678259668d6a7a8d2b464f1378b5e560976b6b9fff1e57a8ea7c5d3",
    "json: partitionable bowtie.txt":
        "1 83ba3440b5221ecedd34fc0ba1a9aa6fc4dddfb8d7d1b5fd2e8200abbb6b9025",
    "json: partitionable void.txt":
        "0 e9f92efa87268caa4beb9be9b0d8d85ed40313cc2789b1a8b5a34bea6965cc24",
    "json: build-extender bowtie.json":
        "0 5c3b5c073996826bf1e640b23a9f45c69393a88bf9ab08523010f8bddaab82f8",
    "json: build-extender edge_plus_vertex.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: build-extender k4_plus_edges.json":
        "0 3bcea14d2214737955aefbf18adbcd878437d2f83db565dd894d1bb114d46fb8",
    "json: build-extender mixed.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: build-extender triangle_boundary.json":
        "0 04d2cf8e2e4e10bee0449179ec23b47dd401df2978e408fce4dca2af1bc1e3b2",
    "json: build-extender triangle_boundary_plus_vertex.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: build-extender bowtie.txt":
        "0 ef284b069015e33b34ef7d71dd0560cbfecac9290fccba86dc007a866a3f8a4a",
    "json: build-extender void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: build-extender --nonpure bowtie.json":
        "0 5c3b5c073996826bf1e640b23a9f45c69393a88bf9ab08523010f8bddaab82f8",
    "json: build-extender --nonpure edge_plus_vertex.json":
        "0 db8c0cb47d1facbc2a3cc3147b9b7a0ad387addffd5c6ca1598d01e198ab13ee",
    "json: build-extender --nonpure k4_plus_edges.json":
        "0 3bcea14d2214737955aefbf18adbcd878437d2f83db565dd894d1bb114d46fb8",
    "json: build-extender --nonpure mixed.json":
        "0 e1f3ce9ad200f954f1aa6e2d0ab3b4ab843ac07bd6c27379d980aecd517795d4",
    "json: build-extender --nonpure triangle_boundary.json":
        "0 04d2cf8e2e4e10bee0449179ec23b47dd401df2978e408fce4dca2af1bc1e3b2",
    "json: build-extender --nonpure triangle_boundary_plus_vertex.json":
        "0 8b3f9d5d1c4c5f9e1636f17186745604ebde470b0953009c7356593e91013daf",
    "json: build-extender --nonpure bowtie.txt":
        "0 ef284b069015e33b34ef7d71dd0560cbfecac9290fccba86dc007a866a3f8a4a",
    "json: build-extender --nonpure void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: depth bowtie.json":
        "0 6dda6f6526452db74d935e9f674cebb4f2997e20d3da69d916d28af55ed79db4",
    "json: depth edge_plus_vertex.json":
        "0 7fc6a3d34ffe032622cd90001fd4666959df9ab1b977fd87e153490d26d10513",
    "json: depth k4_plus_edges.json":
        "0 9834234fab49b89c0f1f0ef1ccf05a086bb78d1f01f0aa2dca191290cc830ff5",
    "json: depth mixed.json":
        "0 e822e760b9af0aff9f353f0e10c0f5e1b63808611ce07247cb2a1ea14021d657",
    "json: depth triangle_boundary.json":
        "0 c950e9ed0860af57696b694fe0884078db89c9982707612570f7d59a3290b522",
    "json: depth triangle_boundary_plus_vertex.json":
        "0 b69d9bbec6a0bad3191a681937018f1c0aea90f2da58ea8ca55bfe8089e7cea4",
    "json: depth bowtie.txt":
        "0 196da86478bb97c23a16fab3f075ad7d63d24d5a86537ff03ab5b2acc3ca3eb7",
    "json: depth void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: depth --char 2 bowtie.json":
        "0 fb0bc95a845adf7305a635902dacad39282dfa4f6f28e383e3e82f61f0db4d95",
    "json: depth --char 2 edge_plus_vertex.json":
        "0 12ffd6814aa65509f751f8c95b18361daedb86e0db7db5bd072301e6d6aa37a5",
    "json: depth --char 2 k4_plus_edges.json":
        "0 8f691f147258ee35628958d8be0d4b5b396faf0f0fb666a780795b74dc252e04",
    "json: depth --char 2 mixed.json":
        "0 3bea8533f6db3f189e64ee9bfb887fd4b4e5e0b74862fb1554158150132509b7",
    "json: depth --char 2 triangle_boundary.json":
        "0 ed4e39a8a78e208d9190b421ed65fac8441bde0cb3250036468690dc0b30f9ff",
    "json: depth --char 2 triangle_boundary_plus_vertex.json":
        "0 9bdb09bac8004751a031b4d7f00d46ff52d3cdfbde3869542cedf7727537d330",
    "json: depth --char 2 bowtie.txt":
        "0 ccd1a76e5bd5f352480b476bd79397392df628b876727bb28053fc1ad7da61f1",
    "json: depth --char 2 void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: cm-check bowtie.json":
        "1 321e20602c4c515f44fe7be1a1614a8ee350b7af4603eacd09092adfc7949975",
    "json: cm-check edge_plus_vertex.json":
        "1 324e9479c3ac9a1e15f3f23591b277103254f6f82688e4fd4c9b77c7c45aa580",
    "json: cm-check k4_plus_edges.json":
        "1 0d97907dba5c34164010953758f33d52cde97396fd97886623a3474e4d38c684",
    "json: cm-check mixed.json":
        "1 65cfea306dcc1d15bdfc3a72435c485315831b2426875ec7b6e6ca9a791735c1",
    "json: cm-check triangle_boundary.json":
        "0 95558a7cd2e1013c32d9aa0cdc6a939c80c56e054a8f143d272ca05c20dcbf57",
    "json: cm-check triangle_boundary_plus_vertex.json":
        "1 324549e7acaa901336125549c40650951bf40f200ac032242dd5b749e8c78a9c",
    "json: cm-check bowtie.txt":
        "1 c428c9c1de3a869fa2b66dfb326ba9d3c6acd19cbc71dbb791290e126561fa8a",
    "json: cm-check void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: cm-check --char 2 bowtie.json":
        "1 659ab337fe0413da4b60bb90e79bbb6c984e441bab5f3be47214d3fcf2ef940a",
    "json: cm-check --char 2 edge_plus_vertex.json":
        "1 89c50652e4cc14c0df7788b73acaa46444c1420e8406ddce3e3f1a75e6dd4376",
    "json: cm-check --char 2 k4_plus_edges.json":
        "1 75295a5f5c27630999fd3c113c2efc3801a08fc3889ce7fedc9cffb2596047b6",
    "json: cm-check --char 2 mixed.json":
        "1 a7f39a0656a7be12d1522b2fa6f83b86f880f2cd201cec8c2f4d1a9f5d043ae7",
    "json: cm-check --char 2 triangle_boundary.json":
        "0 030c56bfa6f28cdbc1b9616241fe529236bf2b76a01cfd7782acb302c7ddba9f",
    "json: cm-check --char 2 triangle_boundary_plus_vertex.json":
        "1 2511549248b13a40b7b07b5233d43a5e1d048e87dddfba2108282a05c154deac",
    "json: cm-check --char 2 bowtie.txt":
        "1 12e1c53fc7efa1c83ef0a177215145172fdfa81f6d257f9fa37c1268d5dd5836",
    "json: cm-check --char 2 void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: cm-extender bowtie.json":
        "0 10e8acd58911b63e301ba9e192de42d9cade8eff8e33b28ba8d376bf839250b0",
    "json: cm-extender edge_plus_vertex.json":
        "0 66993b1d20735cdc052e225b84201e7bec10073d4aceebf649ec3a42d58c60a9",
    "json: cm-extender k4_plus_edges.json":
        "0 81c0eb2bb0ea9a59b2edc030a854e61c210ca739ef17bc0d311a26475bdc49e5",
    "json: cm-extender mixed.json":
        "1 0f11e37eee827fdab67d26e17082f76ce15d8e782a10bbf7b0dbed1a26c5e7c4",
    "json: cm-extender triangle_boundary.json":
        "0 445bae7a9bf4235b8743ddd537e6aa7aa4f0577909869bd0d2e8728ed3d4ce9f",
    "json: cm-extender triangle_boundary_plus_vertex.json":
        "0 54c4babc01180fdafa8750eed542facd2c0293621e36237530b4c8254d77fb25",
    "json: cm-extender bowtie.txt":
        "0 f7b154236eb19177b8b1e20fc8e2edaf71897b7ad1621dd0b8b31f150b71be70",
    "json: cm-extender void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: cm-extender --char 2 bowtie.json":
        "0 10e8acd58911b63e301ba9e192de42d9cade8eff8e33b28ba8d376bf839250b0",
    "json: cm-extender --char 2 edge_plus_vertex.json":
        "0 66993b1d20735cdc052e225b84201e7bec10073d4aceebf649ec3a42d58c60a9",
    "json: cm-extender --char 2 k4_plus_edges.json":
        "0 81c0eb2bb0ea9a59b2edc030a854e61c210ca739ef17bc0d311a26475bdc49e5",
    "json: cm-extender --char 2 mixed.json":
        "1 0f11e37eee827fdab67d26e17082f76ce15d8e782a10bbf7b0dbed1a26c5e7c4",
    "json: cm-extender --char 2 triangle_boundary.json":
        "0 445bae7a9bf4235b8743ddd537e6aa7aa4f0577909869bd0d2e8728ed3d4ce9f",
    "json: cm-extender --char 2 triangle_boundary_plus_vertex.json":
        "0 54c4babc01180fdafa8750eed542facd2c0293621e36237530b4c8254d77fb25",
    "json: cm-extender --char 2 bowtie.txt":
        "0 f7b154236eb19177b8b1e20fc8e2edaf71897b7ad1621dd0b8b31f150b71be70",
    "json: cm-extender --char 2 void.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: shellable bowtie.json":
        "1 0e6785156090146fda6822555839f30ec83094af9c862afc2122b0ad0d899749",
    "json: shellable edge_plus_vertex.json":
        "0 a38a1e4ea3f44251d8c4d69e2bb7083ae95fdd4061bb114d07b7725df189112c",
    "json: shellable k4_plus_edges.json":
        "1 ec95b9e466ebb67774ebcc0f3d577cfc300ce276734c170ca234d3bd1e905393",
    "json: shellable mixed.json":
        "1 d93a94ee1c4042043b9d68e4d7f26a137eef2714136087e83ca365d1979a15e2",
    "json: shellable triangle_boundary.json":
        "0 8e537faf7bc0546832c8012fe660e8a09ec8f6525eacf03fcbd42844063483f9",
    "json: shellable triangle_boundary_plus_vertex.json":
        "0 3fe15c060308a1d1098b3ad67bc72c3397fbd515424f46f4a96596f0b4b3936b",
    "json: shellable bowtie.txt":
        "1 3d11dc2aead952d21181a4a47dd83729aa35951efa3008f437bcfa601eae4cd7",
    "json: shellable void.txt":
        "0 fd234026904957cf4ca4620da5012139c467fe531b87ed3e8b86aab5bb43fbd7",
    "json: rel-cm-check bowtie.json triangle_boundary.json":
        "1 ff8aab7c99349d4a9a115ae7d0dab11e825557352a82949e1d668bc87dc546d7",
    "json: rel-cm-check mixed.json edge_plus_vertex.json":
        "1 ea18f3832f0a3bbb89c6783de367504a092715b1be39d08999cb02d5e865cee9",
    "json: rel-cm-check triangle_boundary_plus_vertex.json triangle_boundary.json":
        "1 21abe48fb4e9863af5f3853e2a6958bf30be57a4c8183a7e50715ce1764f4c3f",
    "json: rel-cm-check triangle_boundary.json bowtie.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: rel-cm-check bowtie.json triangle_boundary.json --char 2":
        "1 d4ac4423a040699d1fb14b1f71395d3df8d66bbf984c4d2e092f96a08780c44e",
    "json: rel-cm-check mixed.json edge_plus_vertex.json --char 2":
        "1 476208f11fcf813342cfcefc12fb57e92a99111e0afeff54821520e60fa4fdc1",
    "json: rel-cm-check triangle_boundary_plus_vertex.json triangle_boundary.json --char 2":
        "1 398cfc0da0104d287637e7ba1e613e2754b42147b068bf717aedb4c9d3f737d3",
    "json: rel-cm-check triangle_boundary.json bowtie.json --char 2":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: partitionable bowtie.json --minus triangle_boundary.json":
        "1 f89cb690077bb577cd7db7eb217e3c7887a7a7210ddaa9cf7d92c6b27c1fe576",
    "json: partitionable mixed.json --minus edge_plus_vertex.json":
        "1 1feb0eab76d0b47256597085e906f627fb65a0e13a0bab211e412d0cc04d4ca8",
    "json: partitionable triangle_boundary_plus_vertex.json --minus triangle_boundary.json":
        "0 502a3c5f5b01673c55cf69d117623a7bf11e2e70320a81fb9768a62f18b92263",
    "json: partitionable triangle_boundary.json --minus bowtie.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: shellable bowtie.json --minus triangle_boundary.json":
        "1 0e6785156090146fda6822555839f30ec83094af9c862afc2122b0ad0d899749",
    "json: shellable mixed.json --minus edge_plus_vertex.json":
        "1 d93a94ee1c4042043b9d68e4d7f26a137eef2714136087e83ca365d1979a15e2",
    "json: shellable triangle_boundary_plus_vertex.json --minus triangle_boundary.json":
        "0 487a8eacdb314f55d15e722cdc8a88b44c90fa1dd2d618245444b06b9ec851df",
    "json: shellable triangle_boundary.json --minus bowtie.json":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: verify-partition triangle_boundary.json triangle_good.json":
        "0 bdb6458c462e9132906a82251489499222761eb5a514e50fbea90bea7fb84f49",
    "json: verify-partition triangle_boundary.json triangle_bad.json":
        "1 f69ed2ab97c58d99c8693ef0332def61ba62a972b0d5632c80c24ac1159aa062",
    "json: verify-partition triangle_boundary_plus_vertex.json vertex_interval.json --minus triangle_boundary.json":
        "0 3b9e748c52c2bf74baf2c3cf84f901090d7d6c06e97e44dcc84f9f8f52cc2bdb",
    "json: verify-partition bowtie.report.json":
        "0 c6a452b624f92617dc25391a33afd954da3a2fa51db5ac256e50716b3989ee54",
    "json: verify-partition mixed.report.json":
        "0 3af0336abacb510767e66f8da74e79e2ca1d4d7e5209383c2190d53c85fe602d",
    "json: verify-partition triangle.partition.json":
        "0 b361cc3fe0a7ac8b94d1af46aec11fe505a8076ae9cff32730eeea3ca158fac9",
    "json: verify-partition tampered.json":
        "1 9ee591363df31be425e768d13f1ec559216c8c89cbab6c47397740b472f7c01c",
    "json: shelling-check triangle_boundary.json triangle_order.txt":
        "0 c43181837cd5b3b031a5ec7aa6083a362709adeb1b3e6ff75efad0a0d686553e",
    "json: shelling-check bowtie.json bowtie_order.json":
        "1 0f12e9d55137834fcd633efe3ea9ab8dc37b66310fc34bd321b477e27aa8981a",
    "json: shelling-check triangle_boundary.json short_order.txt":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: shelling-check triangle_boundary_plus_vertex.json vertex_order.txt --minus triangle_boundary.json":
        "0 ab04a623cb5c08ca27badaf2b09555a87da790efdc65a30ac53f61219960da5d",
    "json: estimate-size 3 2":
        "0 f3a193ba89926918e7a3acbeef837d98bc985dc0ab2112aeadfd057674517a0d",
    "json: estimate-size 2 5":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json: estimate-size 4 0":
        "0 f3d6b96dc058dba9b324af01a3f3d1f5222675d6a2218c84fbc5011231ce64cc",
}
