"""Golden SHA-256 digests of outputs that refactors must keep byte-identical.

Four groups are pinned:

* every 10th corpus graph and every large-corpus graph, run through the
  CLI: the ``color --trace`` JSON, the coloring document, the
  ``audit --format csv`` output and the text report (with exit codes);
* every face fixture and knob perturbation of acceptance criterion 2,
  the genus-2 gadget and the projective Petersen graph: the face classes,
  the audit CSV and the violated-lemma set at t = 10, 11 and 15;
* the same fixtures at t = 10 and 15, and the chorded genus-2 and twisted
  genus-3 cycles at t = capacity(genus), run through ``color --trace``:
  the exit code, the coloring document and the trace JSON;
* the same corpus graphs, fixtures and chorded cycles run through
  ``stats``: the text and the CSV output (with exit codes).

The corpus never yields a Y1, Y2 or Terrible face, so only the fixtures
pin those branches of the face matcher.

After an intended output change, print fresh tables with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from defcolor import fixtures as fx
from defcolor.cli import main
from defcolor.discharging import audit, classify_faces, ledger_csv, transfers_csv
from defcolor.graphio import serialize_graph

from conftest import CORPUS_COUNT, LARGE_SIZES, corpus_spec
from gadget_builders import chorded_cycle

THRESHOLDS = (10, 11, 15)
TRACE_THRESHOLDS = (10, 15)

# (builder name, keyword arguments); the builders return a FaceFixture or
# an EmbeddedGraph.
FIXTURE_CASES = [
    ("special_face", {}), ("special_face", {"hub": 11}),
    ("special_face", {"p_deg": 6}), ("special_face", {"q_deg": 4}),
    ("x1_face", {}), ("x1_face", {"h1": 11}), ("x1_face", {"s_deg": 4}),
    ("x1_face", {"external_high": True}),
    ("x2_face", {}), ("x2_face", {"h2": 11}), ("x2_face", {"u_deg": 5}),
    ("x2_face", {"y_deg": 1}),
    ("y1_face", {}), ("y1_face", {"h_deg": 11}), ("y1_face", {"w_extra": 1}),
    ("y1_face", {"u_extra": 1}),
    ("y2_face", {}), ("y2_face", {"h_deg": 11}), ("y2_face", {"s_extra": 1}),
    ("y2_face", {"r_extra": 1}),
    ("terrible_face", {}), ("terrible_face", {"v_deg": 11}),
    ("terrible_face", {"u4_extra": 1}), ("terrible_face", {"w4_children": 0}),
    ("genus2_bad_face_gadget", {}),
    ("petersen_projective", {}),
]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _case_name(name, kwargs) -> str:
    return f"{name}({', '.join(f'{k}={v}' for k, v in kwargs.items())})"


def _fixture_graph(name, kwargs):
    built = getattr(fx, name)(**kwargs)
    return built.graph if isinstance(built, fx.FaceFixture) else built


def cli_digest(graph, workdir: Path) -> str:
    gpath = workdir / "g.txt"
    gpath.write_text(serialize_graph(graph))
    out = {name: workdir / name for name in ("col", "trace", "csv", "text")}
    codes = [
        main(["color", "--input", str(gpath), "--output", str(out["col"]),
              "--trace", str(out["trace"])]),
        main(["audit", "--input", str(gpath), "--format", "csv",
              "--output", str(out["csv"])]),
        main(["audit", "--input", str(gpath), "--output", str(out["text"])]),
    ]
    return _digest(codes + [p.read_text() for p in out.values()])


def fixture_digest(graph) -> str:
    parts = [",".join(c.value for c in classify_faces(graph))]
    for t in THRESHOLDS:
        rep = audit(graph, t)
        parts += [t, ledger_csv(rep.ledger) + transfers_csv(rep.transfers),
                  sorted(rep.violated_lemmas)]
    return _digest(parts)


def trace_digest(graph, workdir: Path, t: int | None) -> str:
    """Digest of ``color --trace`` on graph at t (None: capacity(genus))."""
    gpath, col, trace = (workdir / name for name in ("g.txt", "col", "trace"))
    gpath.write_text(serialize_graph(graph))
    argv = ["color", "--input", str(gpath), "--output", str(col),
            "--trace", str(trace)]
    code = main(argv + (["--t", str(t)] if t is not None else []))
    return _digest([code, col.read_text(), trace.read_text()])


def trace_digests() -> dict[str, str]:
    cases = [(f"{_case_name(name, kw)} t={t}", _fixture_graph(name, kw), t)
             for name, kw in FIXTURE_CASES for t in TRACE_THRESHOLDS]
    cases += [("chorded_cycle(1, 310, 2)", chorded_cycle(1, 310, 2), None),
              ("chorded_cycle(1, 440, 3, twisted=True)",
               chorded_cycle(1, 440, 3, twisted=True), None)]
    with tempfile.TemporaryDirectory() as tmp:
        return {name: trace_digest(g, Path(tmp), t) for name, g, t in cases}


def corpus_digests(corpus, corpus_large) -> dict[str, str]:
    graphs = [(f"corpus[{i}]", corpus[i]) for i in range(0, len(corpus), 10)]
    graphs += [(f"large[{i}]", g) for i, g in enumerate(corpus_large)]
    with tempfile.TemporaryDirectory() as tmp:
        return {name: cli_digest(g, Path(tmp)) for name, g in graphs}


def stats_digest(graph, workdir: Path) -> str:
    gpath, text, csv = (workdir / name for name in ("g.txt", "text", "csv"))
    gpath.write_text(serialize_graph(graph))
    codes = [main(["stats", "--input", str(gpath), "--output", str(text)]),
             main(["stats", "--input", str(gpath), "--format", "csv",
                   "--output", str(csv)])]
    return _digest(codes + [text.read_text(), csv.read_text()])


def stats_digests(corpus, corpus_large) -> dict[str, str]:
    graphs = [(f"corpus[{i}]", corpus[i]) for i in range(0, len(corpus), 10)]
    graphs += [(f"large[{i}]", g) for i, g in enumerate(corpus_large)]
    graphs += [(_case_name(name, kw), _fixture_graph(name, kw))
               for name, kw in FIXTURE_CASES]
    graphs += [("chorded_cycle(1, 310, 2)", chorded_cycle(1, 310, 2)),
               ("chorded_cycle(1, 440, 3, twisted=True)",
                chorded_cycle(1, 440, 3, twisted=True))]
    with tempfile.TemporaryDirectory() as tmp:
        return {name: stats_digest(g, Path(tmp)) for name, g in graphs}


def fixture_digests() -> dict[str, str]:
    return {_case_name(name, kw): fixture_digest(_fixture_graph(name, kw))
            for name, kw in FIXTURE_CASES}


CORPUS_GOLDEN = {
    "corpus[0]":
        "b2db437384c571cc6fbabdbedddc3b932273b3e200765fa669d73f83ea99656c",
    "corpus[10]":
        "b7e1f6b2df5b291e3fea386078cc6e1c237ab45bbfe909858afef585e8de7208",
    "corpus[20]":
        "078e377f0b511ff431d4068ccba9f6a19b68fb851a5635638680e617208b3264",
    "corpus[30]":
        "d4f4ef8a683996198327a494e45e3da256332d24e4d125323038baa40874d23d",
    "corpus[40]":
        "a44e3a31206a377a4d0b4d03dcd5fa5cf762f56469dd4cf3c23c44b125857353",
    "corpus[50]":
        "0762b7796491cf63b25ae84234767e3891fee354a601566296b7289d37c8b7ec",
    "corpus[60]":
        "feca4c9e3379be5f98b6892543bb244a69a138d95f7c2cc41c04190f96cf29fb",
    "corpus[70]":
        "d763e8876bb33eeedc4676fcc94a71289da9667b413195354bee7d4ffa74a0b9",
    "corpus[80]":
        "17dfff145de01c898226151f1bae0db3469bf91455b58ed29b6a2447f408b9de",
    "corpus[90]":
        "a7589df4cec30196bd419f5943e470b62cfa3bbe12863393787ccef728633a1b",
    "corpus[100]":
        "1c1c9c3ed96c30c7069342d03ba6a4fb698e9c18d59905afca9abb51a2079a52",
    "corpus[110]":
        "1eb4e128ff8c9f14d886c51edaa39cdd9730892f4dbdce032abb8e193d2b9053",
    "corpus[120]":
        "85311334fa0e818a3f94c19551e920bcc2cde0a2bc4ebb7491159694a894a9c9",
    "corpus[130]":
        "c81c3a98bfde645e51c33d203dbda987b4512596d3e78f1a0ae8a7d533eb032c",
    "corpus[140]":
        "cc6e14860d051f97dbf526c4a683dd4fe0c050c5887fbcf6d3f1ed75884e646f",
    "corpus[150]":
        "d7dcae07a263ea2996d29302987fac98dff881d5d9f7ce12cbcf88e4becf55a0",
    "corpus[160]":
        "8fed78ac838d70d7bd0b05e08cf4fb02dcf02857769c368498aef6fbd9068b0d",
    "corpus[170]":
        "5da8fe895f7d9416a6eef2cb08dd8dfde36475cd71437bbc2b192302b6bbd7b3",
    "corpus[180]":
        "cfb8ced5c9c57c0796ee2f7463474ece23354640c10fdb8c67c96f85e9df5ee4",
    "corpus[190]":
        "3bbb97d332fc2e3059a97272358441ea019286f299b0df3a818f1ccc8ed25de4",
    "corpus[200]":
        "be971b5c6beeed412f03c4ee8e474d45bb040266ae60a69b5727845e5941e78a",
    "corpus[210]":
        "41d6042bdbce99bc31185911f4cf4034a640a76741b65c36abc5349442a6517b",
    "corpus[220]":
        "40513b2d0fb587c62699e382f513083ec03812eb1513c8cc28febe6a37c520c7",
    "corpus[230]":
        "0cf48424fe8084ff9f6b80c5de7e36e6fbc684fc6c9f11789a5f0ff9e17b364d",
    "corpus[240]":
        "dcdaa806e2ba76dd6c2bdd189d62c8242bad9a50ae17b6b4290095f08ffadf2d",
    "corpus[250]":
        "ee58edfc8546a999d8f393f26ed23dc249b50307b9535872384e6ec1aea736b9",
    "corpus[260]":
        "9d4499bea9eba4493c3a4e737dfd5e5a855e50d588f5bcaa187ea50f98b855f9",
    "corpus[270]":
        "0475444d08e67b65c813af8863103bed1634df276b26d8d6f7d9d9cf58a971fc",
    "corpus[280]":
        "f669e32fdf7b86525ac8038a77215c17a90cf632661cd81a6adf8cc1f33eb633",
    "corpus[290]":
        "69cbcba02e189f755790cb32b7540eb8a6619ceac2b2604487310006e578d65c",
    "corpus[300]":
        "c4f8fb40fb679dc9615c847665b885dbe4e80ca84337f014843d722901047046",
    "corpus[310]":
        "b13c5ef0bd63dbaa62ee40831181fd1492cf4328c4d262335fd178bd1a754381",
    "corpus[320]":
        "cfbbb9ac864acdf81f4d8500fef39907b2cf5c56d494c4cbd7e94dd7d239d029",
    "corpus[330]":
        "c3c2add733b2a692a3a0fca934c230de7b2996f089b9a9ab7d82877d39624782",
    "corpus[340]":
        "f1b98ef40c59cd76160bc19c0c739a4fc0b6f50b9f6f910300cd589c71620308",
    "corpus[350]":
        "e633726a547a26ecf749d485a0c9068d9300edb8466030d11c6ba59b43bb89d8",
    "corpus[360]":
        "9764dcc56e6c96657d3a670cce5dbe39cb82ff0af5713c87be73fd57ad98a8c4",
    "corpus[370]":
        "f7da68acdce1727dfa3892bde824b31e1a29b55cf21e7eb4edf108733f113401",
    "corpus[380]":
        "a2dae5f9fa7fbdde65da15e6372173f92697565cdb19f12ff995e7b4c32a5c56",
    "corpus[390]":
        "fc1b2200a1a3770ded80b3382d0494fd8bb5b098822a1fa8a3c6759ad9ae44e1",
    "corpus[400]":
        "2d20807f20062bb0efbd4171f27541eff877889955bcdef9df53555f2980336e",
    "corpus[410]":
        "8979110fb956bdcb3e354784c98a9fda2cac33ee4087674d10bf45d4bb3f21c4",
    "corpus[420]":
        "5f1df300055da00c1b6f3f03af0b4f67e7376404e620e22a5e24408381ce7fd2",
    "corpus[430]":
        "5222dcefa2037620924bba25c086f514ddde631e5dcdb3930ecb700214afc442",
    "corpus[440]":
        "f7bf3d30552cd9ab25ebe4f807f9140fc37b53293e108debf1f75f5452c6dec7",
    "corpus[450]":
        "e897e89715f36537fa48dcd1997cb408072d63c4192b459c0f34971740dab5f0",
    "corpus[460]":
        "f132a6a7fcc47c4ccaafb060bd26019a46972c8dbdf9924d1bee33a7e8a15279",
    "corpus[470]":
        "67c6c7efff3b8e7713a297b8ee54d0c1ddc12382aa5518c4fab719f963350cce",
    "corpus[480]":
        "22417f7fccc4afc708108fccdaaf36a3ab76116e0fbd59765e2cb0fc3e119c47",
    "corpus[490]":
        "8cdcbadf031d9d78a5f2c6613c7b501848543f2eb732cb3b83bfb191b507a52c",
    "corpus[500]":
        "5064e62b8951e3bf3357f79e6db40d88d7423728fd91f16af3bb81c781d22178",
    "corpus[510]":
        "f45b8a6f8db9bf9ac9bf023edeee3a6a286291c05dc1902017d164d25f9446ee",
    "corpus[520]":
        "46422d8237ae70174480ae53c3e1c04c2682aafdf0c1362e7016650e1cdaf497",
    "corpus[530]":
        "49c90b0d7c5ec2303d5f6a3082b73438ebef769f187c025d9bfce0f9cbf31b23",
    "corpus[540]":
        "e07c4a1588fc004c1aeb83d9ff0d8da79383ee2941531268f68f175d7230002d",
    "corpus[550]":
        "6b4cb74a91f4fabbdff475f8cbb8175de4b5a7d4f43634561c52aad44db1683d",
    "corpus[560]":
        "a595a074be5a44f550c8eef6b8acf777422202b01c15147c6c2b20c1ed0daac3",
    "corpus[570]":
        "e0f90506873f49838cb00980ab25cd512b052649a77fc743bc6ca1fbf42c8e5c",
    "corpus[580]":
        "a9d97180b65359293ec551490be412653b37d8263f5468ee013ecc0629fe5f84",
    "corpus[590]":
        "210424e68f1af1046a5d2b943e37e427a3ff14b4a256f877a516a2c04a490975",
    "corpus[600]":
        "7e14ff9a270354163d5c356c73d30a04d8d6c931c6cb57227f7aa90a4f518e9d",
    "corpus[610]":
        "3b5e005aee3c3c29c152feaf478fb5d7a441f9d0a308f6c2fac842897f31ecce",
    "corpus[620]":
        "ff5e73b9d9e9194ded9bca547429d8b15c755f0800b044a3a5c6ccb5a4911e58",
    "corpus[630]":
        "c796bca0985b3ea2bbdfe14200d4fd8dd3bc3f26c55d2b6b9b111d45a1ff8ef3",
    "corpus[640]":
        "6d35e0be3d8b4553f129c99c8a0887bbf0e4a267e5ff95fe8d9ee258edc5bb3a",
    "corpus[650]":
        "04b72634601390f22d70a930484ccbb033cced730fdd28ce105696fd77a7e342",
    "corpus[660]":
        "83257e7bb559a98f9c6a2bd2b8f3ffeadc218b41d88336ae5a648ec3abfb2f92",
    "corpus[670]":
        "bccc7492be9fd03c453a64b50df691702bce8ff5cbefda111744efda18491667",
    "corpus[680]":
        "d07eb599d8873a66b84a9181fd8f2ec630c042927b84ade2724f34c83233c0ed",
    "corpus[690]":
        "9b17bde7eb8310b07e562f7b9d5ece7f3afbf8a49b500d8e44c581bd02e86c4a",
    "corpus[700]":
        "c7698d4e5fc7669987d4b17c289dc696fd18ff07e394fe384fb084f0484f1f3a",
    "corpus[710]":
        "77bd78934dc0f0e1cbdcb8d1116957a7ebb3bb283ac707f1a643776b784739fb",
    "corpus[720]":
        "701b134545b214df26b79f0ccbcbeeecfa19ba098934afc0d632f7d35a6277b1",
    "corpus[730]":
        "e19bf1804baca9b40d3c24f6266d43ecc4ebd4bab4c30ccff40abecc98c20963",
    "corpus[740]":
        "226c27ece0842ae7a16b38d0d3539c4a8e32834bd95112a645ae7badb05440f6",
    "corpus[750]":
        "cf889c1afeb1256dfff6bd6da682d44553af5de18c966fa340281897a4ded7f2",
    "corpus[760]":
        "79a7bdf68b814f7c146d2dfb705465be8c5a9271f310d4938e170f69fb754ea4",
    "corpus[770]":
        "f8941d9999df1dde9b0d4872c996798c66c2e5236da268654e4bea941a70618b",
    "corpus[780]":
        "d4bbc81dbee6e6b4e4b33c39f65ca7a92770dc3930c0bfa26419f79266c9dc92",
    "corpus[790]":
        "9fb47203958f395894a4c9b3f17242aa446c7f02aadfaf6baabeeaec34176c5e",
    "corpus[800]":
        "bbd26bbfbaa3fd8c27e9c9af1273246a95c82c2a193153a8d320abdac6ddefa0",
    "corpus[810]":
        "1ff222828bc7a0a00c70adc1e7975fe6e0bb539a7eef11ece2da89b3796319c1",
    "corpus[820]":
        "2c91490e43631bd6aa86ab78bbfc41821f7136dc7029d472007a3b75cd746366",
    "corpus[830]":
        "024ce8bd902637e561a0be00580492c6041450abd7bb5be2cc855dd483902270",
    "corpus[840]":
        "16d96dd1d67473210169062dca5450d1a3cfd07da264760f470132b8f668ab9b",
    "corpus[850]":
        "a5e04c8e36bb078eaaab5774bc44d8638170dc6a505b7c4ea248ef502d154fd3",
    "corpus[860]":
        "fed4d2eab680921ca78dd7255a72cb87539beed2388a4173471fa103b0cef2cf",
    "corpus[870]":
        "374cd26e2e8f31f171a2728805c145e132c51fc07ac2605c0eea3427a7d8686e",
    "corpus[880]":
        "4a3f2ee7825f29466c53cb6e2f6fac7c72c6cfd965f6e71d3bf75dd9419c0b26",
    "corpus[890]":
        "4eab79d3c997b6f8433a450126be02a8497f1db6df6d1e019497c895864f2fc7",
    "corpus[900]":
        "895b9963ab1125bb4e356ed1ff7b73c8a010d18972636971ef15c6836bc9ec85",
    "corpus[910]":
        "c9352ff977730546217cee935f2cd91f7f59131521a92424e48b68113730f41e",
    "corpus[920]":
        "ae7642a1fa9f617e95a23ba0754e14bf192d20d9134b14cf3c6bab90e540dbec",
    "corpus[930]":
        "319df6069a72b0b639769ba0b192afeb510dc8124a992ec8dccab80b6e264742",
    "corpus[940]":
        "d40194e26bcc492fbb3529d09b51bcf404c52cb46f13cbcba495355d942c249b",
    "corpus[950]":
        "7b80ab83a417ae7bd026317d8d78d0c014b9472172563816d297117e00aa8ab9",
    "corpus[960]":
        "d2a9fe0c0396ed80607b1fa80ab9b38d3dfe4854ed14d33764690eafb9060dbe",
    "corpus[970]":
        "05fa9f322a468ad2962f42fff019f005c163295e6f7370e9574c3d6ac4cfc8e3",
    "corpus[980]":
        "10446d1909e07dd4b4d076b8142d78420015b5f4282a13c9ba3864db915a012f",
    "corpus[990]":
        "7d80ac67ef8cda87aa0c9d20e0f96454497e168c1d3b7a292fa076ce2d5c3947",
    "large[0]":
        "3923aef3f37ea3a4147408e734050cdbc66553922c73a4ea7383fa0187a56bd8",
    "large[1]":
        "3173af7753746ac50c1958ae1bb2035b45e997672794506f33d9ad754b2a7712",
    "large[2]":
        "57ccdb10b4f7bc2d15b41a9ac0821572fa91d65a4336f55731f27c8117201779",
    "large[3]":
        "83d682f129ec1c3523f3fafe70a1bcf593e8aa1b6c70bf73a240bddd52677492",
    "large[4]":
        "cd01a2ae197017be78d745a07e9208a2db47c3197e306f435669759c1877f6b3",
    "large[5]":
        "c2375b3c9e3b5a88f7d874ff5e1d74642ec51a6311c2724da38d5070d7e1df10",
    "large[6]":
        "7bded4490b9a97e466e69b5b56fe359f9ae25012749c537bb31a065cb2d5307b",
}

FIXTURE_GOLDEN = {
    "special_face()":
        "3a6f575cc9c1b37eb0f8d8da9b50738e1b8b1163660c71ba2d32bde0b2c0457a",
    "special_face(hub=11)":
        "5113423de1c8cec3012edd230155a1e30f11311300a470e9cdd006e5fde36a04",
    "special_face(p_deg=6)":
        "193a864f1a13103562b681dbd4ac560dbdbd0298d394143ce6a14601e0cd4d36",
    "special_face(q_deg=4)":
        "ce81ee5809a35c0c15c4372c8f0ec56f43ae886120479ec91e9cb35d41e59b2d",
    "x1_face()":
        "005fe67930f5a27e4683f8b257f2fee1d6181807fdea49a6a5082b7d98f0fd04",
    "x1_face(h1=11)":
        "a1933341fa294088dd0e3e1b4244fdd157b2475012ff1708122bc1966742e42b",
    "x1_face(s_deg=4)":
        "429841f10f6349c20b3274339faa17a58f21a648b02230f9ddf8859fb1b23ed2",
    "x1_face(external_high=True)":
        "6b26e61c800ed0d098d73badd5dbb318a16c619f5a8658c4b3c1a2c6943e1614",
    "x2_face()":
        "3f0b2adafb5b9c061868d6f365f289e924be2d9b5575356b276c351581665d00",
    "x2_face(h2=11)":
        "8b754c196cb8f3bba0f51b6d5dcac7a983662fc5704a8d43cc8c8a344e38c484",
    "x2_face(u_deg=5)":
        "6b3b31f0a2c0b154aa2cbd46defdd6fa40e2d3431a460787cfac5cf664baffc3",
    "x2_face(y_deg=1)":
        "429841f10f6349c20b3274339faa17a58f21a648b02230f9ddf8859fb1b23ed2",
    "y1_face()":
        "f06dec84a30a5c03c42031f229b5f527cc91b154d495b37852b3897a5a217799",
    "y1_face(h_deg=11)":
        "00e0b89046cba0dbe569c2cf1ac4e26c80ed998ccd56c04138b2ef964e9f644c",
    "y1_face(w_extra=1)":
        "9a8ec905b9ade59af72623ac1589bcb25e0d3f3ad49c2bf7c5edb33e05b6087b",
    "y1_face(u_extra=1)":
        "10fa4658dbd747a8bbf0ac025b106f02a023ec217a6d5b1eb05bf9d66822c41a",
    "y2_face()":
        "4574e28de0eb22b80537c4b2b03eb3327551315d98e15434c8799fa9b614d192",
    "y2_face(h_deg=11)":
        "a82b982b6879469aceff85552a76fb2e2418b1ab13754e1204628ded9c4b831f",
    "y2_face(s_extra=1)":
        "e9f574341215369f21ccf5e98b16ead00dfddc2fbeb5336fd1dbe2b720ffb33c",
    "y2_face(r_extra=1)":
        "57d849e3c013f40a49ed4721db4c8b1595151c4310b20ad09991c6295f518b62",
    "terrible_face()":
        "607e3539fe4f7c8e9b7a678c8d994d87a2fa0ad106656fc43873741fa1c8047a",
    "terrible_face(v_deg=11)":
        "895b4efb684bd13c1be6cbfec3ac167e8b1ff9253032548eb612f195c0075087",
    "terrible_face(u4_extra=1)":
        "c14e0b6da50e85cbd47040512a48f1cd70a07f25a28931ace1083a5f8163472d",
    "terrible_face(w4_children=0)":
        "0112fee1d675a42b1ec88deeab5d47b8364dc85f8e0f6257dc5329a8916355ba",
    "genus2_bad_face_gadget()":
        "358627c21c100e9927535b1c62987c7ee61e875084ffb621307e131c9e76fb19",
    "petersen_projective()":
        "db6169f47faf594fe2c0e448634b15de3199c923d739e00037548ff65d433908",
}


TRACE_GOLDEN = {
    "special_face() t=10":
        "5ef5515021cf4b131b70b23d9264ef79aff29dbc7f3734df4f0d1f02b7729ebe",
    "special_face() t=15":
        "924b84f3f307c4302812c7ca5142fa735e4f461d1bd4486110fd86e505323e34",
    "special_face(hub=11) t=10":
        "a149b100ab360521c9549f52137d42faf6c62581b393d830560d14123e18b830",
    "special_face(hub=11) t=15":
        "64a98f6984df6f006e4c691059d7a6a1e8ca70435cdf7fc900eb9fa1763a2d38",
    "special_face(p_deg=6) t=10":
        "959ec0cd90683da2ac26d11e449f44a17454aa5ae7d7fd80527ff61713320480",
    "special_face(p_deg=6) t=15":
        "df068e5498f1aa99e077680cf76c35fd78eda70297a52487abd3cccbb35507d4",
    "special_face(q_deg=4) t=10":
        "b33de9cbb1bac66732b0de44a207d95152de0bdf4f580608e52dd07d45cba177",
    "special_face(q_deg=4) t=15":
        "81915ea430f1ec5669b32105282d78b9ae5da44198cc06b54926846fa6139dd5",
    "x1_face() t=10":
        "50b287a0cc998159cfbd07ce24896df221061513ccc742f8ac6fab2c0126e935",
    "x1_face() t=15":
        "9fd4a76ab0acba0422d84daca018bb21379fa6bb4211efe6a0a151109ad16df0",
    "x1_face(h1=11) t=10":
        "bcbef9010d6176c2d315593bfb0cce1f9230994a6659b4c6d14b1d4211694401",
    "x1_face(h1=11) t=15":
        "af854780ef83fe13057dd8386f183de205c6e2902e46f25f5b69f2de0033dee7",
    "x1_face(s_deg=4) t=10":
        "9b829eecfbf8f3493cb0015d99dddac5ad2124611dd81eb007689329029aae14",
    "x1_face(s_deg=4) t=15":
        "21d209e0ed5cea2ac61b4bfc168cda8aebc28d926aac221415e531352b031d18",
    "x1_face(external_high=True) t=10":
        "1b69a48ef1aa7422b05c757a454ddb08e35f9a34cf23f61908a6f8437991c63c",
    "x1_face(external_high=True) t=15":
        "9ce91e7311295511e5f74884364900ba51903b83d66bc483866e2ca46bf51762",
    "x2_face() t=10":
        "1cfef3306b918c1e283b881540dbe23176827befdf013bc5ac5e0c1b66f92e30",
    "x2_face() t=15":
        "2dab358bdf59bec90a35a56e3bb7904b6daeaa285b501d7e53c5df9346b984ef",
    "x2_face(h2=11) t=10":
        "e1f763505955cb6eaebf27ce7a1b524ed51079506e2d9b67ce6e2f5ce90ea649",
    "x2_face(h2=11) t=15":
        "247449fe21dac431551f64d9112229d34befdbfa89a7e6b36a895918f5664f58",
    "x2_face(u_deg=5) t=10":
        "1c323b50fd2ef6ac99d36a9a04cad550a883a488f7c130f686ec2f11acb3617c",
    "x2_face(u_deg=5) t=15":
        "166328836529549aee63cfe6e93f3765215d4a1ce9478e2428d54cdbf98b108b",
    "x2_face(y_deg=1) t=10":
        "9b829eecfbf8f3493cb0015d99dddac5ad2124611dd81eb007689329029aae14",
    "x2_face(y_deg=1) t=15":
        "21d209e0ed5cea2ac61b4bfc168cda8aebc28d926aac221415e531352b031d18",
    "y1_face() t=10":
        "bd9528fb7108a789343e3f5824e657f5e36a25f596d95f6863108636de237db0",
    "y1_face() t=15":
        "419259811cf23a371021aa996916c32febd6c3366a798b50fab3ac69ca892398",
    "y1_face(h_deg=11) t=10":
        "2ede4e87d4ec2af480f40e71bb5548e2a199657fd1705408f6ae5fd9c4a8641b",
    "y1_face(h_deg=11) t=15":
        "2ced900dee9856c6581eb9088452a43b6065af9c5299f6ba34942236fb55ce58",
    "y1_face(w_extra=1) t=10":
        "7a7c7c325c46df96e6b0dc00720ba4470921216c8bb8222cf003d4917e18e9fb",
    "y1_face(w_extra=1) t=15":
        "cef7f3bd4dc6c0e2ec639f73d3023079c7d577295bc3dcb7a3c5433c6ef2286d",
    "y1_face(u_extra=1) t=10":
        "0ad9c6b06d856a29279e363927985bcf2e5a0801ae8dd36a4ae51de43a7cd965",
    "y1_face(u_extra=1) t=15":
        "cc0c0944028bd4c0d9172f6694fc06b78fa91361abf200c35969c95aafaf6317",
    "y2_face() t=10":
        "6aad0c8e8c5a985f05605dfca82f1cd01c13f4107becce5957373fc53071bc64",
    "y2_face() t=15":
        "1a71c6d9705e878c5748e00f8f2bec76ba02d3dc40e62a0f83d414a506660532",
    "y2_face(h_deg=11) t=10":
        "6ca74de93e5ab9ce3eb4394382eadc9b7bec32ff19d74e6aa2d290cc91c808c6",
    "y2_face(h_deg=11) t=15":
        "3c58d8c3036c8866ff6fad880652c043acf47a8654dbea8482f81394e988b1e9",
    "y2_face(s_extra=1) t=10":
        "69ff77a2eb04034392d139ffc38756d41d44ae9ef4695eb44835c93afdbc67e9",
    "y2_face(s_extra=1) t=15":
        "1094550e24c656560516ce549c643f5de36bfdc35084fc43757bb5caca5ae463",
    "y2_face(r_extra=1) t=10":
        "3447c7f56625572ddad7940be095e8dad4ae841608cce524a164a15cda5a8fc8",
    "y2_face(r_extra=1) t=15":
        "635824b967352e3616d69b648244ab060caf149315bee579c9d0de824d8238bf",
    "terrible_face() t=10":
        "17679c97650eea98946eeefacf2f577564a3494aa035c6c77b02d09d36ac4177",
    "terrible_face() t=15":
        "9c5a133a0b3e3864a9d2e78657d01997989b9820f146b948a5cf38cc60091713",
    "terrible_face(v_deg=11) t=10":
        "b912d330582c26a9fdbcd681cfae965ebaee213c0c99d09b5752ff2c1c2e75f3",
    "terrible_face(v_deg=11) t=15":
        "ba5cac9b07ec7fca027899c7b619f4b973a1cb1af7cb53a6cff9366e18746e4d",
    "terrible_face(u4_extra=1) t=10":
        "5ff6a57cf3f5e903ce671987f826238ef9eb04d4070a749de16b4c03741cb4df",
    "terrible_face(u4_extra=1) t=15":
        "0da8cd3244dba026ff214b7a320581e9fc5998ab65c9307cc65d75066a09bff1",
    "terrible_face(w4_children=0) t=10":
        "86e53294ff0b862a68f740df08b5c44c53381f82a30cd103806c3e5380ad88e9",
    "terrible_face(w4_children=0) t=15":
        "4c0d0c4b34eaf248f2caa2311c2727fc68a0b84caaf095e1773e9e8403f18123",
    "genus2_bad_face_gadget() t=10":
        "eba472fe52b0da114548450172fc5bba21d545db13d94dea184a94b0f7ed93fe",
    "genus2_bad_face_gadget() t=15":
        "b3c4f43432b3182776a467263495c25c7bdfcae4747b8b9edbd6d7d2f82020ad",
    "petersen_projective() t=10":
        "21b92d73127e2937b3a2fbcff221435405e193f6caff1f8c860a6627424f3a87",
    "petersen_projective() t=15":
        "cadd01952571385c2a68269d471f498692acea9d2b3ddbaadd45fde23c36c53d",
    "chorded_cycle(1, 310, 2)":
        "7f2b343a9131292f3a3a079cb6c1e2468b828f10ed9b7b3857db56b86f8c8dff",
    "chorded_cycle(1, 440, 3, twisted=True)":
        "d8fe2b7f95107009b78f8949b7832bf0bf0d6fcc38db653fd5cdb97c04a887f8",
}


STATS_GOLDEN = {
    "corpus[0]":
        "83186ea5afb72b8b58cdc8b016354d177389f6f856612b8ed3d5647ffaf828f8",
    "corpus[10]":
        "c17649b0934880e370636c543aa98385507104aed7def8cd2b43ad7856c4738a",
    "corpus[20]":
        "3b0884c4eabfab3b75d8e8f86c77ec9dfb3d859641b0fb80385596cfadb87703",
    "corpus[30]":
        "67108c752d97cf278946c5fb6169ce0ade2d983f75cb3b847b1cbfe8ee35973a",
    "corpus[40]":
        "5a5dbb823a00f079a078049b4cd0eb4751a006d4bd4584e49c9737b430e031f5",
    "corpus[50]":
        "ecaa0774e725f4760dd0f210820dfc7d83cfc2ce69f644fb487e39924323b0ab",
    "corpus[60]":
        "e16e973aa4879f72083af163a78141168c33c355b4dd7362ea53e10b04663f3f",
    "corpus[70]":
        "3e2cbd0d360201f5cedd1ea618941105f8804185131b2ea2166cbe225ce98b1a",
    "corpus[80]":
        "2ec3ad559ce699e06a1f9b014c9ccc0ac3dc33fee76ce4466960235551abdc28",
    "corpus[90]":
        "b7486ebf25a393c0c74e4dd9304586c65d8cc13fd585992f37c28974e54fd2e1",
    "corpus[100]":
        "d614f6b07c65b72845aa34b0a778a017dfdaf41f6ad1f47e4926b7f19866cee5",
    "corpus[110]":
        "778dce7b50d433dd9d0adc791e4f9b410a64e70a04f92ec29dd9453857360974",
    "corpus[120]":
        "40aa4aa8b2f08cc15f1021c4f02350b906ee65fc5fcb2552a2dbc66ed430f734",
    "corpus[130]":
        "4a8e01ad0bef022a65b4e58902bec7d4572e29c2de65140fa6ce4b4acf093818",
    "corpus[140]":
        "33c47dce7a5e40fc0960e9c5174cc6d55a2bb49f918e915e7a9aa149cd5fb749",
    "corpus[150]":
        "3f61df7ef07734acd31de002a6409803386d4b98a3f3b14a675db3b392c6d22f",
    "corpus[160]":
        "478ec14ce87aaeca4f7ba383111ab1c6ac41dd0d0563bc5354212069945e0ac2",
    "corpus[170]":
        "9b4241b20f72fe5253f4bae3131c31753855183bc554976fe6f44f2f72c1814f",
    "corpus[180]":
        "f382e89d374ca7685a22d3493106e5739fc10669b4dad3016eaf72340dbbf1a1",
    "corpus[190]":
        "b7759ed1fc9034e39181b3dc106df56ec116745b7ff96f579d348de0597bb1f5",
    "corpus[200]":
        "8f269c3e47d546bd406c632c22bbdd30ef34618efe9722873d9cd9f078661a48",
    "corpus[210]":
        "3495121df4e481705331a39ae0c19753f005840779e82d285f23e97054897c9f",
    "corpus[220]":
        "7bfd22bde247f6eecfab0a69d9edac9466268e69afc87b7f78eab28e8ea90880",
    "corpus[230]":
        "0d9caf24f9353d94a2c8e53a38ec8dab8cff9495b3ab16e01dd4cea761775b45",
    "corpus[240]":
        "37891900ed37a6e6cff21c07a025ad962b9081a69f5fd20b388920fea985e544",
    "corpus[250]":
        "3c932ae3c82c4a43234c62870b4e7ab0ee7b2b6820913d1a855939d7e6c55950",
    "corpus[260]":
        "b4298d051ee72ce821de2fab21664883d6e76fce024b8d0e84b3639f9feca95e",
    "corpus[270]":
        "717dde7a8477903edad92cdb5e03a87b2b4ad25e6f241628a2d5a13e246413d6",
    "corpus[280]":
        "9196f6772e716d273c1693a67fd8ef8602cd64e67cf8be7c877d8451459f78ac",
    "corpus[290]":
        "d0cf66b4741932a660097162827f1ed942db599b76a0101f0bf638631dbedc7f",
    "corpus[300]":
        "50842a4163a7bb7cde0bd0b8301c1b8a501a86d31309b51362529419b250de63",
    "corpus[310]":
        "1ba5719593f0f9e006a2633edc1996082c34f09468b086646346b54b5cbd9b3c",
    "corpus[320]":
        "d811e07b15735738bfedbcc1a509b480a97d322feb5c915cea6a41a859417644",
    "corpus[330]":
        "2c1be568cf33e8c6b10ad279a90b4b08878fbbf49ce0183169d10d9177139336",
    "corpus[340]":
        "3c0113d3c34df02bdc43aab35ca59758961839c4f65e109f8358675db32d360d",
    "corpus[350]":
        "894eb294fae0eaa4fdc1d250f9df9215647664748efcf704272dc695f3ceedaa",
    "corpus[360]":
        "3982ea3432f0e41443bb530d482c00068a8834a56c8cdd6dbc3e43c317feaa5d",
    "corpus[370]":
        "10497c39c6b581e1795aca2863bb8e3a9a7cdff1e87a12ea9794f012cb8a18ea",
    "corpus[380]":
        "4a12575bf2f023a08449845b9652f2fcd0c2beaefdfd429d060a57d7b8062aef",
    "corpus[390]":
        "2481b168f74a5a05521c439a65653fc0f97919f634d8c24b9c6ce2af47249dc1",
    "corpus[400]":
        "62fe2a202eb724f62cbcba585ffca54ff686fce14b60a3350fa5c5b7e2c06a84",
    "corpus[410]":
        "b14faa99f92cd6f8462969b2b311c9938068f63ab9b6a8930b9ae21a2dce0fa2",
    "corpus[420]":
        "72d4e9f2f4b9d3ce4c01a98126a8d2a243bef59139155f356aa5218a41b9b971",
    "corpus[430]":
        "e96094d76bda5cdec2d65b1ec101a5909b6584cbea088cbd532edf735b805e59",
    "corpus[440]":
        "201143b51c552a0226502a4bb613e82d54f1b87aa9d4d0d9a37e2780e0331389",
    "corpus[450]":
        "e41410f9b7683b318aefd8a5512731e8da8c577017bdd2a36b8259039fcbaa20",
    "corpus[460]":
        "0edbd99c8b1ffd630f9b8d9b751b7958997cb8956ff89284f96d80e3abb2125a",
    "corpus[470]":
        "b6f00fd6a6b4d210897a661bb7d859d0b00c4cc17be52c31955ea5f9f48433cd",
    "corpus[480]":
        "367f86148356339bb172a04d07e767c47396503dbf2c8583c726ace304592a24",
    "corpus[490]":
        "52b8f4324ac3012ab0a2661bd41cc3b8d61e6acb987fd514a1c85f8718d2c694",
    "corpus[500]":
        "48800390f1555a495d73e7ab8b8834a41e3bf99cddfa772db9b667db2998a301",
    "corpus[510]":
        "51d7cde376990db02036400d1099f73f51d1547f8e7c38eea8328ef985fc9c04",
    "corpus[520]":
        "71634594296f553eab9676dd1fd757895ff70877cbc074155181275f685f6b90",
    "corpus[530]":
        "a5ea9852618ebd6e79229dca63e299fe448cc8d4d5d2d7a69b5e3b67f9e2a81e",
    "corpus[540]":
        "12e25eec6ba5ac34220a83401b70c96e73a8cdb6253fd440e19175410e42ffd9",
    "corpus[550]":
        "da5e7bca6262d1318254e4d36eaf10c12aedd0c0f7104962452f1b1cec521a7b",
    "corpus[560]":
        "5511c1259aa567a1e7565a1fe51d17bcb6769d11defa1849a6bb381b48578ec8",
    "corpus[570]":
        "8325a01e7b32d75bd4859b28d34e485a3218cca3eb57f5ca1606de2b835d3b1d",
    "corpus[580]":
        "918654bb2e8dece4b5d43e20fd32a29e9c1426a80e063cfa21c7ee0ff55a0d1e",
    "corpus[590]":
        "4cf73aa8e6826d7315b3924e94f52db3665648d89e985dcc256fe024a47ebec8",
    "corpus[600]":
        "81aadd659d8bf94132899f0d8582c1a6bd5e9d983562a13c936bc56e4078ceb8",
    "corpus[610]":
        "f5daab3e5c13075bd85fc969ef842988205c47e51eb203de090e27b26d0b0377",
    "corpus[620]":
        "1e992c441d96a06a1549278dd7ebeba750427cc090a037f151c37e679539110c",
    "corpus[630]":
        "f5aff4c88a46b2ca6db99bc1a7c8cf0008aefdd1da1be4e0ae212ab1aaa68d6e",
    "corpus[640]":
        "9c5647b6f8a78f407f9a6d610dbdbf70d6daac053573c8e94cb081331f836e17",
    "corpus[650]":
        "6f018cae534d12175ce2af56de69bbe1202dd4706da79d99f61edb014051a074",
    "corpus[660]":
        "19d8c38b12d4d5734f7abfec059e957dbef50383bf61a456402d29d37c9186fb",
    "corpus[670]":
        "d4405f0073d478a6c6774bc00593512fb4619e8c9c12a578f3a148994a19d45d",
    "corpus[680]":
        "fde08333401bcf23f7235392a5b80bb444c585bbd34e7071d10b444cb3cee200",
    "corpus[690]":
        "08cb45b1e40a1853000cb007ba57079d5273a0f2ae3e33bba8db0d5e37e3e06d",
    "corpus[700]":
        "7c3c59bfc8193fe1ce1c1f606d8cfcf8d8ea587110d1ac008eb571868a268008",
    "corpus[710]":
        "2239924effe3411d41404d7cae18208a65947c88ee8c76235233583d4feaa447",
    "corpus[720]":
        "cdbf01a7103b69f31a9d63be8c3e712d46b5dd820a5475463393e21e99cc6edd",
    "corpus[730]":
        "e162585a495b512d5df922b75c20cc2ed32435cbe7ba0c07262bf9c04d27521d",
    "corpus[740]":
        "fcde6c54ef99947e41a2467d2a688a8232ef8f0297039431b9b00d34bc056eb6",
    "corpus[750]":
        "27f103cfc18fc1334ff556804d26ebf6eafc2b04454ba32417ac347335115136",
    "corpus[760]":
        "f6890584ade7c3c1469664c5df49fbd2386afdd6467cfb03e051f2d97a26a888",
    "corpus[770]":
        "debdf358d2d17d730293746683007ab0b97a4f392f5f83c2c231f561c15dabcb",
    "corpus[780]":
        "95f8a4a9658fa03d94fc3d268f7c31001540b8ec25683803278cc93cca33c5ae",
    "corpus[790]":
        "3048719c7e77cefae2cd78bdbd7a59032c0101d17a51f856b7345a8fd8c72792",
    "corpus[800]":
        "4a491fd56a52a248c21da2d98da662d8b52ea28247d8f19caa6e50f2b079ab2a",
    "corpus[810]":
        "195ad8f0cc7eea517d6060304635239854e8a5f2a16064e25fd66ed7ba05945e",
    "corpus[820]":
        "53730a721fc4df1040595a3870353e391a62ba23ea37da74f3297ec1a829b493",
    "corpus[830]":
        "d21a00d3de857e15b4304b810dbd658dbc50327c05d55dae24e8897683ce8394",
    "corpus[840]":
        "54cc6d647774909009a825c673961558f5372179764344f90f84336968a6dc6a",
    "corpus[850]":
        "8075a57283f1334c2d7a4d284b412fb06acfb3c9d36de928b9c9400b5e0e6291",
    "corpus[860]":
        "76213e18853ce4dfdc70956c5e8fc3ee62e553e53c76610f9594f93479b554d3",
    "corpus[870]":
        "85d268247c56bd408f826d934372bd42829b18d19e70f9f5e6a389f96b53c52f",
    "corpus[880]":
        "99ca01dd385031fadc5cce0c8ea4349e768766c85e045bd3b1d12e623d5ec6b4",
    "corpus[890]":
        "f3c189bc0017713c2df08d6235801612b82006f89c79b73e4b6fb01548883548",
    "corpus[900]":
        "966f1650ed4614c259150ba79b58d15c1c5f63a05d88abc5920e4e73f1d4c72f",
    "corpus[910]":
        "5de6d861082e7bf2e202476b3c1d01dc22200ca0a08626d4c9638e06ef491d07",
    "corpus[920]":
        "a1cad3b6c9a124d981fa2560df4bbb1b365df6164fedb0bffcfdbe30de77ce3b",
    "corpus[930]":
        "c1ca4e05d198febf49432b9a7b45787abee45ebde614f63022e255c1f0606865",
    "corpus[940]":
        "2d9a4976e098138cc4139cb0e64440d5ce1725cadbaf1653405ff66792600dec",
    "corpus[950]":
        "0cdd79d1c92f6c978520c84b04231dfabe8a94140b94b7d3d1fc432545839ca7",
    "corpus[960]":
        "dcca6d7de0793fce84aeb2e275786571d7329e5440d265cdaba0d2ae8cf2b63b",
    "corpus[970]":
        "177216a1b44888f334af3393bf81c5ec671834e0ac2b76fd2398421c1cea4ee9",
    "corpus[980]":
        "73e7a26163cf0615fd4803b2000c52f91d8ffed3cc979009023dea0cb52ef2d2",
    "corpus[990]":
        "09b087daaa694dd137086d2c008fa4b6eafba62bd2d5c218861c39fdb1dadf26",
    "large[0]":
        "9223a14919f285afb92a42b41c3a41373c8dfc68028f5d338e954c09e413b98f",
    "large[1]":
        "d6848ddc819b97b07d684cde2dbae49433e0fe0c0edaf8c530892374012a5e0c",
    "large[2]":
        "4966c55ae0a19dbca5332f1aa2f709536bdd8948b0e402de9d148aa53bb7d9b5",
    "large[3]":
        "c215391178a4480589ff7e52c3d7ec65cde87c353b7be984b0a67e19cea694e1",
    "large[4]":
        "961f20986c53a09dbefc00cbda7cbfc8580f163a4fbf342868a0411425ce6208",
    "large[5]":
        "f6362b76adf931ac3593b33728878d1a43cb41926cba42f582fc3112abf85105",
    "large[6]":
        "8310e1d796369bbb88f3b386f40f6edc94f655d3dfb3db4bb5081e7e871de3df",
    "special_face()":
        "3eb629f7d2ba66e8047fd8bcba3fcdec3f0bef77f84307c76d748aa02a1bfbc8",
    "special_face(hub=11)":
        "137b92cd821a36e3a58c92f4e329d8d4977bb97d8ce4ff5f188b4269a5999486",
    "special_face(p_deg=6)":
        "c9cbd809d228ee450f47287337ff800e8a2af1e1f73f09a976b11354c8ea9c20",
    "special_face(q_deg=4)":
        "4775d281645182f77445a919a4c74b4eef31923148444ca3cffabb5524c1cec2",
    "x1_face()":
        "a3c60061825a0883316a4722d36427f17c37172815c55265cc04d92bf32b108e",
    "x1_face(h1=11)":
        "78a63cc5dcc386c2630fb37dd940c1f07e8ba050aa7f583e01b363678b83d1ee",
    "x1_face(s_deg=4)":
        "da9762734ff798b04bf69c5049e16f436117ee38a29320995b1ac5a56e521d8a",
    "x1_face(external_high=True)":
        "8a6bde147d68285e1e498cccc384412196c642a044945f7eb7b4c22e50d5b86e",
    "x2_face()":
        "4b6875062299398a48d6770965020f5581df35f6d951b4975b69e4457ca14f19",
    "x2_face(h2=11)":
        "594faa8d6295710a2bd6d3a861e2f5c9b97bb3507297a1dbe4c16e15e2f27166",
    "x2_face(u_deg=5)":
        "7b40fe2a065dcd338f23ee9ae6a68005004339a2917c892c5301a840b9d95fd0",
    "x2_face(y_deg=1)":
        "da9762734ff798b04bf69c5049e16f436117ee38a29320995b1ac5a56e521d8a",
    "y1_face()":
        "6ea53c2262db8a0951d5a17533d2702070cba0b15eb6192f5062f097efd385f8",
    "y1_face(h_deg=11)":
        "cf0efd58b65016aa661960a0cf1578c95f44423975b7d31910a602053d3791c2",
    "y1_face(w_extra=1)":
        "8b1b290b54a2994aac5c0bef7387a55add87b67cd97414d29e71f8c7de4d26b3",
    "y1_face(u_extra=1)":
        "41497abb5bbfab0072b70568806949876ee0493385da7f8a77cb26e66ecc931a",
    "y2_face()":
        "7c7554c46c1b031b71cb7da5551ba3d49cfe9f2c86213062bd619f773354d3a4",
    "y2_face(h_deg=11)":
        "89b6e996c8d903da5e5158643eebb6a3b4dd4d2a65d73344dd1d80ac929e3e5b",
    "y2_face(s_extra=1)":
        "0f040c8d760cf4e7ca2d3c54035bb5d3a6a237ffe0c0ff71231abd26f53632b8",
    "y2_face(r_extra=1)":
        "0f040c8d760cf4e7ca2d3c54035bb5d3a6a237ffe0c0ff71231abd26f53632b8",
    "terrible_face()":
        "eee617e91ec38af4e4aedad048c17f67f557ba0384b1f875e3278b1dfab1e3b4",
    "terrible_face(v_deg=11)":
        "93793436229f3aca332d3031ffd1f21d47cb31bcea583a4d0090acc6c67e5de9",
    "terrible_face(u4_extra=1)":
        "c00f5ee1bf4455056a8c61249f85431e867327fed90ab47afa5e03892d568c09",
    "terrible_face(w4_children=0)":
        "8b1b290b54a2994aac5c0bef7387a55add87b67cd97414d29e71f8c7de4d26b3",
    "genus2_bad_face_gadget()":
        "6744c6c0cde8243e74dd749b28a4b61841b84eaefe2013753e55d3185e58f33f",
    "petersen_projective()":
        "797e56e2bac8eb2ee42da170553a9dcde63ce52c9552532be2cddc856d2e1e68",
    "chorded_cycle(1, 310, 2)":
        "8921cb84f984fabfb2fc8b0e56bbbfd69a7135c559037deb47f316dc8e709e55",
    "chorded_cycle(1, 440, 3, twisted=True)":
        "605c893494275bb39231d18304391a84f86884b93a9e01d56a797732d422304b",
}


def test_corpus_outputs_match_golden(corpus, corpus_large):
    assert corpus_digests(corpus, corpus_large) == CORPUS_GOLDEN


def test_fixture_outputs_match_golden():
    assert fixture_digests() == FIXTURE_GOLDEN


def test_trace_outputs_match_golden():
    assert trace_digests() == TRACE_GOLDEN


def test_stats_outputs_match_golden(corpus, corpus_large):
    assert stats_digests(corpus, corpus_large) == STATS_GOLDEN


if __name__ == "__main__":
    from defcolor.generate import gen_planar_girth5

    corpus = [gen_planar_girth5(*corpus_spec(i)) if i % 10 == 0 else None
              for i in range(CORPUS_COUNT)]
    large = [gen_planar_girth5(77000 + i, size)
             for i, size in enumerate(LARGE_SIZES)]
    for title, table in (("CORPUS_GOLDEN", corpus_digests(corpus, large)),
                         ("FIXTURE_GOLDEN", fixture_digests()),
                         ("TRACE_GOLDEN", trace_digests()),
                         ("STATS_GOLDEN", stats_digests(corpus, large))):
        print(f"{title} = {{")
        for key, value in table.items():
            print(f'    "{key}":\n        "{value}",')
        print("}\n")
