"""Byte-identical CLI output: SHA-256 digests of the JSON, and of ``cup``'s text, on every fixture.

The digests pin the regression contract of every refactor: ``basis``,
``hh``, ``cup`` and ``verify --all`` on every fixture, ``hh`` on every
fixture over three prime fields, ``cup`` and ``verify --all`` on two fixtures
over GF(2) and GF(3), ``hh`` deep into the exponential families ``rsz(2)``,
``rsz(3)`` and ``cub(2)`` over Q, GF(2) and GF(7), ``ambiguities`` with its
left and right pieces on every fixture and on ``rsz(2)`` and ``cub(2)``, the
seeded ``random`` suite, and ``cup`` in text mode on every fixture, must print
exactly these bytes.  A change that is meant to alter the output has to
re-record them, on purpose.
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from monomial_hh import cli

from helpers import ALGEBRAS, named_text

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

COMMANDS = {
    "basis": ["basis", "--json"],
    "hh": ["hh", "--json", "--max-degree", "6"],
    "cup": ["cup", "--json", "--max-total-degree", "4"],
    "verify": ["verify", "--all", "--json", "--max-degree", "4"],
}

GOLDEN = {
    ("example_cone.alg", "basis"): "edf9558a03a0ef2807c4108a371182f77873219e69a1e84ed509bdb1228d5ca1",
    ("example_cone.alg", "hh"): "8400b57e833feb7dac22f958677e36d87066a27a4d0d1b56a138ad0639bf9e1e",
    ("example_cone.alg", "cup"): "ff668034e083504e24538357ee1247ffcf27f8183e7c791e0ccfcca284cd5cc8",
    ("example_cone.alg", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    ("square.alg", "basis"): "c208eaf5a2cfd37bd650e3fa08eca47763e8ebc4a91239bba8e609c52f00c908",
    ("square.alg", "hh"): "09edaa5ab225834e6f2c4c4a9e2bb57b19ad14de1c31b1795bd14c40622a5fd0",
    ("square.alg", "cup"): "9f619f17bc1bf51617afeb47cef092ff48e0c3d4cc8d752de9ba5ead0b701e7f",
    ("square.alg", "verify"): "b8df9012b934e5960c7d7b48c2af06f16ef212e35d5127fe85507c972d1c2d4f",
    ("triangular_a6.alg", "basis"): "7cf98d32c3bd19cb591db7fbb915ad2b2a26d17b40c3d2da0443413f5f62cb58",
    ("triangular_a6.alg", "hh"): "95c3340a93591e9c64b8f6fdaae44995c06217b8279ed952a60ae8c4e3f47680",
    ("triangular_a6.alg", "cup"): "baf299a98835b73bfa1652644b80c94ef5e874e3225755b2de2c6e1875626d0a",
    ("triangular_a6.alg", "verify"): "60f81c3be8dca5767b1ebab16f67528ff4a0bf4e7b918fd7b75d6618b0c07448",
    ("truncated_cycle_3_2.alg", "basis"): "d2e8553759dda769a1e0ca08d5ec72c183d0e9ecb9ff89407edd10ece1dc9006",
    ("truncated_cycle_3_2.alg", "hh"): "861a13b97483c1e06fb0f4343876f6b16b601690316181e6f6af33351468ab43",
    ("truncated_cycle_3_2.alg", "cup"): "7ad9f1dccce95654e1e7bd3c0b6905f6b594e60cd0df50a0bc85f181d9d96fd4",
    ("truncated_cycle_3_2.alg", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
}


# ``hh`` with ``--field`` overriding the fixtures' ``field q``: the prime-field
# elimination, pinned on small, large and characteristic-2 moduli
FIELD_GOLDEN = {
    ("example_cone.alg", "fp:2"): "7a83d7a75125b7e8c613e99ba576ed7058d620e2b7f82da3692203a3e73dae81",
    ("example_cone.alg", "fp:3"): "eaae1a543cb8df9256f080040a258b3fcf9ec100f86b0fffeebfffa73ed83908",
    ("example_cone.alg", "fp:2305843009213693951"): "dca21654eb18df145dd1a048c35f38188bac2557894a8f2e5ac1bbf9621788ba",
    ("square.alg", "fp:2"): "69056ac7cf6378f58944b401c194a760eab96b3989210ed8fdf166dc59973b27",
    ("square.alg", "fp:3"): "ba9bc43789dda4b15f9699184a06cfee436f0425a9306835fc9d508d9ec0419f",
    ("square.alg", "fp:2305843009213693951"): "6b79becc448e8a1cca794d277485b1fe05ea38c005dbed058ea3cf10a1f30f49",
    ("triangular_a6.alg", "fp:2"): "f982c392007d1a61436623c4cb961422af0e919f7af7a9f195a6f9300cd2c576",
    ("triangular_a6.alg", "fp:3"): "899667a376df4a2d8686a1397e2598b313572fe1d06877adbc7522d404dae70e",
    ("triangular_a6.alg", "fp:2305843009213693951"): "b99440e93d6f98891636356f3e57074ace6bb48c1ae153ff48c9e15de6113fba",
    ("truncated_cycle_3_2.alg", "fp:2"): "ea7745b2f31f66ec8706d6b4ebbb325cf2fd4599ed44cd2abba8b0f4a9df15fb",
    ("truncated_cycle_3_2.alg", "fp:3"): "e1a52c1bfa63f440080eea7aea3d3e7c1e0c62e379619c85e393b2191c729fe3",
    ("truncated_cycle_3_2.alg", "fp:2305843009213693951"): "87542f3e0dd84204ec07e1940cfc599194d7f72e1166ad4edd6cec9b846fb87b",
}

# ``cup`` and ``verify`` take no ``--field``: the fixture is copied with its
# ``field`` line swapped, so class coefficients over a prime field (``express``
# and ``from_row``) reach the printed bytes
PRIME_CUP_GOLDEN = {
    ("example_cone.alg", "fp:2", "cup"): "1a473dac27b7d92fae404e6a9673bf53a7fdb51fa68c0ceb150b588ec9c9c068",
    ("example_cone.alg", "fp:2", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    ("example_cone.alg", "fp:3", "cup"): "c2000df193121dd2794c427b4f59a8a7a22ae6ac0204459e324d13baac4b519c",
    ("example_cone.alg", "fp:3", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    ("truncated_cycle_3_2.alg", "fp:2", "cup"): "ca67ff8f882b9d5200271a6f741a5fa5caab08567e16ccefc6f9784ca9dccebb",
    ("truncated_cycle_3_2.alg", "fp:2", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    ("truncated_cycle_3_2.alg", "fp:3", "cup"): "7ad9f1dccce95654e1e7bd3c0b6905f6b594e60cd0df50a0bc85f181d9d96fd4",
    ("truncated_cycle_3_2.alg", "fp:3", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    # p = 2**61 - 1: products of two scalars pass 64 bits before they are reduced
    ("example_cone.alg", "fp:2305843009213693951", "cup"): "1a473dac27b7d92fae404e6a9673bf53a7fdb51fa68c0ceb150b588ec9c9c068",
    ("example_cone.alg", "fp:2305843009213693951", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    ("truncated_cycle_3_2.alg", "fp:2305843009213693951", "cup"): "7ad9f1dccce95654e1e7bd3c0b6905f6b594e60cd0df50a0bc85f181d9d96fd4",
    ("truncated_cycle_3_2.alg", "fp:2305843009213693951", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
}

# ``hh`` deep into the families of ``helpers.ALGEBRAS``, ``rsz(2)``,
# ``rsz(3)`` and ``cub(2)``; (family, max degree, field) -> digest.  Over GF(2)
# the signs collapse and entries of 2 vanish only in the field's ``to_row``.
LOOPS_GOLDEN = {
    ("rsz2", 8, "q"): "d07b949128a6524a60ece5f39f2baa305753f598b4c054b6f660b80cfb40363c",
    ("rsz2", 8, "fp:7"): "e5520144bc4f716324e6fd9967b1d429a136e03cf2a68fd7b0d793c6bb4e7d93",
    ("cub2", 5, "q"): "e9d84158101b7db4be7c0af378fd5d437fae7718518ab6a63040bee1f6810870",
    ("cub2", 5, "fp:7"): "bb5fb5f979b22b7011802c568150c6f75edb950d9342fa73d611eaba805d0d29",
    ("rsz3", 5, "q"): "dedfd53de81d16997e00e15336f109db254dc70053e293194a654d527b973dcb",
    ("cub2", 5, "fp:2"): "274774963e1e748160d846481aea82bfd8a7525d0a126adc6fd5704753d0778a",
}

# ``ambiguities --json`` at one degree: each member's written word and its left
# and right pieces; (fixture file or ``helpers.ALGEBRAS`` family, degree) -> digest
AMBIGUITIES_GOLDEN = {
    ("example_cone.alg", -1): "780bf85d91bf5b3c799f2afbf3932ee329cd8af3c05ad308fef23deed052e9bb",
    ("example_cone.alg", 0): "402ed0b9930870c78e0a643edd4618acbdaece4ae3642639b9c1953ded360be8",
    ("example_cone.alg", 1): "5c0a342d83e9077ffc01d5e9d50be9ee2f978d3c99c54653a5eb42fbdd37938c",
    ("example_cone.alg", 2): "dfade88af6a63d02ed442bb471e7579ed2c283f6e9c34b313202a7fb86c48c13",
    ("example_cone.alg", 3): "55c037ff2134a8abe74e6ea6118276bb838f221e71498e42cc2203d118506e44",
    ("example_cone.alg", 4): "db18792600b00c4c06436814820fb426446d843352f170d07eba12caa6ea91d7",
    ("square.alg", -1): "05315654fef5e71fb238cb70f45f402c0a456886b6b1eef9ec2ea284d825f82e",
    ("square.alg", 0): "01e6d6e71220bc06e4fce24485264edb70c92e1963ea159a7266e6bb653409a7",
    ("square.alg", 1): "be518eb61fa3bc0c637b19e6bc33026df1d137cd07d461c3cfcc9997cb9c1415",
    ("square.alg", 2): "547d9b53a49ecc92a8a8a2f72313bea1dae656c943f736a95837ac1617c43d23",
    ("square.alg", 3): "729a8d903271c6a8f280d90130993cc187adea3fb92035a26fef0e0c88277b1c",
    ("square.alg", 4): "4266002d283f14debc4abbf51a56781c26979be78934ee75ae5906a63530b55b",
    ("triangular_a6.alg", -1): "273868e1eb8f8bb2b764db66f440bc8f281e0b3cd13bb510a2125450a0b412a9",
    ("triangular_a6.alg", 0): "2fce2173bf451b784da79be18790efecb2ee63adae7aeda7bcbfb662626032a9",
    ("triangular_a6.alg", 1): "efc9f486379a77979e737505a62074ae3b36a92db8347b777e3b0b41fecc423f",
    ("triangular_a6.alg", 2): "1ae9d7794f0577d3073bd1b6fe6660e2bbbef2ce8b93a68aa9d4246937469b64",
    ("triangular_a6.alg", 3): "c1562b1aafa6da2ba2b3a6aff3b2945b61e73acc78cf6e8bda1d45516918bbdf",
    ("triangular_a6.alg", 4): "c2c3cd35ec574259ce3da27e929c248d7ca8554ea6c50fbcfb65af953090ccde",
    ("truncated_cycle_3_2.alg", -1): "780bf85d91bf5b3c799f2afbf3932ee329cd8af3c05ad308fef23deed052e9bb",
    ("truncated_cycle_3_2.alg", 0): "d99cd3162cc87aa5eda899f7fa4ae1e4210ffeb89ba2366728ac293b38d54b54",
    ("truncated_cycle_3_2.alg", 1): "f89156f7ce71952695fe0b59ac72cb1a3b40c82d463c9ae6896f95e7dc9ae0bf",
    ("truncated_cycle_3_2.alg", 2): "9dc0dc4805da86281abccb1c9c4805090d805817b1245692d2dd4a51d4db9454",
    ("truncated_cycle_3_2.alg", 3): "ebacdf75fb6bbb40a6faee22b8eb00154a1cd993c3a25004a002d5c7dfe09cb8",
    ("truncated_cycle_3_2.alg", 4): "96fd2effa313af8435e0d6596b9c016aa0313776ec74e41e277cf9e427405bf6",
    ("rsz2", 4): "d8a2306a6e149cc36b06237e5c094776ba70be86f85250615f0e3c57aafdfba1",
    ("cub2", 4): "c165dd7638bca1a120fe88deecf86a4cd5cd3ccc93d117d6c9670a34ad364a09",
}

# ``cup --max-total-degree 4`` without ``--json``: the text table of each block
CUP_TEXT_GOLDEN = {
    "example_cone.alg": "762a9f9368989c15f289aace886c2cd7ff53e1f25491d2d176020f4c9225e327",
    "square.alg": "926fa80b0738cfedaea261f915ce1db4d8f53d973106886c37c38e71674640b0",
    "triangular_a6.alg": "5253fed8640876391b93101067b8211afb8e9bf135c8a8fcfc917be4faa30afd",
    "truncated_cycle_3_2.alg": "d0b752bde024faeb380d087ff53f2c603c818a9a5dad2ce20d9a65c4423b399d",
}

RANDOM_GOLDEN = {
    ("general", "q"): "c6e6e82227ea9cf144ae362b3575f0a0c5c007fd6d0fc073ed5dd9fd1c36b2fe",
    ("general", "fp:2"): "35d38e7d49c9fa61f6a6acac8e3398bf1c85689d9104ff59140e1f01ed2bca9b",
    ("general", "fp:3"): "c92eac8c9badd9f9f281b5acc49da1dee0b444e378d61adb0ab761b2cd830ab3",
    ("triangular", "q"): "93908dd9fe209f1a99d88e9eecfa5bae8bfbc433444420f39b3eeed20db06d4e",
    ("triangular", "fp:2"): "6371bfc130138d6def914e5ca9c895fe83c83053996a414e973d1c738e1c6683",
    ("triangular", "fp:3"): "9e25ddedb4cdbaf334d586908559be3940321b2e85c7b2e7130641122ddd2712",
}


@pytest.mark.parametrize("fixture, command", sorted(GOLDEN))
def test_cli_json_digest(fixture, command):
    argv = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([argv[0], str(FIXTURES / fixture), *argv[1:]])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[fixture, command]


@pytest.mark.parametrize("fixture", sorted(CUP_TEXT_GOLDEN))
def test_cup_text_digest(fixture):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["cup", str(FIXTURES / fixture), "--max-total-degree", "4"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == CUP_TEXT_GOLDEN[fixture]


@pytest.mark.parametrize("kind, field", sorted(RANDOM_GOLDEN))
def test_random_suite_digest(kind, field):
    # the suite runs every cup check: closure, commutativity, vanishing, one-sided
    argv = ["random", "--json", "--trials", "6", "--seed", "1000", "--max-degree", "5", "--field", field]
    if kind == "triangular":
        argv.append("--triangular")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == RANDOM_GOLDEN[kind, field]


@pytest.mark.parametrize("fixture, field", sorted(FIELD_GOLDEN))
def test_hh_prime_field_digest(fixture, field):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["hh", str(FIXTURES / fixture), "--json", "--max-degree", "6", "--field", field])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == FIELD_GOLDEN[fixture, field]


@pytest.mark.parametrize("fixture, field, command", sorted(PRIME_CUP_GOLDEN))
def test_prime_field_cup_verify_digest(fixture, field, command, tmp_path):
    lines = (FIXTURES / fixture).read_text().splitlines()
    path = tmp_path / fixture
    path.write_text("".join(("field " + field if line.startswith("field ") else line) + "\n" for line in lines))
    argv = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([argv[0], str(path), *argv[1:]])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == PRIME_CUP_GOLDEN[fixture, field, command]


@pytest.mark.parametrize("family, degree, field", sorted(LOOPS_GOLDEN))
def test_hh_loops_family_digest(family, degree, field, tmp_path):
    path = tmp_path / (family + ".alg")
    path.write_text(named_text(family))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["hh", str(path), "--json", "--max-degree", str(degree), "--field", field])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == LOOPS_GOLDEN[family, degree, field]


@pytest.mark.parametrize("name, degree", sorted(AMBIGUITIES_GOLDEN))
def test_ambiguities_digest(name, degree, tmp_path):
    if name in ALGEBRAS:
        path = tmp_path / (name + ".alg")
        path.write_text(named_text(name))
    else:
        path = FIXTURES / name
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ambiguities", str(path), "--json", "--degree", str(degree)])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == AMBIGUITIES_GOLDEN[name, degree]
