"""Vertex labels are pinned: the packed adjacency matrix and the
zero-stabilizer generator images of every catalog row, every iso target and
every affine polar form on at most 4096 vertices hash to the values recorded
here.  A change to the field indexing, a modulus, omega or a family's
coordinate order moves these hashes even when every graph invariant still
holds.
"""

import hashlib

import numpy as np
import pytest

from rank3.catalog import builtin_catalog
from rank3.families import Build, family_graph, parse_descriptor

# descriptor -> (SHA-1 of np.packbits(adjacency), SHA-1 of the concatenated
# int32 image arrays of the zero-stabilizer generators)
PINS = {
    "paley:9": (
        "e2b9b248f046ee79cfc55f01b484d89b1f465f14",
        "3054cde7206a4274931a36279669cde88c356643",
    ),
    "peisert:9": (
        "a2496a34b05089fb237dfb06d4a47cc54dc7ffeb",
        "41b2b4c5ef881ee05fd03b8c678ec720b92e6043",
    ),
    "paley:13": (
        "c61e7890380cfafba1c6c3e9fc433e74c9981141",
        "11ae5ee24b998c8eec1305f26e1a6a5ca92fa994",
    ),
    "paley:17": (
        "5667a08684db791d862fd77e2b9e73f8b1c1024e",
        "8ce2f759dc948b451362a137ea6fb5533662628f",
    ),
    "paley:49": (
        "66a8b556790aca883e677f69675e814e66eedd97",
        "98454d3ac6e54b8d3d644c6d2780f3f75e34069d",
    ),
    "paley:81": (
        "7dce1ff645973e4c558d9e280f7f133277030704",
        "9c1a7621324f4eb90bd70df9d9fe2fe3ec38c4b0",
    ),
    "peisert:49": (
        "6e25dba44a972c7327641481ee516b86b03aa0c7",
        "8e56a93795f82570c701fb420552970befbde74c",
    ),
    "vls:16:3": (
        "2e41fe6b32484ef69d649efe1058ff0703644ea0",
        "7b36d7557ffc4024bafd13fa5883d38e62d26013",
    ),
    "vo:-:4:2": (
        "c858d04f26dcb7ecbde6f8112b9fd29084c51c12",
        "c1f572b14c3651d2358cbc72ca903ac2c92c33dd",
    ),
    "vls:25:3": (
        "a966aa649f4130fb68a5a091e5f282f3399fdc97",
        "654015298ffa0f8517e5bde62b6ad6cc26dfe8f6",
    ),
    "hamming2:5": (
        "cab5b7a8c6356315c60007675fefa35a2f10fd5d",
        "b636e98c9537cf5a5331d20ef3a7419266b48a6b",
    ),
    "vls:64:3": (
        "2f5bf63f2683b9157af1ff7f39efbd4a8a21cd36",
        "7012589edab624f8b2c3d877d3e9aae6aabd56e5",
    ),
    "hq:2:3": (
        "0acb9c09addbfa79da7d2ffe28da0e2a538bf74f",
        "33e9078d54e05153f918850f1dae5b47d44ed4d2",
    ),
    "vo:-:6:2": (
        "5064520a812e4f1dccc7bf1193adb298d875cf32",
        "3cb26ff0e537d84fabba323b5c157e54b342ecfc",
    ),
    "vo:+:8:2": (
        "fc03b330d7fe7f80356db4b7b8995a78425e21ee",
        "ba70d1934ba62f794787611b44501ffe5f4b25f1",
    ),
    "orbital:sl23:7": (
        "285a2aecf009cfc89b41d0640fbfde48bc8bf93c",
        "c1745cb8383ea47e0839aba0accac968bead821e",
    ),
    "orbital:q8:13": (
        "304e8170951d4cec34235ff58eacd6fe0d64286c",
        "3637c288397fb054452a25226c3362c8ea95f0c2",
    ),
    "hamming2:9": (
        "09c1d82c0cfddbf6ca83942bdd3ec5ac88c70551",
        "4d2baddb3747afe59bcba4dfb6184002388fc4a0",
    ),
    "vls:81:5": (
        "32361c22a57bab119c849c2f6d1173c57d8c8c65",
        "3a72e092e6328412e8ff00511827cde29377a707",
    ),
    "peisert:81": (
        "0c95121e11cd8d5a88c86d20a4595ff34cb23b6a",
        "8920ffc6406513085cafd8f333acf7a8d56ee17d",
    ),
    "vo:+:4:3": (
        "b5a6a0d0d83a70e575f19b7849b84ca5e96c5ece",
        "9176520ef814da1f79fef0d3889ca34919af7502",
    ),
    "vls:256:5": (
        "0277cb4e92848db57471c42d75e7f5d8530f3f54",
        "408a229c5a50278284d13d2318b0359d7820555c",
    ),
    "orbital:q8:17": (
        "803902e02c15c47a8329e179b1a4b7c746f76936",
        "ff836f75e102dc43007e65eaa372e0ce9ac21229",
    ),
    "hq:3:3": (
        "ac4731567f4101866f18fa2a834e24d74e1553d5",
        "40535e4c7a293bd258b3c5a0450517ca1f3abe4f",
    ),
    "orbital:sl25:41": (
        "6d00a5c1a460287b1d93e29c1fd0ebe3f4a32a56",
        "9d395608bcbf2ff9313b56899c356dea43f979d3",
    ),
    "hq:2:5": (
        "196e2d97230e85079c62c2c1f9ff6f6646c9286b",
        "58cfebadefa90aeeb09e3098730b4a905a4b2a0e",
    ),
    "a52": (
        "0fba82ab9c63c288cff32969efd71951c00608b4",
        "acf871ba853014b03d230cfef6e1a18def671c53",
    ),
    "hq:4:3": (
        "c5ffabdc72867656843a6dc0983742c689c2afc6",
        "f302de7988d472472f13210498b309a07572b44d",
    ),
    "orbital:q8:19": (
        "7dbf9c4a65e4380e4c79297bf81461d5e6c7a9dd",
        "a55c834d878dc95a80e5e1ef8844c6b33a4a3fba",
    ),
    "orbital:sl23:23": (
        "2ecb6a7e662bc4bbbe6dbd0c04e2712cc7546a3f",
        "57c95db50a42531479f9a4c0f12dbfb07e0179c8",
    ),
    "orbital:extraspecial:625": (
        "8651b244b7cce3017661f5ba7cffb5590394e6f6",
        "08a583dd7ef70ca445157e711ecaba7d0780b0e8",
    ),
    "orbital:q8:29": (
        "2412620a5affb82906be83b1d390e22317d03625",
        "ef101bac2a6a0ef4d4d0822628c3e3077cab1180",
    ),
    "orbital:q8:31": (
        "62904714f5bd2d671e14c91f4b191cf29356d58b",
        "ba4864eff68b4b1ef531803ef8e550760dccc80a",
    ),
    "orbital:sl25:31": (
        "6028280cd057a0671026290deb8296166e0e792f",
        "5a545b209e2d3a0d96887d37a9ee9a70c4f5493f",
    ),
    "orbital:q8:47": (
        "8e8b1f5094612d359ad4a461dc561584f0025d84",
        "1fd9cefef2c7ec9262c356ea7e4a9a3b5ed01eb0",
    ),
    "orbital:extraspecial:2401": (
        "fccbecead2c600c46417b7a3a93bffdf45dab739",
        "6ee9d5216ef162710b09d94403f3a7bb8cc4b6db",
    ),
    "orbital:sl25:71": (
        "9ed6ae2074bb8e415f27f2b63a0838957d778e65",
        "f253132383057db50576a98e267b006c492ed90d",
    ),
    "orbital:sl25:79": (
        "e2f9767533c1b3ce7400309bf33152169f2cb159",
        "f64feac4bad80ebde4227d56d6673d77fb464218",
    ),
    "orbital:extraspecial:6561": (
        "8dd279e32b4c6781ab58796b8ab5e921478f1cca",
        "c7b93d5d7aa19ad113947a596272ad1d4750714e",
    ),
    "orbital:sl25:89": (
        "79a855c08da51e9c070ec627630d94d053df99bf",
        "7bffa099786b26800f933911f46dd5e500c10902",
    ),
}


def test_pins_cover_the_catalog():
    wanted = set()
    for entry in builtin_catalog():
        wanted.add(entry.id)
        wanted.update(claim.other for claim in entry.iso_claims)
    assert wanted == set(PINS)


# the same two hashes for every affine polar form on at most 4096 vertices
# that the catalog does not list: q**(2m) <= 4096 allows q = 2, 3, 4, 5, 7, 8
POLAR_PINS = {
    "vo:+:4:2": (
        "db9e204c3e2fb28638cf16701e8267b2d8d9d27f",
        "e5ebbc5f5c48a276af03fc318ad173ff9ad35e38",
    ),
    "vo:+:6:2": (
        "fada1f9f9c7465216db42021e2411a7a236359a9",
        "747a54fe8d3fcd8a655b60e4f4bf9d965591fbe3",
    ),
    "vo:-:8:2": (
        "d185c355a46cb38b24d8b5b8c2c7b73234bcf4bd",
        "6461e802a0b2809fb87e1e194bdb02970d747cde",
    ),
    "vo:+:10:2": (
        "1b0a8410dcca80628eff03d379687f650c057cca",
        "1dc5d51bd475aaba7b54b86721d8642bfc2468d3",
    ),
    "vo:-:10:2": (
        "fbb59d656cc23b730c46adbf02c797eb05bd7435",
        "ab10972ce7e80988295119c012d01742b706cb30",
    ),
    "vo:+:12:2": (
        "cd115335a3cedc2aab22e44a85e305267418a73f",
        "9f188c3636aa68dd3e94fdb3741190028c98cebf",
    ),
    "vo:-:12:2": (
        "698e647218a82ae3c1c4aebe8137630e210198a7",
        "6857aeb419406751975953736c31e8297ace19a4",
    ),
    "vo:-:4:3": (
        "7a479ac14d43069917882f65dadfe1eec03106fc",
        "d06e841a6f2bb91526f13e51809c9f6f4c38a98b",
    ),
    "vo:+:6:3": (
        "f552162c7b3a3f58c0129b3ac2261ba201f02873",
        "14d04fe724798bd297280adc526d08cb186b6def",
    ),
    "vo:-:6:3": (
        "71262d67029282b5c873c207d49e9c4081e7b26c",
        "c9bb27af84a34d8ef09aa6f8a89f4290e2657817",
    ),
    "vo:+:4:4": (
        "5cfbbc17c29753173e1dff9dcecd9cb980a6c077",
        "6a72ded86ae503444df90866f8c4884ff155608f",
    ),
    "vo:-:4:4": (
        "ca0318a60cf98fcdb34c5aaa4213e547cb1562f9",
        "a13785cf003c1ebd55644678a32c965fb9302fbc",
    ),
    "vo:+:6:4": (
        "ac8d7cbdc6580a47991f7d78dbb73ed374acec83",
        "be1d98e6254f2d1de33291ed882f20412a0ae6cf",
    ),
    "vo:-:6:4": (
        "15e83061f04e4879862e758fd2c473327b352621",
        "324e9ca14c8373fe82f2f44e823aef50e325594e",
    ),
    "vo:+:4:5": (
        "1534ffa6cb987e0040c3891769ba1d12dcc0d08d",
        "903eb9bdae96eff086d0706bf10837683ee3325f",
    ),
    "vo:-:4:5": (
        "89b821276b3626dc9ca2f47e4cf0db99c46cc7da",
        "18d6b8228a208aea44f3b824f072d42c41f6df16",
    ),
    "vo:+:4:7": (
        "5fc1116d7f154c586c1bff0dbff1709e975a83b4",
        "3c5c099aa3993aaf4bbc1879f9a993ee8d0f7630",
    ),
    "vo:-:4:7": (
        "405163f15e3e6ac25008b1257fd7fb49c9d6528c",
        "c218218fa67de16b9b9957a5460e3d5cbf2f8f8a",
    ),
    "vo:+:4:8": (
        "2d2dbc324f230881bcba3d1f5aa891dd83ad3e3e",
        "879a65afbc3d76339dcf8decc33fab031703052c",
    ),
    "vo:-:4:8": (
        "12e79278a42b419929e5c28c55d3e197908d925a",
        "160a65947eeab350eb8c6750823d8479fd7be1a1",
    ),
}
POLAR_FORMS = [
    f"vo:{sign}:{2 * m}:{q}"
    for q in (2, 3, 4, 5, 7, 8)
    for m in range(2, 7)
    if q ** (2 * m) <= 4096
    for sign in "+-"
]


def test_polar_pins_cover_every_form_up_to_4096_vertices():
    assert len(POLAR_FORMS) == 24
    assert set(POLAR_FORMS) == set(POLAR_PINS) | {d for d in PINS if d.startswith("vo:")}


@pytest.mark.parametrize("descriptor", list(PINS) + list(POLAR_PINS))
def test_labels_are_pinned(descriptor):
    fid = parse_descriptor(descriptor)
    adj_sha, stab_sha = {**PINS, **POLAR_PINS}[descriptor]
    g = family_graph(fid)
    assert hashlib.sha1(np.packbits(g.adj).tobytes()).hexdigest() == adj_sha
    images = Build(fid).stabilizer.gens.tobytes()
    assert hashlib.sha1(images).hexdigest() == stab_sha
