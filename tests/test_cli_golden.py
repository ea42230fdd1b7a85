"""Golden CLI corpus: exit code and report bytes of every report command.

Each case runs `cli.main` in a directory holding a fixed set of inputs
(`gen` output at fixed seeds plus hand-made graphs and drawings) and
compares the exit code and the sha256 of what the command wrote to stdout
and to stderr with recorded values. A refactor of the command plumbing must
leave every entry unchanged. Usage errors caught by argparse record no
stderr digest, since argparse words its own messages.
"""

import hashlib

import pytest

from stringraph.cli import main

C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
# Complement of a perfect matching on six vertices: K_{2,2,2}.
OCTAHEDRON = "6 12\n" + "".join(
    f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6) if v - u != 3)
EDGELESS = "4 0\n"
# Vertex 2 lies on the straight curve of edge (0, 1).
DEGENERATE = ('{"kind": "drawing", "vertices": [[0, 0], [4, 0], [2, 0], [2, 3]], '
              '"edges": [{"u": 0, "v": 1, "points": [[0, 0], [4, 0]]}, '
              '{"u": 2, "v": 3, "points": [[2, 0], [2, 3]]}]}\n')
NO_STRINGS = '{"kind": "family", "strings": []}\n'
# Two vertices and no edges: the drawing has no curve to cut.
NO_EDGES = '{"kind": "drawing", "vertices": [[0, 0], [1, 0]], "edges": []}\n'
# The end (1, 0.3) of b lies on a exactly, but not as a double.
TOUCH = ('{"kind": "family", "strings": [{"id": "a", "points": [[0, 0], [10, 3]]}, '
         '{"id": "b", "points": [[1, 0.3], [1, -5]]}]}\n')
# Edges 0-1 and 2-3 cross at (1, 0), one unit from vertex 0.
NEAR = ('{"kind": "drawing", "vertices": [[0, 0], [10, 0], [1, -10], [1, 10]], '
        '"edges": [{"u": 0, "v": 1, "points": [[0, 0], [10, 0]]}, '
        '{"u": 2, "v": 3, "points": [[1, -10], [1, 10]]}]}\n')
HAND_FILES = {
    "c5.txt": C5,
    "k4.txt": K4,
    "octa.txt": OCTAHEDRON,
    "edgeless.txt": EDGELESS,
    "empty.txt": "0 0\n",
    "bad.txt": "2 1\n0 9\n",
    "degenerate.json": DEGENERATE,
    "nostrings.json": NO_STRINGS,
    "noedges.json": NO_EDGES,
    "touch.json": TOUCH,
    "near.json": NEAR,
    "params.json": '{"c": 0.02, "separator_strategy": "bfs_layer"}',
    "badparams.json": '{"c_quadruple": 1}',
}
GEN_FILES = {
    "segs.json": ["--kind", "random_segments", "--count", "14", "--seed", "5"],
    "polys.json": ["--kind", "random_polylines", "--count", "12", "--seed", "2"],
    "grid.json": ["--kind", "grid_paths", "--count", "16", "--seed", "3"],
    "big.json": ["--kind", "random_segments", "--count", "30", "--seed", "9"],
    "chords.json": ["--kind", "convex_chords", "--count", "6", "--seed", "1"],
}
BUILT = {"segs.txt": "segs.json", "polys.txt": "polys.json",
         "grid.txt": "grid.json", "big.txt": "big.json"}

# sha256 of an empty stream.
QUIET = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# name: (argv, exit code, sha256 of stdout, sha256 of stderr or None).
CASES = {
    "gen-segments": ("gen --kind random_segments --count 6 --seed 4", 0,
        "17582c4bd9632322d9448b4a97e19bfb1ce2bb158b857329dec59c555a0455b8", QUIET),
    "gen-chords": ("gen --kind convex_chords --count 5 --seed 2", 0,
        "1c93fc2ab18672f80823a420805d940b337244950547a9f7e7b93ccd20993f95", QUIET),
    "build-graph-family": ("build-graph segs.json", 0,
        "0bacca2a35294c917da2a16ab08109fd10011f085dafa59bce804b75de106b71", QUIET),
    "build-graph-drawing": ("build-graph chords.json", 0,
        "69e89ce564253a492ca480fb25c258c92052aa2aec0396ad5eced885b9dd033e", QUIET),
    "build-graph-empty-family": ("build-graph nostrings.json", 0,
        "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101", QUIET),
    "build-graph-edgeless-drawing": ("build-graph noedges.json", 0,
        "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101", QUIET),
    "build-graph-touch": ("build-graph touch.json", 0,
        "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834", QUIET),
    "build-graph-touch-inexact": ("build-graph touch.json --inexact", 0,
        "4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51", QUIET),
    "separator-auto": ("separator segs.txt", 0,
        "5b800aa94eb32cb8300207c99128498e94021e5bef2a83214ce2272b9bcfc62f", QUIET),
    "separator-bfs-layer": ("separator big.txt --strategy bfs_layer", 0,
        "bef4d0220f5da456cfcd44658721658982c7c48ddd6f83c3593d5a9d49edd5d4", QUIET),
    "separator-degree-peel": ("separator grid.txt --strategy degree_peel", 0,
        "53f7a2d812bc8c41bbfda3c5778dfbd84f5468e3be513ff0e41b39d789161281", QUIET),
    "separator-verify-off": ("separator polys.txt --verify off", 0,
        "3085cb0e30ad3ad07006f06010c890d13795c5f6c84037685e78199173c032f9", QUIET),
    "extract-independent": ("extract independent c5.txt --s 2", 0,
        "7f1570da0a21601c927812490ae13f0948a411e365042ae37b2fbc4d32cca433", QUIET),
    "extract-independent-big": ("extract independent big.txt --s 3", 0,
        "84f1a3bd3f4c8827c1c0dcaa8c8caa03cf2b503e8a382d4a38c0c834c5d6a28e", QUIET),
    "extract-independent-strategy": ("extract independent segs.txt --s 3 --strategy degree_peel", 0,
        "f8f3130834d1c2d216b861d417fc81b2204005064c41a3a1b9d5f11344f2335e", QUIET),
    "extract-qindep": ("extract qindep segs.txt --s 3 --q 2", 0,
        "a4b26e6ebf300b736f828fbf5d45f5bc7d48b23cbb05bdb4bdf4f5b832df8af1", QUIET),
    "extract-qindep-verify-off": ("extract qindep segs.txt --s 3 --q 2 --verify off", 0,
        "bf20b17030aa8726222ca81a51c268697cc24f55a2299815b2f2a0908c8a412c", QUIET),
    "extract-kr1free": ("extract kr1free c5.txt --r 3", 0,
        "e57853654c0be1a4fc850644c71ed761e64d8ed90ed881d0ee4ee542c96d3ec1", QUIET),
    "extract-kr1free-grid": ("extract kr1free grid.txt --r 5", 0,
        "34c37859e713c54a91c7ea069b51b51dae6b8a171de98c19857e94f6353af589", QUIET),
    "extract-halfclique": ("extract halfclique c5.txt --r 3", 0,
        "896cde25905145c1606848e929c69c772e1189db14ef6a3b7aa8d08623e16944", QUIET),
    "extract-halfclique-grid": ("extract halfclique grid.txt --r 5", 0,
        "c3838f003b1ad50b7c05c8d7f6362f7faa864ac3128ab3c2854fbb81c403d867", QUIET),
    "declared-halfclique-polys": ("extract halfclique polys.txt --r 4", 3,
        "7250f5e5b6a9718ff43dcfcc7da24cf498c6b2e8c5570d5ee4541e719c4685c9", QUIET),
    "declared-verify-off": ("extract kr1free k4.txt --r 3 --verify off", 3,
        "ad19f5ef9e561ce1ccb48de0af48a7a83b91ca2a05198f0bacc2a2b332560615", QUIET),
    "extract-densecore": ("extract densecore big.txt --epsilon 0.5", 0,
        "0a39f4b2e20d9d6b5109867a7038113ddf21db2b9cf77c3dc389b83068722bd4", QUIET),
    "extract-densecore-default-epsilon": ("extract densecore segs.txt", 0,
        "714578929c4554d15e36aee20f3d352c25f24a27ee2a38d775dae961646136ca", QUIET),
    "extract-densecore-params-file": ("extract densecore big.txt --epsilon 0.5 --params params.json", 0,
        "840e50812655b2c4e0134b346dcfefde3b1c48309453ab4bfe0680182b702b19", QUIET),
    "extract-densecore-edgeless-one-vertex": ("extract densecore edgeless.txt --epsilon 0.5 --strategy degree_peel", 0,
        "b067130528b6b106b21481f7e0e319d5e2a73c64c7de05ae2a505af0cb16d529", QUIET),
    "extract-multipartite": ("extract multipartite octa.txt --alpha 0.3", 0,
        "435c77e0f08c77d0199365e9919cea03502394a155caf437d84e6e79b45a82ac", QUIET),
    "extract-multipartite-big": ("extract multipartite big.txt --alpha 0.05", 0,
        "64b9f12a0750fe5f44d2d42d99a2d1f06eb1be59ef4b9cfc0513a988cedb3143", QUIET),
    "color-or-clique": ("color-or-clique big.txt --epsilon 0.5", 0,
        "3587f118dfaa913bd406bf791cef842a72ba3d8c433650a6603ce9560ab1d410", QUIET),
    "verify-fail-color-or-clique-delta": ("color-or-clique segs.txt --epsilon 0.5 --delta 0.3", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3711a568633c451d842c2e79119a927c00c75d1ad51f085eaa32e8e337b98d25"),
    "color-or-clique-params-file": ("color-or-clique polys.txt --epsilon 0.4 --params params.json", 0,
        "7ca17baaea3e88db67b7e38a4b71777ac9c36afe8a8171dffc2e6b7fa6aa8c10", QUIET),
    "qp-check-r3": ("qp check chords.json --r 3", 0,
        "d99ceb83879e1e6a1c77bee52c93135337f8542a668aeaec8bee19ef21c154a5", QUIET),
    "qp-check-r4": ("qp check chords.json --r 4", 0,
        "698b6fa864d6728fe57280914e7ce6599598a3b3dd0da3c01bb582093b15b759", QUIET),
    "qp-check-verify-off": ("qp check chords.json --r 3 --verify off", 0,
        "b4eef9b02e75b6de1ecfca97fda9f53f04de1b3b683e12fd4c2d46ca0318a587", QUIET),
    "qp-check-edgeless-drawing": ("qp check noedges.json --r 2", 0,
        "b2d650fc9fca33dded21af36228fa690614b075474f840ef68078ab94c107241", QUIET),
    "qp-check-near-vertex": ("qp check near.json --r 2", 0,
        "2856818aa080acc3b3ed2010737536d4ca447bf40e1a1687646acb43fbb4314b", QUIET),
    "qp-sparse-edgeless-drawing": ("qp sparse noedges.json --s 3", 0,
        "c2899a626192ecc227155e226e5382667a892fe0004a84c66945634c24c81d99", QUIET),
    "qp-sparse": ("qp sparse chords.json --s 3", 0,
        "9a2005374a304918ce54eca25430ba5c7a56b41708de6beb2271e457044310b2", QUIET),
    "qp-sparse-params-file": ("qp sparse chords.json --s 3 --params params.json", 0,
        "d5c8d9db8b9cd18bec005a87c54c737fa0ced768556ea2dc76a7e53f175f225d", QUIET),
    "qp-bound": ("qp bound --n 256 --s 3 --edges 1820", 0,
        "04f86b99c7f6c3e6435533813820b97619d17b81e9cf5a202caf12a14ecb4477", QUIET),
    "qp-bound-epsilon": ("qp bound --n 300 --s 4 --C 0.5 --epsilon 0.25", 0,
        "90e0207b852ec11000e1f14a1bfe5c6693c828a6484010fb1dffe16a8db61904", QUIET),
    "qp-bound-verify-off": ("qp bound --n 256 --s 3 --verify off", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "oracle-mis": ("oracle mis c5.txt", 0,
        "d6c2f7c298d2e9f163612b4583ba5e425619bba1799a4791a4ccdf9659fb017b", QUIET),
    "oracle-mis-segments": ("oracle mis segs.txt", 0,
        "eac9b9656980c709a2140d559bc7149fc17fa4a7b24750a98497bf068363608c", QUIET),
    "oracle-clique": ("oracle clique big.txt", 0,
        "dd99def07e3fc1e82547940acd651b19a63f190003eeaeb8b02d041bdc3ee28d", QUIET),
    "oracle-kpfree": ("oracle kpfree segs.txt --p 3", 0,
        "95779ea9caee0054878fdf8fae2f64edc3a4a2178524c1c8bc2477bd8197badb", QUIET),
    "oracle-sep": ("oracle sep c5.txt", 0,
        "d1a0c4f4e470136965ce246fbda83fd100d3b9619b7ba236b7bdd49e066a720c", QUIET),
    "oracle-biclique": ("oracle biclique octa.txt", 0,
        "4d1e03e69951104b2cad592b07a59688cfd0b0efa79bd6e1bb0ffa2959657786", QUIET),
    "oracle-crossings-r3": ("oracle crossings chords.json --r 3", 0,
        "88bd13510ccaf1b7f400f8f77b15d445e3059bf5883ccf78b7cedb57585c5b40", QUIET),
    "oracle-crossings-r4": ("oracle crossings chords.json --r 4", 0,
        "d4e7dfc5195aa76d8eacd219edca614cfd47cda6bbb5fd27b9d878c3bfa66841", QUIET),
    "oracle-crossings-near-vertex": ("oracle crossings near.json --r 2", 0,
        "791977a7fe4316eacb00048a90eedc5ab94a92b27634e99e3383f0af4368eac3", QUIET),
    "oracle-verify-off": ("oracle mis c5.txt --verify off", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "declared-kr1free-k4": ("extract kr1free k4.txt --r 3", 3,
        "ad19f5ef9e561ce1ccb48de0af48a7a83b91ca2a05198f0bacc2a2b332560615", QUIET),
    "declared-independent-k4": ("extract independent k4.txt --s 2", 3,
        "418e7ce5702ae30c0340372ef8b111543251a53937f6974424988b33b8e198f3", QUIET),
    "declared-multipartite-sparse": ("extract multipartite c5.txt --alpha 0.9", 3,
        "ee57d9e01bc5589c4e454e19fc02681d6685202492d27bb8ee440f9645338214", QUIET),
    "declared-qp-bound-domain": ("qp bound --n 4 --s 3", 3,
        "d99531c3f85a2e6032b6503eb4ca00ba3ad4ea14def99ec4e453a492903a04d6", QUIET),
    "declared-qp-check-degenerate": ("qp check degenerate.json --r 3", 3,
        "d37ff5791dbb70f54b0478235011657cdf1900791abbb39a863e155096af3ec6", QUIET),
    "declared-qp-sparse-degenerate": ("qp sparse degenerate.json --s 3", 3,
        "0971651d0e5df2f0b1112f27b0498184f47ebf5b4fafffd1b22a76707f854659", QUIET),
    "declared-oracle-crossings-degenerate": ("oracle crossings degenerate.json --r 3", 3,
        "c7633f4906a4b295be09921b420f251b569837fc2f30e9a6a1c84d016fe870f4", QUIET),
    "declared-build-graph-degenerate": ("build-graph degenerate.json", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0352f00a783bef5f136fc1e5fe8df00ecfa55ebe4b522b6d4fa679c9dda2e43c"),
    "usage-no-command": ("", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage-separator-no-graph": ("separator", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage-qp-no-subcommand": ("qp", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage-unknown-op": ("extract nope c5.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "usage-missing-s": ("extract independent c5.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "03962868d936cab9efac19e3954355fa5da0dcc1f13ed8b21ccfebb09da758f1"),
    "usage-missing-q": ("extract qindep c5.txt --s 2", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "5f560ff7c4b4373712646ca76fdd0ba5592f8af1c2b78217ad1038d4188b7727"),
    "usage-missing-r": ("extract halfclique c5.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "33cc5b5031807169cf9242109b6a73e7a978aba333d329b56f5055b6e930ce90"),
    "usage-missing-alpha": ("extract multipartite c5.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ddf77afbade24f1cb25e75ab749f6197535243ae6d951bb3bbfb773969a04727"),
    "usage-foreign-option": ("extract independent c5.txt --s 2 --alpha 0.3", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a2dae2d3e277d588270c2dfcfde5dbd8aeb3016cb31c909372cb4a4491825871"),
    "usage-bound-s-below-three": ("qp bound --n 100 --s 2", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4e8a2b8cde40723ce8006452adc983a051f050a42f421838a9ee4443b37dec3e"),
    "usage-independent-s-zero": ("extract independent c5.txt --s 0", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d03d6cda40d4be77d9adf55657086c978854df80cf10a53e3c540ed91077e492"),
    "usage-negative-delta": ("color-or-clique segs.txt --epsilon 0.5 --delta -1", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ca7f4077e9d22e31b1cbaaf4adf3a3a86256113a5772ec1a86bfb44f3e24a74a"),
    "usage-bad-epsilon-in-params": ("color-or-clique segs.txt --epsilon 2", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4c50be6af0714c3ac7ef0fae08161bd88f70687edade23db0c2ac153999d3975"),
    "usage-densecore-bad-epsilon": ("extract densecore segs.txt --epsilon 2", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4c50be6af0714c3ac7ef0fae08161bd88f70687edade23db0c2ac153999d3975"),
    "usage-bound-C-zero": ("qp bound --n 256 --s 3 --C 0", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a5eefd4e36d11fd0776329c9181447a41d492fdbca60e10785e59892122e22c4"),
    "usage-qp-check-r-one": ("qp check chords.json --r 1", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "419f2e260c8a339343ace5723b6135a1386c5746e6113b1cb262165446fb1836"),
    "usage-oracle-crossings-r-one": ("oracle crossings chords.json --r 1", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3bca6d0a5a42f236b329ed84f9ec7ca2597abef8a49def881d261ccd2fff16e3"),
    # The empty graph, "0 0".
    "separator-empty-graph": ("separator empty.txt", 0,
        "ca498a1188dbc5e5d3337fe110e5e592e642c214fa598b11bbd497b6f6b433c9", QUIET),
    "separator-empty-graph-exact": ("separator empty.txt --strategy exact", 0,
        "0be3b9bc7bc8ffc20c22b1bc697ff6e01b3eae5b5640e89273ed7e0e047fd080", QUIET),
    "separator-empty-graph-bfs-layer": ("separator empty.txt --strategy bfs_layer", 0,
        "30b0bafd0f696cc189b1cc009aae30030ac4e787053c86b8bf37b075e0821b71", QUIET),
    "separator-empty-graph-degree-peel": ("separator empty.txt --strategy degree_peel", 0,
        "a0496d5284255605d4e84414c8ffa19074a9ead487dcbe467e1be9dc03e32308", QUIET),
    "extract-independent-empty-graph": ("extract independent empty.txt --s 2", 0,
        "4ae04e484d996c6fdcd2b12392a93ff99308c689c4fdecf96f008fd783a2a7be", QUIET),
    "extract-qindep-empty-graph": ("extract qindep empty.txt --s 3 --q 2", 0,
        "1630bc060fe0a33eca647303e19e388d412cec0c75f356b1650d32dc867941ad", QUIET),
    "extract-kr1free-empty-graph": ("extract kr1free empty.txt --r 3", 0,
        "b2370bb2833df19a95a248d31347c210654db6d5432a7530df816f5e4ec3917e", QUIET),
    "extract-halfclique-empty-graph": ("extract halfclique empty.txt --r 3", 0,
        "abe66052e40a0120c8289af7d8c024706908de7c447684a77e8322855eec10c0", QUIET),
    "extract-densecore-empty-graph": ("extract densecore empty.txt --epsilon 0.5", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "205a18c08f27cf9bfe72af8666df4e2f0bf1ade828a91d58fb186fa95f394110"),
    "extract-multipartite-empty-graph": ("extract multipartite empty.txt --alpha 0.3", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6c280adea0bace590a3022f44b02c0eccaccbbdf93854b9e3ecd21a329d80ed9"),
    "color-or-clique-empty-graph": ("color-or-clique empty.txt --epsilon 0.5", 0,
        "87cffe2d1a0233cb9ddf15d03518930547d4ea7d631c70af81b040a262df2fe4", QUIET),
    "oracle-mis-empty-graph": ("oracle mis empty.txt", 0,
        "65a0773e46b360b82a284cfb4eb55f15f3d837d0d53f207cb77c0d5d95d1c5c3", QUIET),
    "oracle-clique-empty-graph": ("oracle clique empty.txt", 0,
        "4301d9d387b12cf993e570224245820e96e1910760f0cd6440e7293afc6b2df3", QUIET),
    "oracle-kpfree-empty-graph": ("oracle kpfree empty.txt --p 3", 0,
        "242c2f260ee0a671b0384cb9d150cf09e2122c273253451bb88754dcd789b4ba", QUIET),
    "oracle-sep-empty-graph": ("oracle sep empty.txt", 0,
        "ac687cc5b6dbc3210d23219f36f2840a1e9ec3275a18c84874a091ad9659edb0", QUIET),
    "oracle-biclique-empty-graph": ("oracle biclique empty.txt", 0,
        "4d4823bbf99dd2c34d5ab0fa8cabe257538368512dcd47597671a4aeee41f5b1", QUIET),
    "parse-bad-graph": ("separator bad.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "406114734ad5bdca15be30bce4139edd827496a513878b3faa83ee5c2c4c9cdc"),
    "parse-missing-graph": ("separator nope.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "496e185461a9d6a29c9b1a3d1d43d72e527ccc22692e3adfbf7843012c1a0fac"),
    "parse-before-params": ("extract independent bad.txt --params badparams.json", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "406114734ad5bdca15be30bce4139edd827496a513878b3faa83ee5c2c4c9cdc"),
    "params-before-missing-s": ("extract independent c5.txt --params badparams.json", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "631290a71a248750291c9841902fa24970ef8a5a2eb611d65e8a69834399e974"),
    "params-missing-file": ("extract densecore c5.txt --params nope.json", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c1a58e9127a1c49433386bea478cfba01e1933b86e98ab74801cc281553455ee"),
    "parse-graph-as-drawing": ("qp check c5.txt --r 3", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "514f512732eac24e99ba1c00fdc65ea8b1fd39109391b8e5a5895402bc62c0b8"),
    "parse-family-as-drawing": ("qp sparse segs.json --s 3", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "df83f5d885e402c1eb141840e92db56d1db63dff33505131b4847788cf5932e9"),
    "parse-oracle-bad-graph": ("oracle clique bad.txt", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "406114734ad5bdca15be30bce4139edd827496a513878b3faa83ee5c2c4c9cdc"),
    "oracle-cap-sep": ("oracle sep big.txt", 5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "00953077d4c69e67eba6b0fa9857eb620cdf7843509f972691997f427b05baff"),
    "oracle-cap-kpfree": ("oracle kpfree big.txt --p 3", 5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "fb5dd12c6a1c587b2b9bace461db3bb20e03a7bbcb837a1637882bca37dd367f"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, text in HAND_FILES.items():
        (root / name).write_text(text)
    for name, flags in GEN_FILES.items():
        assert main(["gen", *flags, "-o", str(root / name)]) == 0
    for name, source in BUILT.items():
        assert main(["build-graph", str(root / source), "-o", str(root / name)]) == 0
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, corpus, monkeypatch, capsys):
    argv, code, out_sha, err_sha = CASES[name]
    monkeypatch.chdir(corpus)
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert _sha(out) == out_sha
    if err_sha is not None:
        assert _sha(err) == err_sha
