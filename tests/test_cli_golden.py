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
        "7b0c27e4799383bf1a64988e205cbf36fff490f4f037b6ba68bc3b0ee7e05c03", QUIET),
    "gen-chords": ("gen --kind convex_chords --count 5 --seed 2", 0,
        "f5f519c22ae1d99152a58d2cba851d1d0ed82ad7701b9b4b75004bb07149f444", QUIET),
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
        "d519f41dfc02f62e00e98f73b1acf6b032f9dbcc84c328a7cebddc192683bf65", QUIET),
    "separator-bfs-layer": ("separator big.txt --strategy bfs_layer", 0,
        "f0ff70c38444d2440723e13ffbafb6eb06bc5e8891c6c327d871aa3d46416098", QUIET),
    "separator-degree-peel": ("separator grid.txt --strategy degree_peel", 0,
        "b4cbb7287a771e6ab25ff88d98b6836debdf20cb2b9c41831a0eb53505985c42", QUIET),
    "separator-verify-off": ("separator polys.txt --verify off", 0,
        "4772b3ac2f620091c49140171a9fd26acde914bd26f47462027036ac807ee5d6", QUIET),
    "extract-independent": ("extract independent c5.txt --s 2", 0,
        "621e8cd98285fa47256583f35247cb98d856ee8280f2cd42b54bee12ebe9cf5a", QUIET),
    "extract-independent-big": ("extract independent big.txt --s 3", 0,
        "9f76055cafc9897d0461adb0cc649ebccfd4604a7e7d97e367436ef9c6c1d8e9", QUIET),
    "extract-independent-strategy": ("extract independent segs.txt --s 3 --strategy degree_peel", 0,
        "a46116b6518fd9024e26b16283e1f8f7eabc98543a1e3193ba81c751bedf9546", QUIET),
    "extract-qindep": ("extract qindep segs.txt --s 3 --q 2", 0,
        "3fc5ba4cec5f2931e70b9d4891b25adf7384362b33a509ac888633707a1272b7", QUIET),
    "extract-qindep-verify-off": ("extract qindep segs.txt --s 3 --q 2 --verify off", 0,
        "02a169602ac8b43478e93fce0dea9e9c734c99f64cca30295b746fcc43a59f46", QUIET),
    "extract-kr1free": ("extract kr1free c5.txt --r 3", 0,
        "ad1394cbc55dd58a95864a80c7300659c6dfd7510b8dc1d3416a00c0c5a38ae9", QUIET),
    "extract-kr1free-grid": ("extract kr1free grid.txt --r 5", 0,
        "bfbe20a6e37f23a7cae8cdcd068fccb36f77e1e38ecb69bcb3540ff67b8291c7", QUIET),
    "extract-halfclique": ("extract halfclique c5.txt --r 3", 0,
        "2a93fa6329454f992b4eb75d1202fce350cacb983c14759c173b149ae4ccac42", QUIET),
    "extract-halfclique-grid": ("extract halfclique grid.txt --r 5", 0,
        "fd66679719ad0a96876c4a465dc7cfee7108ba1f8d8da1d2b13b15c623070c8e", QUIET),
    "declared-halfclique-polys": ("extract halfclique polys.txt --r 4", 3,
        "09d8cc89e7a358ba953b64b8cfceb245e49e3ebf6013e30db7744417085310c6", QUIET),
    "declared-verify-off": ("extract kr1free k4.txt --r 3 --verify off", 3,
        "4951e91874d87c2a7d94341b11d90dc0472757dab6d9499e33d8250e5076359d", QUIET),
    "extract-densecore": ("extract densecore big.txt --epsilon 0.5", 0,
        "86835cc9730f9d4c73e62d631cf3111347f07ffe7f998c5cd4134d3427e1b566", QUIET),
    "extract-densecore-default-epsilon": ("extract densecore segs.txt", 0,
        "0235c05cc21128703889090fd2c9f4496223c286babf32bf2d1dfa407248a286", QUIET),
    "extract-densecore-params-file": ("extract densecore big.txt --epsilon 0.5 --params params.json", 0,
        "01588dc115947fea7785c41aa424943737927b0cc3dd8da2094ece8aa0a83e6c", QUIET),
    "extract-densecore-edgeless-one-vertex": ("extract densecore edgeless.txt --epsilon 0.5 --strategy degree_peel", 0,
        "f78c40c06002369fc064fd8c240538bfeda32e6681a7d6fcd247fe437d9e37c6", QUIET),
    "extract-multipartite": ("extract multipartite octa.txt --alpha 0.3", 0,
        "c02e9053c19b1ac90a4f2a46b0598d4e9c2ebe7f26e2a13096131dc97ff7c7f7", QUIET),
    "extract-multipartite-big": ("extract multipartite big.txt --alpha 0.05", 0,
        "6d1e63b990cba351148f4cbb1d1c57f0574a8a9fc143bcc5fdc5f392060f9619", QUIET),
    "color-or-clique": ("color-or-clique big.txt --epsilon 0.5", 0,
        "52199e92ba0fae851e4435842e99fd3f8c7b7ce54eb72355b53b3b759a9a9d80", QUIET),
    "verify-fail-color-or-clique-delta": ("color-or-clique segs.txt --epsilon 0.5 --delta 0.3", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3711a568633c451d842c2e79119a927c00c75d1ad51f085eaa32e8e337b98d25"),
    "color-or-clique-params-file": ("color-or-clique polys.txt --epsilon 0.4 --params params.json", 0,
        "abbc1ddeaa282c739853903ed0d1b46632fc8bb4088d905dc0c9fd27ac6aecf7", QUIET),
    "qp-check-r3": ("qp check chords.json --r 3", 0,
        "081d614a2d7f62a304a8e86f5ad80df8e32ec824eb90be61670ed59db511cbed", QUIET),
    "qp-check-r4": ("qp check chords.json --r 4", 0,
        "3629a96bffc6270998a78783c9e22b282b323a55830b7ff7a06d4d987a76ee46", QUIET),
    "qp-check-verify-off": ("qp check chords.json --r 3 --verify off", 0,
        "c824149ad776abf6b8ba6b9f6d98b452d65376a96f0c4eb45529e14eb1b0290c", QUIET),
    "qp-check-edgeless-drawing": ("qp check noedges.json --r 2", 0,
        "86d5d18acb21b4e343a961925b40ac919e47ecee7109628c0a71a60f74876d9c", QUIET),
    "qp-check-near-vertex": ("qp check near.json --r 2", 0,
        "862419c4e12f9fa42e717d2793ee75c2434f44f2eb31c5e4e0c7f725f1cab368", QUIET),
    "qp-sparse-edgeless-drawing": ("qp sparse noedges.json --s 3", 0,
        "fe2d65d0cddf098dcc27088233ca47b7d5648b0a38a4e05152b45b91e0799b9f", QUIET),
    "qp-sparse": ("qp sparse chords.json --s 3", 0,
        "a72c472755441f8ea43fe0527baf984da8eed4f12e07044b7f097dd9053341ce", QUIET),
    "qp-sparse-params-file": ("qp sparse chords.json --s 3 --params params.json", 0,
        "98ab8f20d3b73de7a06a4f2817da9f83f653844c9328b2cd7ad4fc731340a983", QUIET),
    "qp-bound": ("qp bound --n 256 --s 3 --edges 1820", 0,
        "8ccc33f6a446e5079cde7ee30896b365e2de3d6eb6e83bbcbe911cd7f49a9d99", QUIET),
    "qp-bound-epsilon": ("qp bound --n 300 --s 4 --C 0.5 --epsilon 0.25", 0,
        "23618167c0433b400a66c40dc55200d315e328423592197d2508b3660f35268a", QUIET),
    "qp-bound-verify-off": ("qp bound --n 256 --s 3 --verify off", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "oracle-mis": ("oracle mis c5.txt", 0,
        "84abb2cc8d3d1e67281e0994e0f362e2f07969cf0272844318a345719bf4aa0d", QUIET),
    "oracle-mis-segments": ("oracle mis segs.txt", 0,
        "0d7bff3520b8aa31a5dc1a42f2e65373b8aedb4604adc7c2dc2b04cb54fc69fc", QUIET),
    "oracle-clique": ("oracle clique big.txt", 0,
        "339ce16555bcb9ddfe588aa72ade78e7e67dea3458568abc3d5863910bc1e1e8", QUIET),
    "oracle-kpfree": ("oracle kpfree segs.txt --p 3", 0,
        "4e6518b0e61b75e8a1c390c534df8f29baa23e25d458cde34a820cc767b52193", QUIET),
    "oracle-sep": ("oracle sep c5.txt", 0,
        "3ae2696cce2b020d6b0e2c0655ead8e9740debd88a621c55cb390f68eae7f1ea", QUIET),
    "oracle-biclique": ("oracle biclique octa.txt", 0,
        "fa3bc68e1a6353bcaa37880e59a7639fb4cdd25595d0063c0d51264b22668e4e", QUIET),
    "oracle-crossings-r3": ("oracle crossings chords.json --r 3", 0,
        "a1a9c2163fa07969453aa1a250318addf9846a6db75d69b0441dbd4d3bf85254", QUIET),
    "oracle-crossings-r4": ("oracle crossings chords.json --r 4", 0,
        "892d450c1f9674b29057f866ad7418b9721dcbbf4c168469ce167b8d816cd70d", QUIET),
    "oracle-crossings-near-vertex": ("oracle crossings near.json --r 2", 0,
        "5d34e33a5c487a4885352f549d8882a199df31e120743911f8f6c7cc425c2e89", QUIET),
    "oracle-verify-off": ("oracle mis c5.txt --verify off", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "declared-kr1free-k4": ("extract kr1free k4.txt --r 3", 3,
        "4951e91874d87c2a7d94341b11d90dc0472757dab6d9499e33d8250e5076359d", QUIET),
    "declared-independent-k4": ("extract independent k4.txt --s 2", 3,
        "c7e3e89019eff4825166722727407ad1ff0827992d3b85d539113cf4d6f69335", QUIET),
    "declared-multipartite-sparse": ("extract multipartite c5.txt --alpha 0.9", 3,
        "3d9dbd734e6e77eedce7fe2056086736e0baf688ac297cbd88683b24b6eab5f5", QUIET),
    "declared-qp-bound-domain": ("qp bound --n 4 --s 3", 3,
        "31bc0f05671f4f6c05980bdc34429119a1c14cf15e0a63e0490cb66a2b5c2ca2", QUIET),
    "declared-qp-check-degenerate": ("qp check degenerate.json --r 3", 3,
        "30847ef8ab0996e1fe7736cd45b10528f4d1afc1f5e5cd3039d0717d21e1bc6c", QUIET),
    "declared-qp-sparse-degenerate": ("qp sparse degenerate.json --s 3", 3,
        "b9d36ca722c310da41d86dd0461fac5d46bcd7d1a603624527cb98ce747b853c", QUIET),
    "declared-oracle-crossings-degenerate": ("oracle crossings degenerate.json --r 3", 3,
        "91512b654476c8dcc672ccb72a64d3bf2b4dc74c4943769a884f753977793708", QUIET),
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
        "ffffc559569d3449547b35188cf100935b47b589d5d63f4f63953af71e168367", QUIET),
    "separator-empty-graph-exact": ("separator empty.txt --strategy exact", 0,
        "8644745a8cc27fbb842fd344df26a90e0c6a31e6f2dd4f17d0db0ba9f7218162", QUIET),
    "separator-empty-graph-bfs-layer": ("separator empty.txt --strategy bfs_layer", 0,
        "0d9ad83fabc431fd3fa1312cde5b832dce4509f21e535800c011cd16c3f847cd", QUIET),
    "separator-empty-graph-degree-peel": ("separator empty.txt --strategy degree_peel", 0,
        "ff1b63609d5170961316f78143c9a184ba4d98bbcb814bc00513ceb9ee7cfb26", QUIET),
    "extract-independent-empty-graph": ("extract independent empty.txt --s 2", 0,
        "ac536e72f43df00666bab600395f8cdc0fc08de5484e9b731d105f8be54b1a9d", QUIET),
    "extract-qindep-empty-graph": ("extract qindep empty.txt --s 3 --q 2", 0,
        "3070054bcad937baf74da11967758218d1b8b05a3f92504bd0fa372bd6694448", QUIET),
    "extract-kr1free-empty-graph": ("extract kr1free empty.txt --r 3", 0,
        "12f4472593728e8e5791c1e70191eb636d6bcb50e822ac386069f8d7075be032", QUIET),
    "extract-halfclique-empty-graph": ("extract halfclique empty.txt --r 3", 0,
        "1e1a46c70219b04c8bb1263bb8f63fbc307cd2143f962cdbb114e06b9b137654", QUIET),
    "extract-densecore-empty-graph": ("extract densecore empty.txt --epsilon 0.5", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "205a18c08f27cf9bfe72af8666df4e2f0bf1ade828a91d58fb186fa95f394110"),
    "extract-multipartite-empty-graph": ("extract multipartite empty.txt --alpha 0.3", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6c280adea0bace590a3022f44b02c0eccaccbbdf93854b9e3ecd21a329d80ed9"),
    "color-or-clique-empty-graph": ("color-or-clique empty.txt --epsilon 0.5", 0,
        "f958a7f0b9c5a46d1808f6f1b8374af7ab0f19ec0a984840cc6331f615f4028e", QUIET),
    "oracle-mis-empty-graph": ("oracle mis empty.txt", 0,
        "748cdecad2ff490537d54288e5e0ea6d03115975b2205f71430787b03d46ac66", QUIET),
    "oracle-clique-empty-graph": ("oracle clique empty.txt", 0,
        "cf3dc3cfedeb633e33b81ec7a45c18d464a191e6cea7b8a72d64f5b6954b9758", QUIET),
    "oracle-kpfree-empty-graph": ("oracle kpfree empty.txt --p 3", 0,
        "6f9024ab24615d1593d4f838034e9acec9b31a88bcc356b7a43a25d985e592cb", QUIET),
    "oracle-sep-empty-graph": ("oracle sep empty.txt", 0,
        "a309f93f71a45802c10a80970949f3cf511a3d75b27e56175f248de352a3b184", QUIET),
    "oracle-biclique-empty-graph": ("oracle biclique empty.txt", 0,
        "09f7e10046ea49d106c920ebd802b68c0c2cdcadd5bf80d9cc0c6818dc05a86f", QUIET),
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
