"""Byte-identity guard: the sha256 of stdout (and the exit code) of fixed
CLI requests, pinned so that a change to how words are stored, expanded or
rendered cannot alter what the CLI prints.

The first 71 digests were recorded before the array-backed word storage
replaced tuple-backed words.  The JSON renderings of the remaining commands,
the exit-1 paths and the usage errors of ``USAGE_ERRORS`` were recorded
before the commands were made to return their result to a single renderer.
``PARSING_SURFACE`` (help texts, usage errors and the argparse edge cases)
was recorded while every request still built the parser of all commands.
The ``hanoi solve`` and ``hanoi verify`` rows at 1, 2, 7 and 16 disks were
recorded before ``simulate`` resolved each move letter once per replay.
The ``christol`` rows at modulus 11863279, at modulus 3 and at order 16384
were recorded before the series products became one big-integer multiply.
The four ``christol search`` rows at 165 unknowns were recorded while the
relation search still eliminated rows of a whole equation matrix.
The four ``squarefree`` rows at 10^4 and 10^6 symbols were recorded while
the square scan still compared the whole word at every period.
The ``derive --what U --length 70000`` rows (integers across the 2^16-value
render boundary) and the ``toeplitz`` rows of a two-byte and a two-letter
token (mixed-width byte rows) were recorded before ``IntSequence`` moved
beside ``Word`` and the words layer spelled its separators once.
Update an entry only for a deliberate change of output.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from hanoiseq import cli
from hanoiseq.cli import run

# (argv, exit code, sha256 of stdout): every catalog entry rendered as text
# and JSON, the four projections with their checks, width-4 censuses, the
# benchmark's six comparison pairs and the README examples
GOLDEN = [
    ('generate classical-hanoi --length 1000', 0, "39bd39318e7a7c9b182a4f5b2f0fbcc5e3883e14053e66404792daf388f450a8"),
    ('generate classical-hanoi --length 1000 --format json', 0, "f4a6684f59d513a2596243291524a276cccb4d5ad085d9cf32389dcee8c2fd72"),
    ('generate classical-hanoi-nonuniform --length 1000', 0, "39bd39318e7a7c9b182a4f5b2f0fbcc5e3883e14053e66404792daf388f450a8"),
    ('generate classical-hanoi-nonuniform --length 1000 --format json', 0, "d56c78e34b32c0c34c5ef1945b87efbdd9285920e56f50cbdf19880bf4d744fd"),
    ('generate classical-hanoi-toeplitz --length 1000', 0, "39bd39318e7a7c9b182a4f5b2f0fbcc5e3883e14053e66404792daf388f450a8"),
    ('generate classical-hanoi-toeplitz --length 1000 --format json', 0, "29b5266bb77ded188173708a53db90dc11f2cea94f7d2483a2d8e036dbfab0b7"),
    ('generate cyclic-hanoi --length 1000', 0, "42a3f5c797943fd9738a05d83d17dcab7479ad7a026f4baedc803b58122b3b51"),
    ('generate cyclic-hanoi --length 1000 --format json', 0, "66e2c2ef6eef7d0472ae4c643502e99430d95f545a986d12e6faa63230a003d9"),
    ('generate fibonacci --length 1000', 0, "385a1c73b2391aaf3b0844dc4e7e2aebdb2de44c967d5793ee412cbec713f50f"),
    ('generate fibonacci --length 1000 --format json', 0, "78b465fb897b67cec3071fd57d48eead99b5e833d54ea23ea91fe7eadc7b6f1f"),
    ('generate lazy-hanoi --length 1000', 0, "158e0fd25cdecbaacee9dc25a7e69411386ee93b01e971e14bda2aebc4b33f41"),
    ('generate lazy-hanoi --length 1000 --format json', 0, "d56d7ba2c91ac4c90c07cabc538b8a8628588b0e804359e9fd5524ef11af42f1"),
    ('generate lazy-hanoi-nonuniform --length 1000', 0, "158e0fd25cdecbaacee9dc25a7e69411386ee93b01e971e14bda2aebc4b33f41"),
    ('generate lazy-hanoi-nonuniform --length 1000 --format json', 0, "8d6f7d1c4ee12226adb39de39766361d606c31288fb3e613063c3142e8e06b80"),
    ('generate paperfolding --length 1000', 0, "5ca14f91f5941f3c2a08fd0d0d8c5133916f2730de9bd5db51134c62258b052e"),
    ('generate paperfolding --length 1000 --format json', 0, "d75c3f8a2b5a199e986c93144d14f501f51b7be6a017a6dd45e51e6f65e23c71"),
    ('generate period-doubling --length 1000', 0, "3fbc986c0bd43f516e0fc8bc0dd76882d430b3627061e6cd64273477dba0027f"),
    ('generate period-doubling --length 1000 --format json', 0, "0444b438a8b857be41304183583ed483cf2018ce73fdd16c9d21bc5b2adb2337"),
    ('generate thue-morse --length 1000', 0, "2a1f585dbf9aea0407ad4b7f8330d43e632ad1b91b81f2cfa1f1ffbe9eaf9c18"),
    ('generate thue-morse --length 1000 --format json', 0, "8f2ebecf8654ad64f4607fd35cb6e7c7033f1c9896166b1cc23b23876f33b2b0"),
    ('generate z-nonuniform --length 1000', 0, "6ec93e345646c7b36189226ebd1ca4f982c53df118dc68828b5f0f9e4bb70dc0"),
    ('generate z-nonuniform --length 1000 --format json', 0, "6224a65b4b7b0cfd2d310582a79057b2b32adecaad1c2318b1f22226959d017a"),
    ('generate z-uniform --length 1000', 0, "6ec93e345646c7b36189226ebd1ca4f982c53df118dc68828b5f0f9e4bb70dc0"),
    ('generate z-uniform --length 1000 --format json', 0, "92bb741dd1c032f686973d128025f110e151cd3c7ced06d94e134a5661dfadb4"),
    ('derive --what T --length 2048 --check', 0, "ff938cb60069ee71b9a0c089f8d0aa3939d18412cf2d2b41525516210d8f00d4"),
    ('derive --what T --length 2048 --check --format json', 0, "14da623b47b587ee1cf598c2209f727b30566fb880330205be5ddc91e7f88f13"),
    ('derive --what U --length 2048 --check', 0, "fdb85fe3659de4f99439d3c6c9f5d0698027b8f115919c5c4ed775a85eb9098f"),
    ('derive --what U --length 2048 --check --format json', 0, "5a371e8c0da950e4cdbf955ca2af3909dde14da0c0f69f11f10d772d469c20cd"),
    ('derive --what V --length 2048 --check', 0, "086121e5417108a03c1bb0cdc0edaa446e28d8fb1d1325d767b8dd915046ea27"),
    ('derive --what V --length 2048 --check --format json', 0, "6d95d90634e42267548ad210ec1f9eee215006ec9069e1ad2a6d0396cd403340"),
    ('derive --what Z --length 2048 --check', 0, "d004e1cb2102805bdad98dbe69c7f42e56db5c9be7ce660569285491b3dc6169"),
    ('derive --what Z --length 2048 --check --format json', 0, "6f8ed268a7e2879840e8b44ea3ad6ef0c35536a821a290bc76f589f463c4c28c"),
    ('census --seq classical-hanoi --width 4 --length 4096', 0, "8d036c09ddabf80331d2beecd4d3c98810a5dea6247011fb50f27acebab5550c"),
    ('census --seq classical-hanoi-nonuniform --width 4 --length 4096', 0, "8d036c09ddabf80331d2beecd4d3c98810a5dea6247011fb50f27acebab5550c"),
    ('census --seq classical-hanoi-toeplitz --width 4 --length 4096', 0, "8d036c09ddabf80331d2beecd4d3c98810a5dea6247011fb50f27acebab5550c"),
    ('census --seq cyclic-hanoi --width 4 --length 4096', 0, "b3dbe08a4bdb18796e8b47c15f9b95d53fa7e343aeae95e5e270b34f28243940"),
    ('census --seq fibonacci --width 4 --length 4096', 0, "bcda71f376fb6affe4cec77bf4badbdab7e314506f9ac5fe6e0882cef268fe0c"),
    ('census --seq lazy-hanoi --width 4 --length 4096', 0, "c41e87d7e37fa4245023bff338b63d04167a52c002a78c96b75c4e88c6129560"),
    ('census --seq lazy-hanoi-nonuniform --width 4 --length 4096', 0, "c41e87d7e37fa4245023bff338b63d04167a52c002a78c96b75c4e88c6129560"),
    ('census --seq paperfolding --width 4 --length 4096', 0, "6ae9008300fc809e07afe0d670efb2c3fd79923dd2fffe275f8207bbf405da97"),
    ('census --seq period-doubling --width 4 --length 4096', 0, "747787dafc97b0784f39f196b97605c7b1c7d261d3f8d8ae7095524636310d84"),
    ('census --seq thue-morse --width 4 --length 4096', 0, "504aa0ac9905aa2603f2c09ea247afb9c3f0b0a65659662ca9e5e2c97d197741"),
    ('census --seq z-nonuniform --width 4 --length 4096', 0, "42e8ab058905bdf87995865f6bf29e720795cd2546e6a42a1a957f6673577c8a"),
    ('census --seq z-uniform --width 4 --length 4096', 0, "42e8ab058905bdf87995865f6bf29e720795cd2546e6a42a1a957f6673577c8a"),
    ('compare classical-hanoi classical-hanoi-toeplitz --length 4096', 0, "5832e417ad353aee4b49036fa71600c0d728aac1bacc522a853cb09b843eef7a"),
    ('compare classical-hanoi classical-hanoi-toeplitz --length 4096 --format json', 0, "c97118a7a416f4b952a7dc808317a795489aa34f384bc06e241b09735f051801"),
    ('compare classical-hanoi classical-hanoi-nonuniform --length 4096', 0, "5832e417ad353aee4b49036fa71600c0d728aac1bacc522a853cb09b843eef7a"),
    ('compare classical-hanoi classical-hanoi-nonuniform --length 4096 --format json', 0, "59c3242ded6c361851e77578c8afd03592cd30d168c99d73b57f6a804238d69d"),
    ('compare lazy-hanoi lazy-hanoi-nonuniform --length 4096', 0, "5832e417ad353aee4b49036fa71600c0d728aac1bacc522a853cb09b843eef7a"),
    ('compare lazy-hanoi lazy-hanoi-nonuniform --length 4096 --format json', 0, "607987dc95002cc4d248808f5678beaa1adfb3efeb8779246a017e0de070ab13"),
    ('compare z-nonuniform z-uniform --length 4096', 0, "5832e417ad353aee4b49036fa71600c0d728aac1bacc522a853cb09b843eef7a"),
    ('compare z-nonuniform z-uniform --length 4096 --format json', 0, "9e1d68ad1cdc2cb0872a3e9c49826fc686b533342fb3b598e4921125e0332e24"),
    ('compare classical-hanoi lazy-hanoi --length 4096', 1, "70b4613bacc997d8c75b5aedc55bd226ab2fb0ba24b2a88012e4e58fa05e443e"),
    ('compare classical-hanoi lazy-hanoi --length 4096 --format json', 1, "3b75a2cfc9d1a8d0f206e637f2b1b321a2408570781a61fa32bbd54fcd8be0d6"),
    ('compare period-doubling thue-morse --length 4096', 1, "2d01234fae29fcf74c59fac94820b1155cd906f7290e5418b44962c472d335ed"),
    ('compare period-doubling thue-morse --length 4096 --format json', 1, "346fe9f0a60086f4a9700d5fb7c13e66dbd8520f6c8b118552bb467796d8901e"),
    ('generate classical-hanoi --length 16', 0, "487c4bfc1f517415a4cae8c78cba1e53396575e53e7fff79502069a1609615f6"),
    ('hanoi verify --disks 8', 0, "c2c52220cabb2ea047903b5998597c6a4fab2fb84687d73465d7eceef56a2765"),
    ('hanoi solve --variant cyclic --disks 5 --check-optimal', 0, "165cb84b0f90e79d1443c51378a89d8d2d692b89f6d5ade8c9dc6e47fcff3eaf"),
    ('hanoi solve --disks 4 --olive --target III', 0, "031c863b2d3367b18612835c7c9ab713669a91a6fb5ba5e5eceffd5fb3b50360"),
    ('hanoi bfs --variant lazy --disks 6 --target III', 0, "9e4221bd70d85a8263b99cf8410de5dcabe630cc31256aa32753312e12a9d64d"),
    ('toeplitz --pattern "a C b . c B a . b A c ." --length 64 --expect classical-hanoi', 0, "2a274d8b5176e8e5e82938f95cf348ba491a0646ec67bb415ebb028f8db330d0"),
    ('compare z-nonuniform z-uniform --length 10000', 0, "88a89a178b21887ec14b664a5f6a49399a62562a29e0e1d520bb4384aec7d24f"),
    ('census --seq classical-hanoi --width 3 --aligned', 0, "48615a198a60c33004f0215cc45b304a5cba41bca82a21ac8fdb1a8f97d08765"),
    ('squarefree --seq classical-hanoi --length 10000', 0, "341d77e7c111e78c70a9f90beb250134a22506614a4ddf34b7bf40c09b2c3ddc"),
    ('kernel --seq period-doubling --radix 2 --depth 8', 0, "1525d482194768a198a4ec590c4520cda62f2b3b47105e2bf2b1dee5b492a5c0"),
    ('construct-nonuniform --seq thue-morse --validate 16384', 0, "75528c240c4c2233b2fbbeb268da3da30983d7e569eac6377b365a59e97b0cb5"),
    ('eval --seq classical-hanoi --index 9 --check-prefix 65536', 0, "01ee637076550ee702b43ca8131f47aa20c7ea85cf58534803e43482ba5e80b1"),
    ('christol verify --order 4096', 0, "baac6c136ffa11813cc2c1a02fdc766156b41c26e7e864dcdc32c1819ab6ef06"),
    ('christol search --seq period-doubling --dmax 2 --coeff-degree 2', 0, "94942706fa7da229805213383792f8a785963f28730499dfc52fd4e26e1ed2c2"),
    ('derive --what Z --length 10000 --check', 0, "6440fcc8b2b2c963cd2584c5c24641fea78400dc3b9aa8242990feef8afbf99b"),
    # the JSON rendering of every other command, and derive without --check
    ('hanoi solve --variant cyclic --disks 5 --check-optimal --format json', 0, "147327ec860969cb483c073ea3477d0415ace9d007b841d0efaef8e62e1e5901"),
    ('hanoi solve --disks 4 --olive --target III --format json', 0, "aacc536272e8f4c8d55cc1b3b307661cb896a10cd231dd721b1f2259152c7587"),
    ('hanoi verify --disks 8 --format json', 0, "41d994bf615164e2276f56d978f78499f4bac5cc1573aa588d5c6db564b3de1e"),
    ('hanoi bfs --variant lazy --disks 6 --target III --format json', 0, "fa8fc66aed2a82aa20f472aa417a33af66cbc3ad65188010dce92c995ccdafa4"),
    ('toeplitz --pattern "a C b . c B a . b A c ." --length 64 --expect classical-hanoi --format json', 0, "7af22a53eaccedae2b2641315fd4f0516c469b6457154562f690ba79f6cc8ae0"),
    ('census --seq classical-hanoi --width 3 --aligned --format json', 0, "fb8f2607dbd292aec0827f66bd336657dc42ec2bcce9ef35c8d57e5602797846"),
    ('squarefree --seq classical-hanoi --length 10000 --format json', 0, "0ca5601dc888b1021f82b4f3604e109edefdd3f69ed1d3f95b7d8151ea09d800"),
    ('kernel --seq period-doubling --radix 2 --depth 8 --format json', 0, "2c59c6ec26167f105a261e843af7cf8c77480fefb655a22f25ad74d7d4cdb9ca"),
    ('construct-nonuniform --seq thue-morse --validate 16384 --format json', 0, "d5a59eb56a6db7abe643988572503f3d3675bdeeac8cc871cc0f020a7704a895"),
    # every other uniform catalog entry through the two-letter extension,
    # recorded before the construction became a view of four values
    ('construct-nonuniform --seq classical-hanoi --validate 4096', 0, "64ebb14d858a6d34b0b4fa41fe5e2752aa59eb778f8f02f4993edb8596f869ea"),
    ('construct-nonuniform --seq classical-hanoi --validate 4096 --format json', 0, "cba5f44537750ac73acefa2404c5b14249597009632a42356957d8cc66b7ad81"),
    ('construct-nonuniform --seq lazy-hanoi --validate 4096', 0, "6290d62dbf5f5e6558b576fa4e8dbc98c04c27797d6dfce5c07d5a26d988f742"),
    ('construct-nonuniform --seq lazy-hanoi --validate 4096 --format json', 0, "ecdc47a14ee99ec13c00082a6a518393ece4cdb9fe616550a068d39e35966ed9"),
    ('construct-nonuniform --seq period-doubling --validate 4096', 0, "b569063d4e833c9050705219fd03b68b0c4e998ea92f6dc0e96181e4852bc904"),
    ('construct-nonuniform --seq period-doubling --validate 4096 --format json', 0, "ad166b653c091b70aa9b5e902b31b2f6af3ec14f9f846873e8cd42be692a6b73"),
    ('construct-nonuniform --seq z-uniform --validate 4096', 0, "34bfa863a3580c5e252163464f3f5c39f3d991c60ce517e4319e0f651fcd0d08"),
    ('construct-nonuniform --seq z-uniform --validate 4096 --format json', 0, "7e9384b75eda2f32ced37d8c05d090547994bd746669319f5da05c1becc109b7"),
    ('eval --seq classical-hanoi --index 9 --check-prefix 65536 --format json', 0, "2fdccb5ef44bf36936c11ba951cc5169915c49b546ffb8127b00ecbb0c4149e0"),
    ('eval --seq thue-morse --check-prefix 100 --format json', 0, "b0a17d35db610e6181923aaccf22018430bfbe6aaae7bef9a9ecb53e3ae415e8"),
    ('christol verify --order 4096 --format json', 0, "0d4eacc80d0a46f769ca30f8d83dd0c8ba81442017d719e8003d673bca9c8d16"),
    ('christol search --seq period-doubling --dmax 2 --coeff-degree 2 --format json', 0, "c9b8b1de12336ddcc13db9fc23838c1f65f8101dbf9f0b59fb1ce9beb6a72aa2"),
    ('christol search --seq thue-morse --order 64 --dmax 1 --coeff-degree 1 --format json', 0, "10b2bc4f7f95d5e2ef324b3447d64c658409449d0a370345d485770b2ebb08f8"),
    ('derive --what T --length 2048', 0, "8a1e267376ad39f89c5725fc51eecf3ff0cdb5efc4d604321fbc316c9fbaf020"),
    ('derive --what T --length 2048 --format json', 0, "8e1f50abe94024302ffe86146c9c5ef745b73d299b379f5d7b6ad491bdb61584"),
    ('derive --what U --length 2048', 0, "a05236a1b8fa1d886758bdf930cf4003d1526a8db33b0292bc56fc932be15b91"),
    ('derive --what U --length 2048 --format json', 0, "92375217120fce05affe92389e11063c992d8200a0afe9ad060d320ebea62cf4"),
    ('derive --what V --length 2048', 0, "77c783240c50ecad6dee2d7040b0f3285975bbc87bbc34423365d2e8734e0df2"),
    ('derive --what V --length 2048 --format json', 0, "27ba01069d04c6a4cba63e9233d060613c27092bf195ba051eb93e303e2b7186"),
    ('derive --what Z --length 2048', 0, "f321498aff69f369afbab9d3e97518320873e5ea5c4fd9f698d03714ae99a931"),
    ('derive --what Z --length 2048 --format json', 0, "4caf8e48b503968dd202dee8c52606b9cc7acb78593ed3e5eb2469af3c1d2309"),
    # exit 1: a square found, a Toeplitz expansion that misses its target,
    # a solution that ends on the wrong peg
    ('squarefree --seq thue-morse --length 100', 1, "85d2cb27e0ee543c900c52d919834b8639fa9cb27113af4eadbb7926a9732b03"),
    ('squarefree --seq thue-morse --length 100 --format json', 1, "e2a4d2550d77f4e188e7f26762b37a22d4e1eb44b3d4fcc93fb53523c3bc868f"),
    ('toeplitz --pattern "a C b . c B a . b A c ." --length 64 --expect lazy-hanoi', 1, "79b40e3866fc6f222ed8f4798b32dca9a4341cd7f24a55941bfbe5e3fbeeed0c"),
    ('toeplitz --pattern "a C b . c B a . b A c ." --length 64 --expect lazy-hanoi --format json', 1, "a1fde97e534948fae0a1464691da32d526e76fb624b22f921613c8cefa728c21"),
    ('hanoi solve --disks 3 --target III', 1, "8d3fa48e5c451deaf08f453602a33e8f5ccb3add92e8b08ec2f43bd95192ed45"),
    ('hanoi solve --disks 3 --target III --format json', 1, "2683051218c764a0024237e3b30ff205f3211f86c33c46dc14a02ee87736607b"),
    # each variant's solution at 1, 2 and 7 disks and the classical check at
    # 1, 2 and 16, recorded before the replay resolved each letter once
    ('hanoi solve --variant classical --disks 1', 0, "3366fe65b73e657dc0a4f9ce5db22ca614288178e6b734ea4094c3cd4d4df425"),
    ('hanoi solve --variant classical --disks 1 --format json', 0, "128794b84a036a8008f1f6c2a223c51dca552796f85fe813f841b27ed36c8932"),
    ('hanoi solve --variant classical --disks 2', 0, "a65b3dad0822e7539e0b59001630cb58a0f009c8fa32eacd4bd95d1968c92cfa"),
    ('hanoi solve --variant classical --disks 2 --format json', 0, "0dc5a10b45063f4f6bb5a749b0b2f88002b9520a48c73148d5bbab1b697e3365"),
    ('hanoi solve --variant classical --disks 7', 0, "5288a1ba461df4f099e7d3c0943220065436076a404e3645b8f7ab72e663b1c3"),
    ('hanoi solve --variant classical --disks 7 --format json', 0, "6f0f8d5d0a1fc219b37366070720c9ac2dddd6e89aac6c7173583aee5bfe8344"),
    ('hanoi solve --variant cyclic --disks 1', 0, "3366fe65b73e657dc0a4f9ce5db22ca614288178e6b734ea4094c3cd4d4df425"),
    ('hanoi solve --variant cyclic --disks 1 --format json', 0, "1de4dbaf63ef1cf64c858c7bd9b3412ef15ad09e867ef0afdd24a5aecbdcd6ad"),
    ('hanoi solve --variant cyclic --disks 2', 0, "dffff62b04ea87cc1927fc2d7ba66be0087c70ee954f9cdf9808e89b5e8bf2c6"),
    ('hanoi solve --variant cyclic --disks 2 --format json', 0, "c2c0f772bcc5c7d506c259daf7fc963ea8f6ec95ea8cce97480febb73a18d5b6"),
    ('hanoi solve --variant cyclic --disks 7', 0, "45ad68384dd23d57531b161e3794a43bd1be08db23df75142f3e4c1b35f44974"),
    ('hanoi solve --variant cyclic --disks 7 --format json', 0, "876a77c1d53c4afbb63aac9676d96d55ab8380a416640ad699ab00c9a129f4d5"),
    ('hanoi solve --variant lazy --disks 1', 0, "3366fe65b73e657dc0a4f9ce5db22ca614288178e6b734ea4094c3cd4d4df425"),
    ('hanoi solve --variant lazy --disks 1 --format json', 0, "3901d36872d57243a694ed008eaed1c75d6e2dee3b5f4c3f889a8d07a77b1402"),
    ('hanoi solve --variant lazy --disks 2', 0, "35564614bb04a674ea877af4084672ca18828765eedaf8b59032c90a51fdd707"),
    ('hanoi solve --variant lazy --disks 2 --format json', 0, "47a714a1341984ecc455f37271a28181b0aaf7ced2492365daf864959d7fca48"),
    ('hanoi solve --variant lazy --disks 7', 0, "d545ea25d27330209e83fbe7a71a43fd94afa6dac98af8f7b5f865a7a121de36"),
    ('hanoi solve --variant lazy --disks 7 --format json', 0, "e643f981ff7e3e4d0f6d44dc07a3dc9acca931f9ce0b287534650f1b07986e47"),
    ('hanoi verify --disks 1', 0, "f64f00dbe717557f8213d10d381b327ae0252ec2fced56eac1faa3167c0f42ac"),
    ('hanoi verify --disks 1 --format json', 0, "df898fa7b9938c091c9b190194cf24f600a6733824bf200aabf0156d894cb73a"),
    ('hanoi verify --disks 2', 0, "044decb6dc4db2a74852eaab8a26c483fc8875c7749a8665ec0c005f87606f26"),
    ('hanoi verify --disks 2 --format json', 0, "93019933c6fcbf00366818142e8e5141b54094fd9c75ef51772148087a192242"),
    ('hanoi verify --disks 16', 0, "0cff36d3a03bd290590ee585a0920196d82a46ed85f6903a23f85c381487250d"),
    ('hanoi verify --disks 16 --format json', 0, "8efdbf9a88354edb669974f0344ce1b36adca1bd140a5c8fe06f64b00453f21b"),
    # products in 8-byte slots (the largest prime modulus the CLI admits),
    # over F_3, and at the order of the benchmark's relation check
    ('christol search --seq period-doubling --modulus 11863279 --order 512', 0, "e3696e895b2d281bf8de1a6fb878feaecfe3ea0605f963ce3cac8bb16a1a6356"),
    ('christol search --seq period-doubling --modulus 11863279 --order 512 --format json', 0, "0320c95067042098634bb834233531db2d355b5ef76ab5bcaf4bb4d3c3995910"),
    ('christol search --seq thue-morse --modulus 3 --dmax 2 --order 1024', 0, "f5714a8554c079d5650c6ad692e90bcfff46494c34657d1a81a4f2fe39eab59a"),
    ('christol search --seq thue-morse --modulus 3 --dmax 2 --order 1024 --format json', 0, "d2332dc940bb84dda77bf5ba0685b85dd785f6e5771de1a3ef583dbc9988db48"),
    ('christol verify --order 16384', 0, "1a0978681cf90d641a42b64c6ba584e2e5d9d384d10a7ad2734b20db94d994aa"),
    ('christol verify --order 16384 --format json', 0, "003fe6ffa103558276f4913ebf3d68e9b8141cc032609c71d7931bc98840f97d"),
    # searches at the caps' shape (165 unknowns): one finds the relation over
    # F_2, the other none at the largest prime modulus the CLI admits
    ('christol search --seq period-doubling --dmax 4 --coeff-degree 32 --order 16384', 0, "58619a2cac666d1fb5c749a3db8309da75bbdc273aff432aaa0126df16d4f87b"),
    ('christol search --seq period-doubling --dmax 4 --coeff-degree 32 --order 16384 --format json', 0, "ab782da98122ace59a8730f50387dd0422dbbb0173c19b46bed21044c76e1b3d"),
    ('christol search --seq period-doubling --modulus 11863279 --dmax 4 --coeff-degree 32 --order 4096', 0, "42a13343200c9b334ba640b3599b9a4d6d5f5bc7f8e547b4bc540e1e957239ec"),
    ('christol search --seq period-doubling --modulus 11863279 --dmax 4 --coeff-degree 32 --order 4096 --format json', 0, "2bdda3e1ee9a0cc5c8ddc6d5ccd73ad977b6a626d4c5e7835c3b2b5924a3f53c"),
    # square scans at both budgets: capped at 10^6 symbols without a square,
    # and the full period range at 10^4 with a square early or none at all
    ('squarefree --seq classical-hanoi --length 1000000 --max-period 64', 0, "a85e299dc37622bb3bcefd3589a9b73f590b83e91d1558d345c2dcfd6d93c9d1"),
    ('squarefree --seq classical-hanoi --length 1000000 --max-period 64 --format json', 0, "17789c9f9b8f8c272efbf58130fa6335a193a4b0eb3d944a1cbada773d65b92a"),
    ('squarefree --seq lazy-hanoi --length 10000', 1, "266312dc5de50e960bea2edc72b098a21fdd651446e72fb5f77cfc82de260065"),
    ('squarefree --seq lazy-hanoi --length 10000 --format json', 1, "44bdb9689fb1b6a93cd3f4334921df9780891cc3773134fa9084620f197a8439"),
    ('squarefree --seq cyclic-hanoi --length 10000', 1, "ed40a3272aae3f436dbbb6bd694092524ef9fb5584359ee00de1174485a2f93f"),
    ('squarefree --seq cyclic-hanoi --length 10000 --format json', 1, "50e2e9faa26e4e5628f46f33ba35b77798dbf61e37db22153472c48deee9ed8a"),
    ('squarefree --seq z-uniform --length 10000', 0, "341d77e7c111e78c70a9f90beb250134a22506614a4ddf34b7bf40c09b2c3ddc"),
    ('squarefree --seq z-uniform --length 10000 --format json', 0, "001d0786b8bbb212c0a368a292b2bf3add2c008188ede0da218a2ecddbc30e0d"),
    # an integer sequence rendered in two runs, and tokens of unequal byte widths
    ('derive --what U --length 70000', 0, "5b8fda940df9c7590b5e0b217b9c043bcabeeed5790968d7c1c4cfafea8ac880"),
    ('derive --what U --length 70000 --format json', 0, "69f513e26d5ac114b888ff8fbc7edca6ffa517e284128ceb2e46ff13c702a17b"),
    ('toeplitz --pattern "é ab . c ." --length 40', 0, "92086849b3bcd24320b7079662c4cef59d2ebd2cc7221a361a96b581b414f1ad"),
    ('toeplitz --pattern "é ab . c ." --length 40 --format json', 0, "97685b29eec09843e73a52532d688686dc911c9f3e6dd009e16dd984d8f23386"),
]

# (argv, exit code, stderr) of usage errors: stdout stays empty.  An unknown
# sequence is reported before a missing --index/--check-prefix.
USAGE_ERRORS = [
    ('eval --seq thue-morse', 2, 'error: give --index and/or --check-prefix\n'),
    ('eval --seq thue-morse --format json', 2, 'error: give --index and/or --check-prefix\n'),
    ('eval --seq no-such', 2,
     "error: unknown sequence 'no-such'; available: classical-hanoi, "
     "classical-hanoi-nonuniform, classical-hanoi-toeplitz, cyclic-hanoi, fibonacci, "
     "lazy-hanoi, lazy-hanoi-nonuniform, paperfolding, period-doubling, thue-morse, "
     "z-nonuniform, z-uniform\n"),
    ('hanoi solve --variant cyclic --disks 3 --olive', 2,
     'error: the alternating solver applies to the classical variant only\n'),
    ('hanoi solve --variant cyclic --disks 3 --olive --format json', 2,
     'error: the alternating solver applies to the classical variant only\n'),
    # a 32-token pattern at the length cap fills about 2^29 cells
    ('toeplitz --pattern "a' + ' .' * 31 + '" --length 16777216', 2,
     'error: toeplitz budget exceeded: a length-16777216 prefix of this 32-token '
     'pattern fills more than 268435456 cells\n'),
    ('toeplitz --pattern "a' + ' .' * 31 + '" --length 16777216 --format json', 2,
     'error: toeplitz budget exceeded: a length-16777216 prefix of this 32-token '
     'pattern fills more than 268435456 cells\n'),
    # the move letters have no integer value of their own
    ('christol search --seq classical-hanoi', 2,
     "error: symbol 'a' has no value; give one with --map\n"),
    ('christol search --seq classical-hanoi --format json', 2,
     "error: symbol 'a' has no value; give one with --map\n"),
    # an argv byte that is not UTF-8 reaches Python as a lone surrogate
    ('toeplitz --pattern "\udcff ." --length 4', 2,
     "error: symbol '\\udcff' is not valid UTF-8 text\n"),
    ('toeplitz --pattern "\udcff ." --length 4 --format json', 2,
     "error: symbol '\\udcff' is not valid UTF-8 text\n"),
]

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr) of what argparse
# answers itself, at 80 columns: help exits 0 through SystemExit, a parse
# error exits 2 through SystemExit, no command returns 2 after the usage line
PARSING_SURFACE = [
    # help at the top level, at each group and for every command
    ('--help', 0, "935c2b8ae6c43c2b129ba395d00e1943b653c73b256ed0c307fd0a9323051028", EMPTY),
    ('-h', 0, "935c2b8ae6c43c2b129ba395d00e1943b653c73b256ed0c307fd0a9323051028", EMPTY),
    ('hanoi --help', 0, "38d9979ec9836c3c7b56849646469807408aeef900760413774d1da58f4f082b", EMPTY),
    ('christol --help', 0, "12f51e2401744708d13ce7019680e61b05c094ea127f4d0ca8c188c714b80881", EMPTY),
    ('generate --help', 0, "dd9367c2f842d80368d766683b1233d03160336e0a3b542b953268ccf8ad8bb7", EMPTY),
    ('compare --help', 0, "ae1a65c80fdb4c3efa52000a91af189f11c0caf79f7fa68039c500ce28c8d5e8", EMPTY),
    ('hanoi solve --help', 0, "3ac984d2e3261a1cda9eb506ac73115b3238abd1f01d270ba13ff4c5f9b72621", EMPTY),
    ('hanoi verify --help', 0, "3fadddc109b258b5ec505a6b8ccc08c4debaa0e4f40e445ec2f8d235987f172a", EMPTY),
    ('hanoi bfs --help', 0, "18ede89424bca316a5999c3920e79adbf0d49e8b741070b747ab5c872684d9af", EMPTY),
    ('toeplitz --help', 0, "8318f119cfced13d41ca234bea2a5940de9ed0b5fa2008ab8d4097e31fa75cfc", EMPTY),
    ('census --help', 0, "5ce561a49176e35fd439470d35bac4ad60481a1a9a20ac55f2c423ed0f05d10a", EMPTY),
    ('squarefree --help', 0, "e5491fc17a24b7ba85f8426b9926e593b5a9751575332b7243e39967336cbb56", EMPTY),
    ('kernel --help', 0, "9b1a81a85070b39998454c3dc1cec3f4199a248b6445781e7bbef66ce4ac7cda", EMPTY),
    ('construct-nonuniform --help', 0, "3019c4b80ffeb6b5d719badfc9899c7540351747be6c735146da5c5c37144697", EMPTY),
    ('christol verify --help', 0, "801036b9c99d7065797686936eb21e25a96bcb06929ee913a7d5fb9850ba3f9b", EMPTY),
    ('christol search --help', 0, "d927a4b004163430380a07748ffa248e997bc19278e74eceaa7df43638cdfb83", EMPTY),
    ('derive --help', 0, "29c2b954d1f94c855a71b15754e78a039ed009922e25fcdee3b66b12efa328fe", EMPTY),
    ('eval --help', 0, "73a1f35d0b60d82ab5175d750e478683e8e0ee8d7fbd4689e6d5d8f903c04082", EMPTY),
    # no command, a group without its command, unknown names
    ('', 2, EMPTY, "4cbcf5b6e6cd35bc1f33421050c8a9cfd80e69508a150d4b57955ff73390285e"),
    ('hanoi', 2, EMPTY, "4cbcf5b6e6cd35bc1f33421050c8a9cfd80e69508a150d4b57955ff73390285e"),
    ('christol', 2, EMPTY, "4cbcf5b6e6cd35bc1f33421050c8a9cfd80e69508a150d4b57955ff73390285e"),
    ('frobnicate', 2, EMPTY, "b0f115e174238f62c4108c063e88d03f9a96b26bb4180faca07b2258bffba075"),
    ('hanoi frobnicate --disks 3', 2, EMPTY, "a62a2015bf77538b838d8593f3c6450a2e5c53d0fa793d88641ee3a437187b56"),
    ('christol frobnicate', 2, EMPTY, "a392406050ea9adf7d05290de68d3970aac0520c01a31484b1b07fdcafc28258"),
    # a missing required option, a bad int, bad choices
    ('generate classical-hanoi', 2, EMPTY, "2a4e48e6c1f621c2785ec2321cf78578d9bdbe3d03985d1eb2473d9c5a6cdde5"),
    ('hanoi solve', 2, EMPTY, "4a74579a382b418e803cb28028f5618fccd8af1fc56c359e6e17e848871c0c37"),
    ('toeplitz --length 8', 2, EMPTY, "775a90b46a52da343046ac37f035cc95b3124badd7147b17154c6c01a356073c"),
    ('generate classical-hanoi --length ten', 2, EMPTY, "f33c18bd3c531d8901bcb29eef1ac5360abbb9b1e186a7899daa67be840b6768"),
    ('hanoi bfs --disks 3 --source IV', 2, EMPTY, "522a0399174afbbd0aa6475c7bb3744be8c5b7abf6cd0c3f06cb929f86b283d6"),
    ('derive --what W --length 8', 2, EMPTY, "443e526aca855d18b8c6a59b5e51554af01eb3b160786fdde7c72a0abbf3cc5b"),
    ('generate thue-morse --length 8 --format xml', 2, EMPTY, "935473bfad0ccf1b0dca82f779644daabd2f3a8a6bda8e202aa91e945516294e"),
    # leftover arguments: argparse reports them with the top-level prog
    ('generate thue-morse --length 8 --bogus', 2, EMPTY, "9251bc2c7aeb8ac9eb0496f93744affc03d958500346e111abcaf2b606cd7302"),
    ('hanoi verify --disks 3 extra', 2, EMPTY, "1b00db5487c09eae396eb8cc2fd861d29b5e46fc0a5dc7c361d3b149f26042c9"),
    ('compare thue-morse period-doubling fibonacci --length 8', 2, EMPTY, "c692a3c1a8d9c2ff6c0f39dd20000452f39421bb088306f9eac5d240ceb91088"),
    # --format before the command, and arguments after --
    ('--format json generate thue-morse --length 8', 2, EMPTY, "52bbb0ed2181d7c832cdd675d64bace2630093b55182540250cc63caf07f5f29"),
    ('generate --length 8 -- thue-morse', 0, "d123146a32914e56e46b3840063b5118a682e5cd945b1b116f25c3b501db0b77", EMPTY),
    ('generate thue-morse --length 8 -- extra', 2, EMPTY, "dbd88ae5c22290b6c7fd8b95e16504a22cec82e406a9c58143d1992744b267d7"),
    ('-- generate thue-morse --length 8', 2, EMPTY, "8dd72d239d6a59337a81fdcb41b0d9ac46392c860a74764cd429f9e9da5fb17c"),
    ('hanoi -- solve --disks 2', 2, EMPTY, "1ee1578449815bb3799733e4d8a37cd497189e669dd919c7875cb65c4050adfa"),
    # abbreviated options, and an option argument glued to -h
    ('generate thue-morse --len 8 --form json', 0, "645e9477283f8a9ee9d8d43f2c5a83814a81f2b4e8f6759b22ef513c7ea3d58d", EMPTY),
    ('-hx', 2, EMPTY, "d02499906cd6a1ffd2c19aaca625af86c91d516715e91e2d8ebf3ec372de70f8"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(argv, code, digest, capsys):
    assert run(shlex.split(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code,err", USAGE_ERRORS, ids=[u[0] for u in USAGE_ERRORS])
def test_usage_error(argv, code, err, capsys):
    assert run(shlex.split(argv)) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv,code,out,err", PARSING_SURFACE,
                         ids=[p[0] or "(none)" for p in PARSING_SURFACE])
def test_parsing_surface(argv, code, out, err, capsys, monkeypatch):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = run(shlex.split(argv))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert (status, _digest(captured.out), _digest(captured.err)) == (code, out, err)


# a parse error on a parser that has already answered a request prints
# the same pinned bytes, and the parser is not built again for it
PARSE_ERRORS = [p for p in PARSING_SURFACE if p[1] != 0]


@pytest.mark.parametrize("argv,code,out,err", PARSE_ERRORS,
                         ids=[p[0] or "(none)" for p in PARSE_ERRORS])
def test_parse_errors_on_a_warm_parser(argv, code, out, err, monkeypatch, capsys):
    assert run(shlex.split(GOLDEN[0][0])) == GOLDEN[0][1]
    capsys.readouterr()
    misses = cli._build_parser.cache_info().misses
    test_parsing_surface(argv, code, out, err, capsys, monkeypatch)
    assert cli._build_parser.cache_info().misses == misses


def test_budgets_admit_every_documented_request():
    """The input budgets admit the pinned requests, the README examples and
    every request of the benchmark that is not meant to exit 2, 10^6-symbol
    renders included."""
    root = Path(__file__).resolve().parents[1]
    readme = [line.split("#")[0].split(" ", 1)[1]
              for line in (root / "README.md").read_text().splitlines()
              if line.startswith("hanoiseq ")]
    reference = json.loads((root / "bench" / "reference.json").read_text())
    requests = ([g[0] for g in GOLDEN + USAGE_ERRORS] + readme
                + [query for query, (code, _) in reference["point-queries"].items()
                   if code != 2]
                + list(reference["bulk-prefix"]["render"]))
    assert any("--length 1000000" in r for r in requests)
    for request in requests:
        argv = shlex.split(request)
        path = tuple(argv[:2] if argv[0] in cli.GROUPS else argv[:1])
        cli._check_budgets(path, cli._build_parser().parse_args(argv))
