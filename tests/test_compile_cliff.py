"""Every module of the package stays under the compile-peak cliff.

Compiling a module of more than 8192 tokens peaks about 0.46 MB higher:
under tracemalloc over compile() on CPython 3.11.7, sim.py padded to 8190
tokens peaked at 3.160 MB, and padded to 8198 tokens at 3.626 MB. Without
a bytecode cache, as in a fresh checkout run with PYTHONDONTWRITEBYTECODE=1,
the package is compiled at every import, so that step lands in every
perfbench workload's peak_rss_mb. Tokens are counted as tokenize gives
them, leaving out comments and the NL tokens of blank and continued lines.

Run as a script, it prints each module's lines, tokens and head-room under
the cliff, and the package's totals:

    PYTHONPATH=src python tests/test_compile_cliff.py
"""

import glob
import os
import tokenize

import pytest

CLIFF = 8192
PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "aqldb")


def token_count(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for tok in tokenize.generate_tokens(fh.readline) if tok.type not in (tokenize.COMMENT, tokenize.NL))


MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_is_under_the_compile_cliff(path):
    count = token_count(path)
    assert count <= CLIFF, f"{os.path.basename(path)} is {count} tokens, over the {CLIFF}-token compile cliff"


def size_report() -> str:
    rows = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            lines = len(fh.readlines())
        rows.append((os.path.basename(path), lines, token_count(path)))
    out = [f"{'module':<12} {'lines':>6} {'tokens':>7} {'headroom':>9}"]
    out += [f"{name:<12} {lines:>6} {tokens:>7} {CLIFF - tokens:>9}" for name, lines, tokens in rows]
    out.append(f"{'total':<12} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>7}")
    return "\n".join(out)


if __name__ == "__main__":
    print(size_report())
