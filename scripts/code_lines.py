#!/usr/bin/env python3
"""Count the code lines of a Python package: lines that hold a token other
than a comment, a docstring or layout.

A docstring here is any string literal that forms a statement of its own:
module, class and function docstrings, and bare strings elsewhere.  Blank
lines and lines holding only comments, docstrings or brackets' line breaks
do not count.  Usage::

    python3 scripts/code_lines.py [package_dir]

The directory defaults to ``src/linkpattern`` beside this script; the
script prints one integer, the total over every ``.py`` file under it.
"""

import sys
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "linkpattern"

# tokens that hold no code; NEWLINE, which ends each statement, is read apart
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Code lines of one Python source file."""
    with open(path, "rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type not in _LAYOUT]
    lines = set()
    statement = []  # the current logical line's tokens
    for tok in tokens:
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for token in statement:
                lines.update(range(token.start[0], token.end[0] + 1))
        statement = []
    return len(lines)


def package_lines(package) -> int:
    """Code lines summed over every ``.py`` file under ``package``."""
    return sum(code_lines(path) for path in sorted(Path(package).rglob("*.py")))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    print(package_lines(args[0] if args else DEFAULT_PACKAGE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
