"""Count the raw lines and the code lines of each module of a package.

A code line is a line that holds a token outside docstrings and comments:
blank lines, comment lines and the lines of a statement made only of string
literals (a docstring) do not count, and every line of a multi-line
statement that holds a token does.

Run from the repository root:

    python tools/src_lines.py [PACKAGE_DIR]    # default: src/journeynet
"""

import io
import sys
import tokenize
from pathlib import Path

# tokens inside a statement that hold no code: layout, comments and the encoding marker
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count_lines(text: str) -> tuple[int, int]:
    """(raw lines, code lines) of the Python source `text`."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):  # a statement ends
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _NOT_CODE:
            statement.append(tok)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/journeynet")
    total_raw = total_code = 0
    print(f"{'module':<24} {'raw':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        raw, code = count_lines(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.name:<24} {raw:>6} {code:>6}")
    print(f"{'total':<24} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
