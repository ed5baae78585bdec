"""cxx_text.py — the C++ text handling shared by the repo's static tools.

tools/lint_stosched.py and tools/ast_audit.py both read C++ as text: first
strip_code() blanks comments and literals (keeping every offset and line
number), then the matchers below walk the stripped text. Keeping the lexer
and the bracket matchers in one module means both tools see a file the same
way. Stdlib only.
"""

import re


# A literal can open with an encoding prefix (u8, u, U, L), an R for raw
# strings, or bare quotes. The prefix is only a prefix when the character
# before it is not part of an identifier — `FOO_R"(x)"` is the identifier
# FOO_R followed by an ordinary string, not a raw string.
_LIT_START_RE = re.compile(r'(?:u8|[uUL])?(R?)(["\'])')
_RAW_OPEN_RE = re.compile(r'(?:u8|[uUL])?R"([^\s()\\]{0,16})\(')


def strip_code(text):
    """Blank out comments and string/char literals, preserving newlines (and
    therefore line numbers and offsets). Handles //, /* */, "..." and '...'
    with escapes, encoding prefixes (u8/u/U/L), (prefixed) raw strings
    R"delim(...)delim", and digit separators (1'000'000 opens no char
    literal)."""
    out = list(text)
    i, n = 0, len(text)

    def blank(lo, hi):
        for k in range(lo, hi):
            if out[k] != "\n":
                out[k] = " "

    def skip_quoted(start, quote):
        """Blank a non-raw literal body whose opening quote is at `start`;
        return the index just past the closing quote."""
        j = start + 1
        while j < n and text[j] != quote:
            j += 2 if text[j] == "\\" else 1
        blank(start + 1, min(j, n))
        return min(j, n) + 1

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        prev = text[i - 1] if i else ""
        ident_prev = prev.isalnum() or prev == "_"
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            blank(i, end)
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(i, end)
            i = end
        elif c in 'uULR\'"' and not ident_prev:
            m = _LIT_START_RE.match(text, i)
            if m is None:
                i += 1
                continue
            if m.group(1):
                raw = _RAW_OPEN_RE.match(text, i)
                if raw:
                    close = ")" + raw.group(1) + '"'
                    end = text.find(close, raw.end())
                    end = n if end == -1 else end + len(close)
                    blank(i, end)
                    i = end
                    continue
                # `R"` with a malformed delimiter: lex as an ordinary string.
            i = skip_quoted(m.end() - 1, m.group(2))
        elif c == '"':
            # Quote glued to an identifier (macro juxtaposition, operator""):
            # still an ordinary string boundary.
            i = skip_quoted(i, '"')
        elif c == "'":
            # Glued to an identifier/digit: a digit separator (1'000'000),
            # not the start of a char literal.
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_paren(text, open_idx):
    """Index of the char after the parenthesis group opening at open_idx, or
    -1. `text` must already be comment/string-stripped."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(text, open_idx):
    """Index of the char after the brace block opening at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_angle(text: str, start: int) -> int:
    """Index just past the `>` matching the `<` at start, or -1."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def prev_nonspace(text: str, i: int) -> str:
    while i >= 0 and text[i].isspace():
        i -= 1
    return text[i] if i >= 0 else ""


def next_nonspace(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i
