"""C++ lexical stripping: split a translation unit into parallel code and
comment line views with identical line numbering.

String and character literals are blanked in the code view (so
`"time (us)"` never trips a rule); comments are blanked in the code view
and collected in the comment view (so markers like rfid:noexcept-allow
and NOLINT are matched only where a human wrote them).  Handles //,
block comments, escapes, raw string literals, and C++14 digit
separators (`50'000` is a number, not the start of a character literal).
"""

from __future__ import annotations

import re

_RAW_OPEN = re.compile(r'R"([^()\\ \t\n]{0,16})\(')
#: A preprocessing number ([lex.ppnumber]): a `'` inside one is a digit
#: separator, not the start of a character literal.
_PP_NUMBER = re.compile(r"[0-9](?:[eEpP][+-]|'[0-9A-Za-z_]|[0-9A-Za-z_.])*")


def split_code_and_comments(text: str) -> tuple[list[str], list[str]]:
    """Return (code_lines, comment_lines) with identical line numbering."""
    code: list[str] = []
    comments: list[str] = []
    n = len(text)
    i = 0
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    cur_code: list[str] = []
    cur_comment: list[str] = []

    def endline() -> None:
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
        cur_code.clear()
        cur_comment.clear()

    while i < n:
        c = text[i]
        if c == "\n":
            if state == "line_comment":
                state = "code"
            endline()
            i += 1
            continue
        if state == "code":
            two = text[i:i + 2]
            if two == "//":
                state = "line_comment"
                i += 2
                continue
            if two == "/*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim"
                m = _RAW_OPEN.match(text[i - 1:i + 20])
                if i > 0 and text[i - 1] == "R" and m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    i += len(m.group(0)) - 1
                    continue
                state = "string"
                cur_code.append(" ")
                i += 1
                continue
            if "0" <= c <= "9" and not (
                    i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
                number = _PP_NUMBER.match(text, i).group(0)
                cur_code.append(number)
                i += len(number)
                continue
            if c == "'":
                state = "char"
                cur_code.append(" ")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            i += 1
            continue
        if state == "block_comment":
            if text[i:i + 2] == "*/":
                state = "code"
                i += 2
                continue
            cur_comment.append(c)
            i += 1
            continue
        if state == "string" or state == "char":
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (
                    state == "char" and c == "'"):
                state = "code"
            i += 1
            continue
        if state == "raw":
            if text[i:i + len(raw_delim)] == raw_delim:
                state = "code"
                i += len(raw_delim)
                continue
            i += 1
            continue
    endline()
    return code, comments
