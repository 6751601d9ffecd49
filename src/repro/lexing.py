"""Shared tokenizer for the Vadalog and MetaLog concrete syntaxes.

Both languages share the same lexical ground: identifiers, numbers,
double-quoted strings, punctuation, and ``%`` / ``//`` line comments.
The parsers interpret the token stream differently (e.g. ``.`` is both the
rule terminator and the path-concatenation operator in MetaLog).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

from repro.errors import ParseError

#: One token, or the blank or comment before it.  Multi-character
#: punctuation comes first; ``%`` opens a comment wherever it stands; a
#: dot belongs to a number only between digits, so the rule terminator
#: after a number stays punctuation; a string's closing quote is
#: optional here so that a string left open is reported where it breaks.
_SCAN = re.compile(
    r"""(?P<SKIP>[ \t\r]+|(?:%|//)[^\n]*)
    |(?P<NEWLINE>\n)
    |"(?P<STRING>(?:[^"\\\n]|\\[\s\S])*)"?
    |(?P<NUMBER>\d+(?:\.\d+)?)
    |(?P<IDENT>[^\W\d]\w*)
    |(?P<PUNCT>->|==|!=|<=|>=|<-|[()\[\]{},.;:<>=+\-*/@\#|!?~])""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPED = {"n": "\n", "t": "\t"}


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str  # IDENT | NUMBER | STRING | PUNCT | EOF
    value: object
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` and return the token list, ending with EOF."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    i = 0
    n = len(text)
    scan = _SCAN.match
    while i < n:
        match = scan(text, i)
        if match is None:
            raise ParseError(
                f"unexpected character {text[i]!r}", line, i - line_start + 1
            )
        kind = match.lastgroup
        end = match.end()
        if kind == "NEWLINE":
            line += 1
            line_start = end
        elif kind != "SKIP":
            value = match.group(kind)
            if kind == "NUMBER":
                value = float(value) if "." in value else int(value)
            elif kind == "STRING":
                if end == match.end(kind):  # no closing quote
                    end += text.startswith("\\", end)  # a last, lone backslash
                    raise ParseError(
                        "unterminated string literal", line, end - line_start + 1
                    )
                if "\\" in value:
                    value = _ESCAPE.sub(
                        lambda m: _ESCAPED.get(m.group(1), m.group(1)), value
                    )
            tokens.append(Token(kind, value, line, i - line_start + 1))
        i = end
    tokens.append(Token("EOF", None, line, i - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual parser conveniences."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    @classmethod
    def from_text(cls, text: str) -> "TokenStream":
        return cls(tokenize(text))

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self._pos += 1
        return token

    def at(self, kind: str, value: object = None) -> bool:
        token = self.current
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def at_punct(self, value: str) -> bool:
        return self.at("PUNCT", value)

    def at_ident(self, value: Optional[str] = None) -> bool:
        return self.at("IDENT", value)

    def accept(self, kind: str, value: object = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.advance()
        return None

    def accept_punct(self, value: str) -> Optional[Token]:
        return self.accept("PUNCT", value)

    def expect(self, kind: str, value: object = None) -> Token:
        if not self.at(kind, value):
            token = self.current
            wanted = f"{kind} {value!r}" if value is not None else kind
            raise ParseError(
                f"expected {wanted}, found {token.kind} {token.value!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        return self.expect("PUNCT", value)

    def error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(message, token.line, token.column)

    def save(self) -> int:
        """Checkpoint the cursor for backtracking."""
        return self._pos

    def restore(self, checkpoint: int) -> None:
        self._pos = checkpoint

    def at_eof(self) -> bool:
        return self.current.kind == "EOF"
