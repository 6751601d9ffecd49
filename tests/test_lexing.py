"""Tokenizer tests: the lexical ground shared by Vadalog and MetaLog."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.lexing import Token, TokenStream, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text) if t.kind != "EOF"]


class TestBasicTokens:
    def test_identifiers(self):
        assert values("abc Abc _x a1_b") == ["abc", "Abc", "_x", "a1_b"]

    def test_numbers_int_and_float(self):
        assert values("12 3.5 0.25") == [12, 3.5, 0.25]

    def test_number_followed_by_rule_dot(self):
        # "p(1)." must not swallow the terminator into the number.
        assert values("p(1).") == ["p", "(", 1, ")", "."]

    def test_float_vs_path_concat(self):
        # "0.5" is one float; "] . [" keeps the dot as punctuation.
        assert values("0.5 ] . [") == [0.5, "]", ".", "["]

    def test_strings_with_escapes(self):
        assert values(r'"a\"b" "line\nbreak"') == ['a"b', "line\nbreak"]

    def test_multichar_punctuation(self):
        assert values("-> == != <= >= <-") == ["->", "==", "!=", "<=", ">=", "<-"]

    def test_comments_are_skipped(self):
        assert values("a % comment\nb // another\nc") == ["a", "b", "c"]

    def test_positions_are_tracked(self):
        tokens = tokenize("a\n  bb")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind == "EOF"
        assert tokenize("x")[-1].kind == "EOF"


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"unterminated')

    def test_string_with_newline(self):
        with pytest.raises(ParseError):
            tokenize('"broken\nstring"')

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("a \x01 b")

    @pytest.mark.parametrize("text, line, column", [
        ('p("ab', 1, 6),          # the text ends inside the string
        ('p("ab\nc")', 1, 6),     # ... or the line does
        ('p("ab\\', 1, 7),        # ... or it ends on a lone backslash
        ('a.\n  "x\\"y', 2, 8),   # an escaped quote does not close it
        ("p(a)\n & q", 2, 2),
    ])
    def test_errors_say_where(self, text, line, column):
        with pytest.raises(ParseError) as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)


class TestTokenStream:
    def test_accept_and_expect(self):
        stream = TokenStream.from_text("a (")
        assert stream.accept("IDENT").value == "a"
        assert stream.expect_punct("(")
        assert stream.at_eof()

    def test_expect_failure_mentions_position(self):
        stream = TokenStream.from_text("a")
        with pytest.raises(ParseError) as excinfo:
            stream.expect_punct("(")
        assert "line 1" in str(excinfo.value)

    def test_backtracking(self):
        stream = TokenStream.from_text("a b c")
        checkpoint = stream.save()
        stream.advance()
        stream.advance()
        stream.restore(checkpoint)
        assert stream.current.value == "a"

    def test_peek_does_not_advance(self):
        stream = TokenStream.from_text("a b")
        assert stream.peek().value == "b"
        assert stream.current.value == "a"


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
def test_tokenizer_terminates_or_raises_cleanly(text):
    """Any printable-ASCII input either tokenizes or raises ParseError."""
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    assert tokens[-1].kind == "EOF"
    columns = [(t.line, t.column) for t in tokens]
    assert columns == sorted(columns)
