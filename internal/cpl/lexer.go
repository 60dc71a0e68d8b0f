package cpl

import (
	"fmt"
	"strings"
)

// Lexer turns CPL source text into tokens. It supports //-line and
// /* */-block comments and reports positions for diagnostics. A column
// counts bytes from the start of its line, so a tab and a \r count one
// each.
type Lexer struct {
	src       string
	off       int
	line      int
	lineStart int // offset of the current line's first byte
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Lex tokenizes the whole input, appending the terminating EOF token.
// The parser pulls tokens from a Lexer as it goes and never builds this
// slice; Lex is for tests and tools that want the whole stream.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// The Table 1 programs lex at 3.3-4 bytes per token, so a third of the
	// length holds the whole stream in one allocation instead of regrowing
	// the slice about twenty times.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.off - lx.lineStart + 1} }

// newlines accounts for the line breaks in src[lx.off:end] and moves the
// cursor to end.
func (lx *Lexer) newlines(end int) {
	for {
		i := strings.IndexByte(lx.src[lx.off:end], '\n')
		if i < 0 {
			break
		}
		lx.off += i + 1
		lx.line++
		lx.lineStart = lx.off
	}
	lx.off = end
}

func (lx *Lexer) skipSpaceAndComments() error {
	src := lx.src
	for lx.off < len(src) {
		switch c := src[lx.off]; {
		case c == ' ' || c == '\t' || c == '\r':
			lx.off++
		case c == '\n':
			lx.off++
			lx.line++
			lx.lineStart = lx.off
		case c == '/' && lx.off+1 < len(src) && src[lx.off+1] == '/':
			if i := strings.IndexByte(src[lx.off:], '\n'); i >= 0 {
				lx.off += i
			} else {
				lx.off = len(src)
			}
		case c == '/' && lx.off+1 < len(src) && src[lx.off+1] == '*':
			start := lx.pos()
			i := strings.Index(src[lx.off+2:], "*/")
			if i < 0 {
				return fmt.Errorf("%s: unterminated block comment", start)
			}
			lx.newlines(lx.off + 2 + i + 2)
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an error for an illegal character or
// unterminated comment.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	p := lx.pos()
	src := lx.src
	if lx.off >= len(src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	c := src[lx.off]
	start := lx.off
	switch {
	case isIdentStart(c):
		lx.off++
		for lx.off < len(src) && isIdentPart(src[lx.off]) {
			lx.off++
		}
		text := src[start:lx.off]
		return Token{Kind: keyword(text), Text: text, Pos: p}, nil
	case isDigit(c):
		lx.off++
		for lx.off < len(src) && isDigit(src[lx.off]) {
			lx.off++
		}
		return Token{Kind: NUMBER, Text: src[start:lx.off], Pos: p}, nil
	}
	lx.off++
	var next byte
	if lx.off < len(src) {
		next = src[lx.off]
	}
	k := EOF
	switch c {
	case '(':
		k = LParen
	case ')':
		k = RParen
	case '{':
		k = LBrace
	case '}':
		k = RBrace
	case ';':
		k = Semi
	case ',':
		k = Comma
	case '*':
		k = Star
	case '&':
		k = Amp
	case '+':
		k = Plus
	case '.':
		k = Dot
	case '<':
		k = Lt
	case '>':
		k = Gt
	case '-':
		k = Minus
		if next == '>' {
			lx.off++
			k = Arrow
		}
	case '=':
		k = Assign
		if next == '=' {
			lx.off++
			k = Eq
		}
	case '!':
		if next == '=' {
			lx.off++
			k = Neq
		}
	}
	if k == EOF {
		return Token{}, fmt.Errorf("%s: illegal character %q", p, string(c))
	}
	return Token{Kind: k, Pos: p}, nil
}
