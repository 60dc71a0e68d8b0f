package cpl

import "fmt"

// Lexer turns CPL source text into tokens. It supports //-line and
// /* */-block comments and reports positions for diagnostics.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, appending the terminating EOF token.
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

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return fmt.Errorf("%s: unterminated block comment", start)
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

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
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: p}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: p}, nil
	case isDigit(c):
		start := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: NUMBER, Text: lx.src[start:lx.off], Pos: p}, nil
	}
	lx.advance()
	one := func(k Kind) (Token, error) { return Token{Kind: k, Pos: p}, nil }
	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case ';':
		return one(Semi)
	case ',':
		return one(Comma)
	case '*':
		return one(Star)
	case '&':
		return one(Amp)
	case '+':
		return one(Plus)
	case '.':
		return one(Dot)
	case '<':
		return one(Lt)
	case '>':
		return one(Gt)
	case '-':
		if lx.peek() == '>' {
			lx.advance()
			return one(Arrow)
		}
		return one(Minus)
	case '=':
		if lx.peek() == '=' {
			lx.advance()
			return one(Eq)
		}
		return one(Assign)
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			return one(Neq)
		}
	}
	return Token{}, fmt.Errorf("%s: illegal character %q", p, string(c))
}
