// Package cpl implements CPL, a small C-like pointer language. CPL is the
// source language for the analyses in this repository: it provides exactly
// the constructs the paper's Remark 1 assumes — pointer assignments that
// normalize to the four canonical forms (x=y, x=&y, *x=y, x=*y), struct
// fields (flattened by the frontend), heap allocation (`malloc`),
// deallocation (`free`), function calls including function pointers,
// conditionals, loops and recursion.
//
// The package contains the lexer, the AST and a recursive-descent parser.
// Lowering from the AST to the normalized IR lives in package frontend.
package cpl

import "fmt"

// Kind classifies a lexical token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	NUMBER

	// Keywords.
	KwInt
	KwLock
	KwVoid
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwReturn
	KwMalloc
	KwFree
	KwNull

	// Punctuation and operators.
	LParen // (
	RParen // )
	LBrace // {
	RBrace // }
	Semi   // ;
	Comma  // ,
	Assign // =
	Star   // *
	Amp    // &
	Plus   // +
	Minus  // -
	Dot    // .
	Arrow  // ->
	Eq     // ==
	Neq    // !=
	Lt     // <
	Gt     // >
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", NUMBER: "number",
	KwInt: "int", KwLock: "lock", KwVoid: "void", KwStruct: "struct",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwReturn: "return",
	KwMalloc: "malloc", KwFree: "free", KwNull: "null",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	Semi: ";", Comma: ",", Assign: "=", Star: "*", Amp: "&",
	Plus: "+", Minus: "-", Dot: ".", Arrow: "->",
	Eq: "==", Neq: "!=", Lt: "<", Gt: ">",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// keyword returns the keyword kind an identifier spells, or IDENT. It
// switches on the length first, so most identifiers are rejected
// without a string comparison.
func keyword(s string) Kind {
	switch len(s) {
	case 2:
		if s == "if" {
			return KwIf
		}
	case 3:
		if s == "int" {
			return KwInt
		}
	case 4:
		switch s {
		case "lock":
			return KwLock
		case "void":
			return KwVoid
		case "else":
			return KwElse
		case "free":
			return KwFree
		case "null", "NULL": // NULL: the C spelling, accepted as an alias
			return KwNull
		}
	case 5:
		if s == "while" {
			return KwWhile
		}
	case 6:
		switch s {
		case "struct":
			return KwStruct
		case "return":
			return KwReturn
		case "malloc":
			return KwMalloc
		}
	}
	return IDENT
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token with its source position.
type Token struct {
	Kind Kind
	Text string // raw text for IDENT and NUMBER
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, NUMBER:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
