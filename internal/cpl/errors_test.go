package cpl

import "testing"

// TestParseErrorText pins the whole error of each malformed input: the
// position (columns count bytes, so a tab and a \r each count one) and
// the message. A lexical error anywhere in the input wins over a parse
// error before it.
func TestParseErrorText(t *testing.T) {
	cases := []struct{ name, src, want string }{
		// Positions after comments, tabs and CRLF line endings.
		{"illegal after block comment", "/* a\n * b\n */ int $x;", `3:9: illegal character "$"`},
		{"illegal after two comments and a tab", "/* one */\n/* two\n three */\tint x; @", `3:18: illegal character "@"`},
		{"illegal after tabs and CRLF", "int x;\r\n\tint *p;\r\n\t\tvoid main() {\r\n\tp = &x;\r\n\t#\r\n}", `5:2: illegal character "#"`},
		{"missing semicolon before CRLF", "int x;\r\n\tint y\r\n", "3:1: expected ;, found EOF"},
		{"parse error after tabs and CRLF", "\tint x;\r\n\t\tvoid main() { x = ; }", "2:21: expected expression, found ;"},
		// Unterminated comments.
		{"unterminated comment", "int x;\n  /* open", "2:3: unterminated block comment"},
		{"unterminated comment over blank lines", "int x; /* open\n\n", "1:8: unterminated block comment"},
		// A lexical error beats an earlier parse error.
		{"illegal after missing semicolon", "int x\nvoid main() { p = &x; $ }", `2:23: illegal character "$"`},
		{"unterminated after bad statement", "void main() { x = ; }\n\n// fine\nint y; /* never closed", "4:8: unterminated block comment"},
		{"illegal after bad if", "int x;\nvoid f() { if (*) }\nint `;", "3:5: illegal character \"`\""},
		// Truncated declarations at EOF.
		{"bare type", "int", "1:4: expected identifier, found EOF"},
		{"type and star", "int *", "1:6: expected identifier, found EOF"},
		{"dangling comma", "int x,", "1:7: expected identifier, found EOF"},
		{"dangling comma and star", "int x, *", "1:9: expected identifier, found EOF"},
		{"second bare type", "int x; int", "1:11: expected identifier, found EOF"},
		{"open parameter list", "void main(", "1:11: expected type, found EOF"},
		{"unclosed parameter list", "void main(int *a", "1:17: expected ), found EOF"},
		{"parameter comma", "void main(int *a,", "1:18: expected type, found EOF"},
		{"open body", "void main() {", "1:14: unexpected EOF, expected }"},
		{"open assignment", "void main() { x = y", "1:20: expected ;, found EOF"},
		{"open condition", "void main() { if (", "1:19: expected expression, found EOF"},
		{"open loop body", "void main() { while (*) {", "1:26: unexpected EOF, expected }"},
		{"open return", "void main() { return", "1:21: expected expression, found EOF"},
		{"open free", "void main() { free(p", "1:21: expected ), found EOF"},
		{"open malloc", "int *p; void main() { p = malloc(", "1:34: expected ), found EOF"},
		{"bare struct", "struct", "1:7: expected identifier, found EOF"},
		{"struct name", "struct S", "1:9: expected identifier, found EOF"},
		{"struct variable", "struct S s", "1:11: expected ;, found EOF"},
		// Struct errors.
		{"open struct", "struct S {", "1:11: expected type, found EOF"},
		{"open struct after field", "struct S { int *f;", "1:19: expected type, found EOF"},
		{"anonymous local struct", "void main() { struct { } }", "1:22: expected identifier, found {"},
		{"anonymous field struct", "struct S { int *f; struct { } };", "1:27: expected identifier, found {"},
		{"field without semicolon", "struct S { int *f };", "1:19: expected ;, found }"},
		{"field name missing", "int x; void main() { x.; }", "1:24: expected identifier, found ;"},
		// Statement shapes.
		{"argument without comma", "void main() { f(a b); }", `1:19: expected ), found identifier("b")`},
		{"bare variable statement", "int *x; void main() { x; }", "1:23: expression statement must be a call"},
		{"bare number statement", "void main() { 3; }", "1:15: expression statement must be a call"},
		{"stray else", "void main() { else { } }", "1:15: expected expression, found else"},
		{"top-level statement", "int x; x = 1;", "1:8: expected declaration, found identifier(\"x\")"},
		{"missing declarator name", "int x; int *;", "1:13: expected identifier, found ;"},
		{"global then function", "int *g\nvoid main() { }", "2:1: expected ;, found void"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: Parse(%q) succeeded, want %q", tc.name, tc.src, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: Parse(%q)\n got %q\nwant %q", tc.name, tc.src, err, tc.want)
		}
	}
}
