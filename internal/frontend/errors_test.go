package frontend

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestLowerErrorText pins the whole error of each input the frontend
// rejects, lexical and parse errors included: position and message.
func TestLowerErrorText(t *testing.T) {
	cases := []struct{ name, src, want string }{
		// Lexical and parse errors come through LowerSource unchanged.
		{"illegal after block comment", "/* a\n * b\n */ int $x;", `3:9: illegal character "$"`},
		{"illegal after tabs and CRLF", "int x;\r\n\tint *p;\r\n\t\tvoid main() {\r\n\tp = &x;\r\n\t#\r\n}", `5:2: illegal character "#"`},
		{"unterminated comment", "int x;\n  /* open", "2:3: unterminated block comment"},
		{"illegal after missing semicolon", "int x\nvoid main() { p = &x; $ }", `2:23: illegal character "$"`},
		{"truncated declaration", "int x, *", "1:9: expected identifier, found EOF"},
		// Undeclared and duplicate names.
		{"undeclared target", "void main() { x = y; }", "1:15: undeclared identifier x"},
		{"undeclared source", "int *x; void main() { y = x; }", "1:23: undeclared identifier y"},
		{"undeclared callee", "int *x; void main() { x = f(); }", "1:27: undeclared identifier f"},
		{"undeclared after tabs and CRLF", "int *x;\r\n\tvoid main() {\r\n\t\tx = y;\r\n}", "3:7: undeclared identifier y"},
		{"duplicate local", "int *x; void main() { int *x; int *x; }", "1:35: duplicate declaration of x"},
		{"duplicate global", "int *x, *x;", "1:9: duplicate declaration of x"},
		{"duplicate function", "void f() { } void f() { }", "1:19: duplicate function f"},
		{"function collides with global", "int *x; void x() { }", "1:14: function x collides with a global variable"},
		{"function collides with global struct", "struct S { int *f; }; struct S s; void main() { struct S s; } void s() { }", "1:68: function s collides with a global variable"},
		// Struct errors.
		{"duplicate struct", "struct S { int *f; }; struct S { int *g; };", "1:23: duplicate struct S"},
		{"unknown struct", "struct S s;", "1:10: unknown struct S"},
		{"unknown field struct", "struct S { struct T t; }; struct S s;", "1:36: unknown struct T"},
		{"recursive struct", "struct S { struct S s; }; struct S s;", "1:36: struct S nests too deeply (recursive by value?)"},
		{"struct too wide", wideStructSrc, "1:342: struct S9 flattens to more than 4096 fields"},
		{"no such field", "struct S { int *f; }; struct S s; int *x; void main() { x = s.g; }", "1:63: struct S has no field g"},
		{"address of whole struct", "struct S { int *f; }; struct S s; int **p; void main() { p = &s; }", "1:62: taking the address of a whole struct is not supported; take a field's address"},
		{"struct copy across types", "struct S { int *f; }; struct T { int *f; }; struct S s; struct T t; void main() { s = t; }", "1:83: struct assignment requires matching struct types"},
		{"struct from pointer", "struct S { int *f; }; struct S s; int *x; void main() { s = x; }", "1:57: struct assignment requires matching struct types"},
		{"struct from address", "struct S { int *f; }; struct S s; void main() { s = &s.f; }", "1:49: struct assignment requires a struct variable on the right"},
		{"struct parameter", "struct S { int *f; }; void f(struct S s) { }", "1:30: struct-by-value parameters are not supported; pass a pointer"},
		{"struct return", "struct S { int *f; }; struct S f() { }", "1:32: struct-by-value returns are not supported; return a pointer"},
		{"field of pointer", "int *x; void main() { x = x.f; }", "1:29: x is not a struct value"},
		// Calls, returns and assignments.
		{"arity", "void f(int *a) { } void main() { f(); }", "1:35: call to f with 0 arguments, want 1"},
		{"void value", "void f() { } void main() { int *x; x = f(); }", "1:41: void function f used as a value"},
		{"return value from void", "void main() { return g; }", "1:15: return with a value in a void function"},
		{"dereference a number", "int *x; void main() { x = *3; }", "1:27: cannot dereference a non-pointer value"},
		{"function as variable", "void f() { } void main() { f = 1; }", "1:28: function f used as a variable; take its address or call it"},
		{"assign to number", "int *x; void main() { 3 = x; }", "1:23: cannot assign to 3"},
	}
	for _, tc := range cases {
		_, err := LowerSource(tc.src)
		if err == nil {
			t.Errorf("%s: LowerSource(%q) succeeded, want %q", tc.name, tc.src, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: LowerSource(%q)\n got %q\nwant %q", tc.name, tc.src, err, tc.want)
		}
	}
}

// TestHeapNamesCountBytes pins allocation-site names on a source with
// tabs and CRLF line endings: a heap object is named alloc@line:col with
// the column counted in bytes, so a tab and a \r count one each.
func TestHeapNamesCountBytes(t *testing.T) {
	p, err := LowerSource("int *p;\r\nint *q;\r\n\tvoid main() {\r\n\t\tp = malloc; q = malloc;\r\n\tp = malloc;\r\n}\r\n")
	if err != nil {
		t.Fatal(err)
	}
	var heap []string
	for _, v := range p.Vars {
		if strings.HasPrefix(v.Name, "alloc@") {
			heap = append(heap, v.Name)
		}
	}
	want := "alloc@4:7 alloc@4:19 alloc@5:6"
	if got := strings.Join(heap, " "); got != want {
		t.Errorf("heap objects %s, want %s", got, want)
	}
}

// TestLowerNameCollisions covers inputs whose names collide in the
// program's variable table: each must lower or be rejected with an
// error, never reach ir.Program.AddVar's duplicate-name panic.
func TestLowerNameCollisions(t *testing.T) {
	rejected := []struct{ name, src, want string }{
		{"duplicate parameter", "int *g; void f(int *a, int *a) { }", "1:24: duplicate declaration of a"},
		{"duplicate flattened field", "struct n { int *g; int *g; }; struct n v;", "1:40: duplicate field v.g"},
		{"duplicate nested field", "struct n{int g;int g;}struct t{int A;struct n A;struct A A;}struct t A00;", "1:70: duplicate field A00.A.g"},
	}
	for _, tc := range rejected {
		_, err := LowerSource(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: LowerSource(%q) error = %v, want %q", tc.name, tc.src, err, tc.want)
		}
	}
	// A struct local shadowing one of the same name gets its own #n
	// names, like any other shadowing local.
	p := lower(t, "struct S { int *f; }; void main() { struct S s; { struct S s; s.f = s.f; } { struct S s; } }")
	for _, name := range []string{"main.s.f", "main.s#2.f", "main.s#3.f", "main.s#3.$root"} {
		if _, ok := p.VarByName[name]; !ok {
			t.Errorf("no variable %s", name)
		}
	}
	if got := stmtStrings(p, "main"); !slices.Contains(got, "main.s#2.f = main.s#2.f") {
		t.Errorf("inner s.f should resolve to main.s#2.f: %v", got)
	}
}

// wideStructSrc declares nine structs, each holding four fields of the
// previous one, and one S9: it would flatten to 4^8 * 4 = 262,144
// variables.
var wideStructSrc = func() string {
	src := "struct S1 { int *a, *b, *c, *d; }; "
	for i := 2; i <= 9; i++ {
		src += fmt.Sprintf("struct S%d { struct S%d a, b, c, d; }; ", i, i-1)
	}
	return src + "struct S9 s;"
}()
