package cpl

import "fmt"

// Parser is a recursive-descent parser for CPL. It pulls tokens from a
// Lexer as it goes, holding the current one and at most two after it
// (lookaheadStructDef reads the second), instead of lexing the whole
// file first.
type Parser struct {
	lx    *Lexer
	tok   Token    // the current token
	ahead [2]Token // ahead[:n] follow tok
	n     int
	// lexErr is the lexer's first error. Once it is set the lexer is not
	// asked again and the parser sees EOF, so parsing ends; Parse then
	// reports lexErr whatever the parser made of the truncated stream.
	lexErr error

	// Slabs for the nodes a parse makes most of, and the stacks that
	// collect a declaration's names, a block's statements and a call's
	// arguments until they move into slab windows.
	idents    slab[Ident]
	derefs    slab[Deref]
	fields    slab[Field]
	calls     slab[Call]
	assigns   slab[AssignStmt]
	exprStmts slab[ExprStmt]
	blocks    slab[Block]
	varDecls  slab[VarDecl]
	names     slab[Declarator]
	stmts     slab[Stmt]
	args      slab[Expr]
	nameStack []Declarator
	stmtStack []Stmt
	argStack  []Expr
}

// slabLen is how many nodes of one type a parser slab holds.
const slabLen = 128

// slab hands out AST nodes of one type from chunks of slabLen, so a
// parse allocates once per chunk instead of once per node. Only starting
// a chunk stores a pointer; taking elements bumps a count.
type slab[T any] struct {
	buf  []T
	used int
}

// take returns n fresh elements as a window whose capacity ends where it
// does, so appending to it copies it out instead of overwriting its
// neighbour.
func (s *slab[T]) take(n int) []T {
	if len(s.buf)-s.used < n {
		s.buf = make([]T, max(slabLen, n))
		s.used = 0
	}
	i := s.used
	s.used += n
	return s.buf[i : i+n : i+n]
}

// put stores v in the slab and returns its address.
func (s *slab[T]) put(v T) *T {
	x := &s.take(1)[0]
	*x = v
	return x
}

// window copies xs into the slab and returns the copy, nil for an empty
// xs.
func (s *slab[T]) window(xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	w := s.take(len(xs))
	copy(w, xs)
	return w
}

// Parse parses a CPL translation unit.
//
// A lexical error anywhere in src wins over any parse error, as if the
// whole file were lexed before parsing: when parsing fails first, Parse
// lexes the rest of the input and reports its first lexical error if
// there is one.
func Parse(src string) (*File, error) {
	p := &Parser{lx: NewLexer(src)}
	p.tok = p.lex()
	f, err := p.parseFile()
	if err != nil && p.lexErr == nil {
		p.lexRest()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// MustParse parses src and panics on error. It is a convenience for tests
// and examples with literal programs.
func MustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// lex pulls the next token from the lexer. Past the end, or after a
// lexical error, it yields EOF.
func (p *Parser) lex() Token {
	if p.lexErr != nil {
		return Token{Kind: EOF}
	}
	t, err := p.lx.Next()
	if err != nil {
		p.lexErr = err
		return Token{Kind: EOF}
	}
	return t
}

// fill makes sure at least k tokens follow the current one.
func (p *Parser) fill(k int) {
	for ; p.n < k; p.n++ {
		p.ahead[p.n] = p.lex()
	}
}

// lexRest lexes the input after the last token pulled, recording the
// first lexical error.
func (p *Parser) lexRest() {
	for {
		t, err := p.lx.Next()
		if err != nil {
			p.lexErr = err
			return
		}
		if t.Kind == EOF {
			return
		}
	}
}

func (p *Parser) cur() Token { return p.tok }

func (p *Parser) peek() Token {
	p.fill(1)
	return p.ahead[0]
}

func (p *Parser) next() Token {
	t := p.tok
	if t.Kind == EOF {
		return t
	}
	if p.n == 0 {
		p.tok = p.lex()
		return t
	}
	p.tok = p.ahead[0]
	p.ahead[0] = p.ahead[1]
	p.n--
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind == k {
		return p.next(), nil
	}
	return Token{}, fmt.Errorf("%s: expected %s, found %s", p.cur().Pos, k, p.cur())
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func isTypeStart(k Kind) bool {
	return k == KwInt || k == KwLock || k == KwVoid || k == KwStruct
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{}
	for p.cur().Kind != EOF {
		switch {
		case p.cur().Kind == KwStruct && p.peek().Kind == IDENT && p.lookaheadStructDef():
			sd, err := p.parseStructDecl()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, sd)
		case isTypeStart(p.cur().Kind):
			// Either a global variable declaration or a function
			// definition: they share the type and first declarator, read
			// once.
			pos := p.cur().Pos
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			d, name, err := p.parseDeclarator()
			if err != nil {
				return nil, err
			}
			if p.cur().Kind == LParen {
				fn, err := p.parseFuncRest(typ, d.Stars, name)
				if err != nil {
					return nil, err
				}
				f.Funcs = append(f.Funcs, fn)
			} else {
				vd, err := p.parseVarDeclRest(typ, pos, d)
				if err != nil {
					return nil, err
				}
				f.Globals = append(f.Globals, vd)
			}
		default:
			return nil, p.errf("expected declaration, found %s", p.cur())
		}
	}
	return f, nil
}

// lookaheadStructDef distinguishes `struct S { ... }` (a type definition)
// from `struct S x;` (a declaration using the struct type).
func (p *Parser) lookaheadStructDef() bool {
	// cur = struct, peek = IDENT; check the token after the name.
	p.fill(2)
	return p.ahead[1].Kind == LBrace
}

func (p *Parser) parseStructDecl() (*StructDecl, error) {
	pos := p.cur().Pos
	p.next() // struct
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	sd := &StructDecl{Name: name.Text, Pos: pos}
	for p.cur().Kind != RBrace {
		vd, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, vd)
	}
	p.next() // }
	p.accept(Semi)
	return sd, nil
}

func (p *Parser) parseType() (Type, error) {
	switch p.cur().Kind {
	case KwInt:
		p.next()
		return Type{Base: "int"}, nil
	case KwLock:
		p.next()
		return Type{Base: "lock"}, nil
	case KwVoid:
		p.next()
		return Type{Base: "void"}, nil
	case KwStruct:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return Type{}, err
		}
		return Type{Base: name.Text, IsStruct: true}, nil
	}
	return Type{}, p.errf("expected type, found %s", p.cur())
}

// parseDeclarator parses `*...* name`, the part of a declaration after
// its type, and returns it with the name token.
func (p *Parser) parseDeclarator() (Declarator, Token, error) {
	dpos := p.cur().Pos
	stars := 0
	for p.accept(Star) {
		stars++
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return Declarator{}, Token{}, err
	}
	return Declarator{Stars: stars, Name: name.Text, Pos: dpos}, name, nil
}

func (p *Parser) parseVarDecl() (*VarDecl, error) {
	pos := p.cur().Pos
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	d, _, err := p.parseDeclarator()
	if err != nil {
		return nil, err
	}
	return p.parseVarDeclRest(typ, pos, d)
}

// parseVarDeclRest finishes a declaration whose type (at pos) and first
// declarator are read: further `, declarator`s, then `;`.
func (p *Parser) parseVarDeclRest(typ Type, pos Pos, first Declarator) (*VarDecl, error) {
	p.nameStack = append(p.nameStack[:0], first)
	for p.accept(Comma) {
		d, _, err := p.parseDeclarator()
		if err != nil {
			return nil, err
		}
		p.nameStack = append(p.nameStack, d)
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return p.varDecls.put(VarDecl{Type: typ, Names: p.names.window(p.nameStack), Pos: pos}), nil
}

func (p *Parser) parseFuncRest(ret Type, retStars int, name Token) (*FuncDecl, error) {
	fn := &FuncDecl{Ret: ret, RetStars: retStars, Name: name.Text, Pos: name.Pos}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if !p.accept(RParen) {
		for {
			ppos := p.cur().Pos
			// Allow `void` as an empty parameter list: f(void).
			if p.cur().Kind == KwVoid && p.peek().Kind == RParen {
				p.next()
				break
			}
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			d, _, err := p.parseDeclarator()
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, Param{Type: typ, Stars: d.Stars, Name: d.Name, Pos: ppos})
			if !p.accept(Comma) {
				break
			}
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	// Statements collect on stmtStack above the enclosing blocks' ones.
	mark := len(p.stmtStack)
	for p.cur().Kind != RBrace {
		if p.cur().Kind == EOF {
			return nil, p.errf("unexpected EOF, expected }")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmtStack = append(p.stmtStack, s)
	}
	p.next() // }
	b := p.blocks.put(Block{Stmts: p.stmts.window(p.stmtStack[mark:]), Pos: lb.Pos})
	clear(p.stmtStack[mark:])
	p.stmtStack = p.stmtStack[:mark]
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	tok := p.cur()
	switch tok.Kind {
	case LBrace:
		return p.parseBlock()
	case Semi:
		p.next()
		return &EmptyStmt{Pos: tok.Pos}, nil
	case KwInt, KwLock, KwVoid, KwStruct:
		vd, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decl: vd}, nil
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwReturn:
		p.next()
		rs := &ReturnStmt{Pos: tok.Pos}
		if p.cur().Kind != Semi {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Value = e
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return rs, nil
	case KwFree:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &FreeStmt{X: x, Pos: tok.Pos}, nil
	}
	// Assignment or call statement.
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(Assign) {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return p.assigns.put(AssignStmt{LHS: lhs, RHS: rhs, Pos: tok.Pos}), nil
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if _, ok := lhs.(*Call); !ok {
		return nil, fmt.Errorf("%s: expression statement must be a call", tok.Pos)
	}
	return p.exprStmts.put(ExprStmt{X: lhs, Pos: tok.Pos}), nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.next().Pos // if
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: pos}
	if p.accept(KwElse) {
		if p.cur().Kind == KwIf {
			// else if: wrap in a synthetic block.
			inner, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = &Block{Stmts: []Stmt{inner}, Pos: inner.Position()}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.next().Pos // while
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil
}

// parseCond parses `( cond )` where cond is `*` (nondeterministic, returned
// as nil) or an expression.
func (p *Parser) parseCond() (Expr, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if p.cur().Kind == Star && p.peek().Kind == RParen {
		p.next()
		p.next()
		return nil, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	return e, nil
}

// parseExpr parses binary expressions with a single flat precedence level —
// CPL expressions only feed pointer analysis, which treats arithmetic and
// comparisons uniformly.
func (p *Parser) parseExpr() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case Plus:
			op = OpAdd
		case Minus:
			op = OpSub
		case Eq:
			op = OpEq
		case Neq:
			op = OpNeq
		case Lt:
			op = OpLt
		case Gt:
			op = OpGt
		default:
			return x, nil
		}
		pos := p.next().Pos
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y, Pos: pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case Star:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.derefs.put(Deref{X: x, Pos: tok.Pos}), nil
	case Amp:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &AddrOf{X: x, Pos: tok.Pos}, nil
	case KwMalloc:
		p.next()
		if p.accept(LParen) {
			// Optional size argument, ignored: malloc(8).
			if p.cur().Kind == NUMBER {
				p.next()
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
		}
		return &Malloc{Pos: tok.Pos}, nil
	case KwNull:
		p.next()
		return &Null{Pos: tok.Pos}, nil
	case NUMBER:
		p.next()
		return &Num{Value: tok.Text, Pos: tok.Pos}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	tok := p.cur()
	var x Expr
	switch tok.Kind {
	case IDENT:
		p.next()
		x = p.idents.put(Ident{Name: tok.Text, Pos: tok.Pos})
	case LParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		x = inner
	default:
		return nil, p.errf("expected expression, found %s", tok)
	}
	for {
		switch p.cur().Kind {
		case Dot:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = p.fields.put(Field{X: x, Name: name.Text, Pos: name.Pos})
		case Arrow:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = p.fields.put(Field{X: x, Name: name.Text, Arrow: true, Pos: name.Pos})
		case LParen:
			pos := p.next().Pos
			// Arguments collect on argStack above the enclosing calls' ones.
			mark := len(p.argStack)
			if !p.accept(RParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					p.argStack = append(p.argStack, a)
					if !p.accept(Comma) {
						break
					}
				}
				if _, err := p.expect(RParen); err != nil {
					return nil, err
				}
			}
			x = p.calls.put(Call{Fun: x, Args: p.args.window(p.argStack[mark:]), Pos: pos})
			clear(p.argStack[mark:])
			p.argStack = p.argStack[:mark]
		default:
			return x, nil
		}
	}
}
