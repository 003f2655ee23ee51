package pynb

import "strconv"

// maxDepth bounds expression nesting: the parser refuses a tree deeper than
// this, and parentheses, unary minus or call arguments nested this deep
// (CPython refuses 200 nested parentheses), so that neither parsing nor
// evaluation can recurse without bound.
const maxDepth = 200

// Parse lexes and parses source code into a Module.
func Parse(src string) (*Module, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &Module{}
	for !p.at(TokEOF, "") {
		if p.accept(TokNewline, "") {
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		m.Stmts = append(m.Stmts, s)
	}
	return m, nil
}

type parser struct {
	toks []Token
	pos  int
	// nest counts the parseUnary calls in progress: every recursion of the
	// expression grammar passes through one.
	nest int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) (Token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = kind.String()
		}
		return t, errAt(t.Line, t.Col, "expected %s, found %s", want, t)
	}
	p.pos++
	return t, nil
}

// node returns the position of an expression built at t over kids, or an
// error if its tree would be deeper than maxDepth.
func node(t Token, kids ...Expr) (pos, error) {
	d := 0
	for _, k := range kids {
		d = max(d, k.treeDepth())
	}
	if d >= maxDepth {
		return pos{}, tooDeep(t)
	}
	return pos{t.Line, t.Col, d + 1}, nil
}

func tooDeep(t Token) error {
	return errAt(t.Line, t.Col, "expression nested more than %d levels deep", maxDepth)
}

// parseStmt parses `name = expr NEWLINE` or `expr NEWLINE`.
func (p *parser) parseStmt() (*Stmt, error) {
	t := p.cur()
	s := &Stmt{pos: pos{line: t.Line, col: t.Col}}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if eq := p.cur(); p.accept(TokOp, "=") {
		name, ok := x.(*NameExpr)
		if !ok {
			return nil, errAt(eq.Line, eq.Col, "invalid assignment target")
		}
		s.Target = name.Name
		if x, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	s.Value = x
	if _, err := p.expect(TokNewline, ""); err != nil {
		return nil, err
	}
	return s, nil
}

// Expression grammar, lowest to highest precedence:
//
//	additive > multiplicative > unary minus > postfix (call, attribute) > atom
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseMultiplicative()
	for err == nil && (p.at(TokOp, "+") || p.at(TokOp, "-")) {
		l, err = p.binary(l, p.parseMultiplicative)
	}
	return l, err
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	for err == nil && (p.at(TokOp, "*") || p.at(TokOp, "/")) {
		l, err = p.binary(l, p.parseUnary)
	}
	return l, err
}

// binary parses the operator at the cursor and its right operand.
func (p *parser) binary(l Expr, operand func() (Expr, error)) (Expr, error) {
	t := p.next()
	r, err := operand()
	if err != nil {
		return nil, err
	}
	at, err := node(t, l, r)
	return &BinOp{at, t.Text, l, r}, err
}

func (p *parser) parseUnary() (Expr, error) {
	if p.nest++; p.nest > maxDepth {
		return nil, tooDeep(p.cur())
	}
	defer func() { p.nest-- }()
	if !p.at(TokOp, "-") {
		return p.parsePostfix()
	}
	t := p.next()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	at, err := node(t, x)
	return &NegExpr{at, x}, err
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parseAtom()
	for err == nil {
		t := p.cur()
		switch {
		case p.at(TokOp, "("):
			if _, ok := x.(*AttrExpr); ok {
				return nil, unsupported(t.Line, t.Col, "method call")
			}
			x, err = p.parseCall(x)
		case p.at(TokOp, "."):
			p.next()
			var name Token
			if name, err = p.expect(TokIdent, ""); err == nil {
				var at pos
				at, err = node(t, x)
				x = &AttrExpr{at, x, name.Text}
			}
		case p.at(TokOp, "["):
			return nil, unsupported(t.Line, t.Col, "indexing")
		default:
			return x, nil
		}
	}
	return nil, err
}

// parseCall parses the argument list of a call of fn.
func (p *parser) parseCall(fn Expr) (Expr, error) {
	t := p.next() // '('
	call := &CallExpr{Func: fn}
	kids := []Expr{fn}
	for !p.at(TokOp, ")") {
		// Keyword arguments look like IDENT '=' expr.
		var name string
		if p.at(TokIdent, "") && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "=" {
			name = p.next().Text
			p.next()
		} else if len(call.Kwargs) > 0 {
			tt := p.cur()
			return nil, errAt(tt.Line, tt.Col, "positional argument after keyword argument")
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if name != "" {
			call.Kwargs = append(call.Kwargs, Kwarg{Name: name, Value: v})
		} else {
			call.Args = append(call.Args, v)
		}
		kids = append(kids, v)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	var err error
	call.pos, err = node(t, kids...)
	return call, err
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.next()
	at := pos{t.Line, t.Col, 1}
	switch t.Kind {
	case TokInt:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad integer %q", t.Text)
		}
		return &IntLit{at, v}, nil
	case TokFloat:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad float %q", t.Text)
		}
		return &FloatLit{at, v}, nil
	case TokString:
		return &StringLit{at, t.Text}, nil
	case TokIdent:
		return &NameExpr{at, t.Text}, nil
	case TokOp:
		switch t.Text {
		case "(":
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			return nil, unsupported(t.Line, t.Col, "list literal")
		}
	}
	return nil, errAt(t.Line, t.Col, "unexpected token %s", t)
}
