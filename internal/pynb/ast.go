package pynb

import "slices"

// Node is the common interface of all AST nodes.
type Node interface {
	// Pos returns the (line, col) of the node's first token.
	Pos() (int, int)
}

// pos is a node's position and, for an expression, the depth of the tree it
// roots (a leaf's is 1).
type pos struct{ line, col, depth int }

func (p pos) Pos() (int, int) { return p.line, p.col }

func (p pos) treeDepth() int { return p.depth }

// Module is a parsed cell: a sequence of statements.
type Module struct {
	Stmts []*Stmt
}

// Stmt is one line of a cell: `Target = Value`, or Value evaluated for
// effect when Target is "".
type Stmt struct {
	pos
	Target string
	Value  Expr
}

// Expr is an expression node.
type Expr interface {
	Node
	treeDepth() int
}

// NameExpr is an identifier reference.
type NameExpr struct {
	pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	pos
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	pos
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	pos
	Value string
}

// BinOp is a binary arithmetic operation (+ - * /).
type BinOp struct {
	pos
	Op   string
	L, R Expr
}

// NegExpr is unary minus, `-x`.
type NegExpr struct {
	pos
	X Expr
}

// CallExpr is `f(args..., k=v...)`.
type CallExpr struct {
	pos
	Func   Expr
	Args   []Expr
	Kwargs []Kwarg
}

// Kwarg is one keyword argument of a call.
type Kwarg struct {
	Name  string
	Value Expr
}

// AttrExpr is `x.name`.
type AttrExpr struct {
	pos
	X    Expr
	Name string
}

// walk visits e and its subexpressions depth first.
func walk(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case *BinOp:
		walk(x.L, fn)
		walk(x.R, fn)
	case *NegExpr:
		walk(x.X, fn)
	case *CallExpr:
		walk(x.Func, fn)
		for _, a := range x.Args {
			walk(a, fn)
		}
		for _, k := range x.Kwargs {
			walk(k.Value, fn)
		}
	case *AttrExpr:
		walk(x.X, fn)
	}
}

// AnalyzeAssigned returns the sorted set of global names a cell may change —
// the state NotebookOS replicates to standby replicas after a cell executes
// (paper Fig. 6). It holds every assignment target and, conservatively like
// the paper's AST analysis, the root name of every call argument, positional
// or keyword: a builtin may change its arguments in place (train(model, …)
// trains model).
func AnalyzeAssigned(m *Module) []string {
	var out []string
	for _, s := range m.Stmts {
		if s.Target != "" {
			out = append(out, s.Target)
		}
		walk(s.Value, func(e Expr) {
			call, ok := e.(*CallExpr)
			if !ok {
				return
			}
			for _, a := range call.Args {
				out = appendRoot(out, a)
			}
			for _, k := range call.Kwargs {
				out = appendRoot(out, k.Value)
			}
		})
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// appendRoot appends the name an attribute chain starts from (m for m.a.b),
// if e is one.
func appendRoot(out []string, e Expr) []string {
	for {
		switch x := e.(type) {
		case *NameExpr:
			return append(out, x.Name)
		case *AttrExpr:
			e = x.X
		default:
			return out
		}
	}
}
