package pynb

import "strings"

// Node is the common interface of all AST nodes.
type Node interface {
	// Pos returns the (line, col) of the node's first token.
	Pos() (int, int)
}

type pos struct{ line, col int }

func (p pos) Pos() (int, int) { return p.line, p.col }

// Module is a parsed cell: a sequence of statements.
type Module struct {
	pos
	Stmts []Stmt
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmt()
}

// Expr is an expression node.
type Expr interface {
	Node
	expr()
}

// AssignStmt is `target = value` where target is a name or an index
// expression (`xs[i] = v`). Op is "" for plain assignment or one of
// "+", "-", "*", "/" for augmented assignment.
type AssignStmt struct {
	pos
	Target Expr // *NameExpr or *IndexExpr
	Op     string
	Value  Expr
}

// ExprStmt is a bare expression evaluated for effect.
type ExprStmt struct {
	pos
	X Expr
}

// IfStmt is if/elif/else; elif chains are parsed as nested IfStmt in Else.
type IfStmt struct {
	pos
	Cond Expr
	Body []Stmt
	Else []Stmt
}

// ForStmt is `for var in iterable:`.
type ForStmt struct {
	pos
	Var  string
	Iter Expr
	Body []Stmt
}

// PassStmt is `pass`.
type PassStmt struct{ pos }

// BreakStmt is `break`.
type BreakStmt struct{ pos }

// ContinueStmt is `continue`.
type ContinueStmt struct{ pos }

func (*AssignStmt) stmt()   {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*ForStmt) stmt()      {}
func (*PassStmt) stmt()     {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}

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

// BoolLit is True or False.
type BoolLit struct {
	pos
	Value bool
}

// NoneLit is None.
type NoneLit struct{ pos }

// ListLit is `[a, b, c]`.
type ListLit struct {
	pos
	Elems []Expr
}

// BinOp is a binary arithmetic operation (+ - * / // % **).
type BinOp struct {
	pos
	Op   string
	L, R Expr
}

// Compare is a single comparison (== != < <= > >=). Chained comparisons
// are not supported.
type Compare struct {
	pos
	Op   string
	L, R Expr
}

// BoolOp is `and` / `or` with short-circuit evaluation.
type BoolOp struct {
	pos
	Op   string
	L, R Expr
}

// UnaryOp is `-x` or `not x`.
type UnaryOp struct {
	pos
	Op string
	X  Expr
}

// CallExpr is `f(args..., k=v...)` where f is a name or attribute.
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

// IndexExpr is `x[i]`.
type IndexExpr struct {
	pos
	X Expr
	I Expr
}

func (*NameExpr) expr()  {}
func (*IntLit) expr()    {}
func (*FloatLit) expr()  {}
func (*StringLit) expr() {}
func (*BoolLit) expr()   {}
func (*NoneLit) expr()   {}
func (*ListLit) expr()   {}
func (*BinOp) expr()     {}
func (*Compare) expr()   {}
func (*BoolOp) expr()    {}
func (*UnaryOp) expr()   {}
func (*CallExpr) expr()  {}
func (*AttrExpr) expr()  {}
func (*IndexExpr) expr() {}

// Walk visits every node in depth-first order, calling fn on each. If fn
// returns false, the node's children are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *Module:
		for _, s := range x.Stmts {
			Walk(s, fn)
		}
	case *AssignStmt:
		Walk(x.Target, fn)
		Walk(x.Value, fn)
	case *ExprStmt:
		Walk(x.X, fn)
	case *IfStmt:
		Walk(x.Cond, fn)
		for _, s := range x.Body {
			Walk(s, fn)
		}
		for _, s := range x.Else {
			Walk(s, fn)
		}
	case *ForStmt:
		Walk(x.Iter, fn)
		for _, s := range x.Body {
			Walk(s, fn)
		}
	case *ListLit:
		for _, e := range x.Elems {
			Walk(e, fn)
		}
	case *BinOp:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Compare:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *BoolOp:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *UnaryOp:
		Walk(x.X, fn)
	case *CallExpr:
		Walk(x.Func, fn)
		for _, a := range x.Args {
			Walk(a, fn)
		}
		for _, k := range x.Kwargs {
			Walk(k.Value, fn)
		}
	case *AttrExpr:
		Walk(x.X, fn)
	case *IndexExpr:
		Walk(x.X, fn)
		Walk(x.I, fn)
	}
}

// AnalyzeAssigned returns the sorted set of top-level (global) names the
// module assigns anywhere — the state NotebookOS replicates to standby
// replicas after a cell executes (paper Fig. 6). It includes plain and
// augmented assignment targets, the base name of indexed assignments
// (`xs[0] = v` mutates xs), and for-loop variables.
func AnalyzeAssigned(m *Module) []string {
	set := map[string]bool{}
	Walk(m, func(n Node) bool {
		switch x := n.(type) {
		case *AssignStmt:
			switch t := x.Target.(type) {
			case *NameExpr:
				set[t.Name] = true
			case *IndexExpr:
				if base, ok := rootName(t); ok {
					set[base] = true
				}
			}
		case *ForStmt:
			set[x.Var] = true
		case *CallExpr:
			// Method calls may mutate their receiver (e.g. xs.append(v),
			// model.load_state(...)); conservatively mark the receiver as
			// assigned, like the paper's conservative AST analysis.
			if attr, ok := x.Func.(*AttrExpr); ok {
				if base, ok := rootName(attr.X); ok {
					set[base] = true
				}
			}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

// analyzeReferenced returns the sorted set of names the module reads.
func analyzeReferenced(m *Module) []string {
	set := map[string]bool{}
	Walk(m, func(n Node) bool {
		if x, ok := n.(*NameExpr); ok {
			set[x.Name] = true
		}
		return true
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func rootName(e Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *NameExpr:
			return x.Name, true
		case *IndexExpr:
			e = x.X
		case *AttrExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

func sortStrings(xs []string) {
	// Insertion sort keeps this file dependency-free; the slices are tiny.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && strings.Compare(xs[j], xs[j-1]) < 0; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
