package pynb

import (
	"errors"
	"fmt"
	"strings"
)

// RuntimeError reports an execution failure with position information.
type RuntimeError struct {
	Line, Col int
	Msg       string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("pynb: runtime error at line %d: %s", e.Line, e.Msg)
}

func rtErr(n Node, format string, args ...any) error {
	l, c := n.Pos()
	return &RuntimeError{Line: l, Col: c, Msg: fmt.Sprintf(format, args...)}
}

// Interp executes pynb modules against a set of global variables — the
// kernel namespace of an IPython process in the paper's terms.
type Interp struct {
	// Globals is the kernel namespace: the user-visible variables.
	Globals map[string]Value

	builtins map[string]*Builtin
	stdout   strings.Builder
}

// New returns an interpreter with the core builtin, print, installed.
func New() *Interp {
	in := &Interp{Globals: map[string]Value{}, builtins: map[string]*Builtin{}}
	in.RegisterBuiltin("print", func(c *CallCtx) (Value, error) {
		for i, a := range c.Args {
			if i > 0 {
				in.stdout.WriteByte(' ')
			}
			in.stdout.WriteString(a.Repr())
		}
		in.stdout.WriteByte('\n')
		return None{}, nil
	})
	return in
}

// Stdout returns everything printed so far and clears the buffer.
func (in *Interp) Stdout() string {
	s := in.stdout.String()
	in.stdout.Reset()
	return s
}

// RegisterBuiltin installs a free function.
func (in *Interp) RegisterBuiltin(name string, fn func(*CallCtx) (Value, error)) {
	in.builtins[name] = &Builtin{Name: name, Fn: fn}
}

// Run parses and executes src. It returns the accumulated print output.
func (in *Interp) Run(src string) (string, error) {
	m, err := Parse(src)
	if err != nil {
		return "", err
	}
	err = in.Exec(m)
	return in.Stdout(), err
}

// Exec executes a parsed module, each statement once, in order.
func (in *Interp) Exec(m *Module) error {
	for _, s := range m.Stmts {
		v, err := in.eval(s.Value)
		if err != nil {
			return err
		}
		if s.Target != "" {
			in.Globals[s.Target] = v
		}
	}
	return nil
}

func (in *Interp) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *IntLit:
		return Int(x.Value), nil
	case *FloatLit:
		return Float(x.Value), nil
	case *StringLit:
		return Str(x.Value), nil
	case *NameExpr:
		if v, ok := in.Globals[x.Name]; ok {
			return v, nil
		}
		if b, ok := in.builtins[x.Name]; ok {
			return b, nil
		}
		return nil, rtErr(x, "name %q is not defined", x.Name)
	case *BinOp:
		l, err := in.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(x.R)
		if err != nil {
			return nil, err
		}
		return binaryOp(x, l, r)
	case *NegExpr:
		v, err := in.eval(x.X)
		if err != nil {
			return nil, err
		}
		switch n := v.(type) {
		case Int:
			return -n, nil
		case Float:
			return -n, nil
		}
		return nil, rtErr(x, "bad operand for unary -: %s", v.Type())
	case *CallExpr:
		return in.evalCall(x)
	case *AttrExpr:
		v, err := in.eval(x.X)
		if err != nil {
			return nil, err
		}
		if obj, ok := v.(*Object); ok {
			if f, ok := obj.Fields[x.Name]; ok {
				return f, nil
			}
		}
		return nil, rtErr(x, "%s has no attribute %q", v.Type(), x.Name)
	default:
		return nil, rtErr(e, "unknown expression %T", e)
	}
}

func (in *Interp) evalCall(call *CallExpr) (Value, error) {
	fnv, err := in.eval(call.Func)
	if err != nil {
		return nil, err
	}
	b, ok := fnv.(*Builtin)
	if !ok {
		return nil, rtErr(call, "%s is not callable", fnv.Type())
	}
	c := &CallCtx{Args: make([]Value, len(call.Args)), Kw: map[string]Value{}}
	for i, a := range call.Args {
		if c.Args[i], err = in.eval(a); err != nil {
			return nil, err
		}
	}
	for _, k := range call.Kwargs {
		if c.Kw[k.Name], err = in.eval(k.Value); err != nil {
			return nil, err
		}
	}
	out, err := b.Fn(c)
	if err != nil {
		var rerr *RuntimeError
		if errors.As(err, &rerr) {
			return nil, err
		}
		return nil, rtErr(call, "%s: %v", b.Name, err)
	}
	return out, nil
}

// binaryOp applies + - * / to numbers (int op int stays int, except /),
// and + to two strings.
func binaryOp(n *BinOp, l, r Value) (Value, error) {
	if ls, ok := l.(Str); ok && n.Op == "+" {
		if rs, ok := r.(Str); ok {
			return ls + rs, nil
		}
		return nil, rtErr(n, "cannot concatenate str and %s", r.Type())
	}
	li, lIsInt := l.(Int)
	ri, rIsInt := r.(Int)
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, rtErr(n, "unsupported operands for %s: %s and %s", n.Op, l.Type(), r.Type())
	}
	bothInt := lIsInt && rIsInt
	switch n.Op {
	case "+":
		if bothInt {
			return li + ri, nil
		}
		return Float(lf + rf), nil
	case "-":
		if bothInt {
			return li - ri, nil
		}
		return Float(lf - rf), nil
	case "*":
		if bothInt {
			return li * ri, nil
		}
		return Float(lf * rf), nil
	default: // "/"
		if rf == 0 {
			return nil, rtErr(n, "division by zero")
		}
		return Float(lf / rf), nil
	}
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case Int:
		return float64(x), true
	case Float:
		return float64(x), true
	default:
		return 0, false
	}
}
