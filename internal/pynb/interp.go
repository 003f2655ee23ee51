package pynb

import (
	"errors"
	"fmt"
	"math"
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

// Sentinels for loop control flow.
var (
	errBreak    = errors.New("pynb: break")
	errContinue = errors.New("pynb: continue")
)

// MethodFn implements a method on a class of Objects (or built-in types).
type MethodFn func(call *CallCtx) (Value, error)

// Interp executes pynb modules against a set of global variables — the
// kernel namespace of an IPython process in the paper's terms.
type Interp struct {
	// Globals is the kernel namespace: the user-visible variables.
	Globals map[string]Value
	// Builtins are free functions available to cell code.
	Builtins map[string]*Builtin
	// Methods maps class name to method table, letting the notebook
	// runtime attach behaviour to Objects (e.g. Model.eval).
	Methods map[string]map[string]MethodFn
	// MaxSteps bounds statement executions to catch runaway cells.
	MaxSteps int64

	steps  int64
	stdout strings.Builder
}

// New returns an interpreter with the core builtins installed.
func New() *Interp {
	in := &Interp{
		Globals:  map[string]Value{},
		Builtins: map[string]*Builtin{},
		Methods:  map[string]map[string]MethodFn{},
		MaxSteps: 10_000_000,
	}
	in.installCore()
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
	in.Builtins[name] = &Builtin{Name: name, Fn: fn}
}

// registerMethod installs a method on a class.
func (in *Interp) registerMethod(class, name string, fn MethodFn) {
	if in.Methods[class] == nil {
		in.Methods[class] = map[string]MethodFn{}
	}
	in.Methods[class][name] = fn
}

// Run parses and executes src. It returns the accumulated print output.
func (in *Interp) Run(src string) (string, error) {
	m, err := Parse(src)
	if err != nil {
		return "", err
	}
	if err := in.Exec(m); err != nil {
		return in.Stdout(), err
	}
	return in.Stdout(), nil
}

// Exec executes a parsed module.
func (in *Interp) Exec(m *Module) error {
	in.steps = 0
	return in.execBlock(m.Stmts)
}

func (in *Interp) execBlock(stmts []Stmt) error {
	for _, s := range stmts {
		if err := in.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(s Stmt) error {
	in.steps++
	if in.steps > in.MaxSteps {
		return rtErr(s, "step budget exceeded (%d)", in.MaxSteps)
	}
	switch x := s.(type) {
	case *AssignStmt:
		return in.execAssign(x)
	case *ExprStmt:
		_, err := in.eval(x.X)
		return err
	case *IfStmt:
		cond, err := in.eval(x.Cond)
		if err != nil {
			return err
		}
		if cond.Truthy() {
			return in.execBlock(x.Body)
		}
		return in.execBlock(x.Else)
	case *ForStmt:
		return in.execFor(x)
	case *PassStmt:
		return nil
	case *BreakStmt:
		return errBreak
	case *ContinueStmt:
		return errContinue
	default:
		return rtErr(s, "unknown statement %T", s)
	}
}

func (in *Interp) execAssign(a *AssignStmt) error {
	val, err := in.eval(a.Value)
	if err != nil {
		return err
	}
	if a.Op != "" {
		cur, err := in.eval(a.Target)
		if err != nil {
			return err
		}
		val, err = binaryOp(a, a.Op, cur, val)
		if err != nil {
			return err
		}
	}
	switch t := a.Target.(type) {
	case *NameExpr:
		in.Globals[t.Name] = val
		return nil
	case *IndexExpr:
		base, err := in.eval(t.X)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.I)
		if err != nil {
			return err
		}
		lst, ok := base.(*List)
		if !ok {
			return rtErr(t, "%s does not support item assignment", base.Type())
		}
		i, ok := idx.(Int)
		if !ok {
			return rtErr(t, "list index must be int, got %s", idx.Type())
		}
		n := int64(len(lst.Elems))
		ii := int64(i)
		if ii < 0 {
			ii += n
		}
		if ii < 0 || ii >= n {
			return rtErr(t, "list index %d out of range (len %d)", i, n)
		}
		lst.Elems[ii] = val
		return nil
	default:
		return rtErr(a, "invalid assignment target")
	}
}

func (in *Interp) execFor(f *ForStmt) error {
	iter, err := in.eval(f.Iter)
	if err != nil {
		return err
	}
	var elems []Value
	switch v := iter.(type) {
	case *List:
		elems = v.Elems
	case Str:
		for _, r := range string(v) {
			elems = append(elems, Str(string(r)))
		}
	default:
		return rtErr(f, "%s is not iterable", iter.Type())
	}
	for _, e := range elems {
		in.steps++
		if in.steps > in.MaxSteps {
			return rtErr(f, "step budget exceeded (%d)", in.MaxSteps)
		}
		in.Globals[f.Var] = e
		err := in.execBlock(f.Body)
		switch {
		case err == nil:
		case errors.Is(err, errBreak):
			return nil
		case errors.Is(err, errContinue):
		default:
			return err
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
	case *BoolLit:
		return Bool(x.Value), nil
	case *NoneLit:
		return None{}, nil
	case *NameExpr:
		if v, ok := in.Globals[x.Name]; ok {
			return v, nil
		}
		if b, ok := in.Builtins[x.Name]; ok {
			return b, nil
		}
		return nil, rtErr(x, "name %q is not defined", x.Name)
	case *ListLit:
		lst := &List{Elems: make([]Value, 0, len(x.Elems))}
		for _, el := range x.Elems {
			v, err := in.eval(el)
			if err != nil {
				return nil, err
			}
			lst.Elems = append(lst.Elems, v)
		}
		return lst, nil
	case *BinOp:
		l, err := in.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(x.R)
		if err != nil {
			return nil, err
		}
		return binaryOp(x, x.Op, l, r)
	case *Compare:
		return in.evalCompare(x)
	case *BoolOp:
		l, err := in.eval(x.L)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" {
			if !l.Truthy() {
				return l, nil
			}
			return in.eval(x.R)
		}
		if l.Truthy() {
			return l, nil
		}
		return in.eval(x.R)
	case *UnaryOp:
		v, err := in.eval(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch n := v.(type) {
			case Int:
				return Int(-n), nil
			case Float:
				return Float(-n), nil
			}
			return nil, rtErr(x, "bad operand for unary -: %s", v.Type())
		case "not":
			return Bool(!v.Truthy()), nil
		}
		return nil, rtErr(x, "unknown unary op %q", x.Op)
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
	case *IndexExpr:
		base, err := in.eval(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(x.I)
		if err != nil {
			return nil, err
		}
		return indexValue(x, base, idx)
	default:
		return nil, rtErr(e, "unknown expression %T", e)
	}
}

func (in *Interp) evalCompare(c *Compare) (Value, error) {
	l, err := in.eval(c.L)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(c.R)
	if err != nil {
		return nil, err
	}
	if c.Op == "in" {
		switch container := r.(type) {
		case *List:
			for _, e := range container.Elems {
				if eq, err := valueEqual(e, l); err == nil && eq {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		case Str:
			ls, ok := l.(Str)
			if !ok {
				return nil, rtErr(c, "'in <str>' requires str, got %s", l.Type())
			}
			return Bool(strings.Contains(string(container), string(ls))), nil
		default:
			return nil, rtErr(c, "%s is not a container", r.Type())
		}
	}
	if c.Op == "==" || c.Op == "!=" {
		eq, err := valueEqual(l, r)
		if err != nil {
			return nil, rtErr(c, "%v", err)
		}
		if c.Op == "!=" {
			eq = !eq
		}
		return Bool(eq), nil
	}
	cmp, err := valueOrder(l, r)
	if err != nil {
		return nil, rtErr(c, "%v", err)
	}
	switch c.Op {
	case "<":
		return Bool(cmp < 0), nil
	case "<=":
		return Bool(cmp <= 0), nil
	case ">":
		return Bool(cmp > 0), nil
	case ">=":
		return Bool(cmp >= 0), nil
	}
	return nil, rtErr(c, "unknown comparison %q", c.Op)
}

func (in *Interp) evalCall(call *CallExpr) (Value, error) {
	args := make([]Value, 0, len(call.Args))
	for _, a := range call.Args {
		v, err := in.eval(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	kw := map[string]Value{}
	for _, k := range call.Kwargs {
		v, err := in.eval(k.Value)
		if err != nil {
			return nil, err
		}
		kw[k.Name] = v
	}

	// Method call: receiver.method(...).
	if attr, ok := call.Func.(*AttrExpr); ok {
		recv, err := in.eval(attr.X)
		if err != nil {
			return nil, err
		}
		fn, err := in.lookupMethod(recv, attr.Name)
		if err != nil {
			return nil, rtErr(call, "%v", err)
		}
		out, err := fn(&CallCtx{Recv: recv, Args: args, Kw: kw, Interp: in})
		if err != nil {
			var rerr *RuntimeError
			if errors.As(err, &rerr) {
				return nil, err
			}
			return nil, rtErr(call, "%v", err)
		}
		return out, nil
	}

	fnv, err := in.eval(call.Func)
	if err != nil {
		return nil, err
	}
	b, ok := fnv.(*Builtin)
	if !ok {
		return nil, rtErr(call, "%s is not callable", fnv.Type())
	}
	out, err := b.Fn(&CallCtx{Args: args, Kw: kw, Interp: in})
	if err != nil {
		var rerr *RuntimeError
		if errors.As(err, &rerr) {
			return nil, err
		}
		return nil, rtErr(call, "%s: %v", b.Name, err)
	}
	return out, nil
}

func (in *Interp) lookupMethod(recv Value, name string) (MethodFn, error) {
	class := recv.Type()
	if obj, ok := recv.(*Object); ok {
		class = obj.Class
	}
	if tbl, ok := in.Methods[class]; ok {
		if fn, ok := tbl[name]; ok {
			return fn, nil
		}
	}
	// Built-in list methods.
	if _, ok := recv.(*List); ok {
		switch name {
		case "append":
			return listAppend, nil
		case "pop":
			return listPop, nil
		}
	}
	return nil, fmt.Errorf("%s has no method %q", class, name)
}

func listAppend(c *CallCtx) (Value, error) {
	lst := c.Recv.(*List)
	v, err := c.Arg(0)
	if err != nil {
		return nil, err
	}
	lst.Elems = append(lst.Elems, v)
	return None{}, nil
}

func listPop(c *CallCtx) (Value, error) {
	lst := c.Recv.(*List)
	if len(lst.Elems) == 0 {
		return nil, errors.New("pop from empty list")
	}
	v := lst.Elems[len(lst.Elems)-1]
	lst.Elems = lst.Elems[:len(lst.Elems)-1]
	return v, nil
}

func indexValue(n Node, base, idx Value) (Value, error) {
	i, ok := idx.(Int)
	if !ok {
		return nil, rtErr(n, "index must be int, got %s", idx.Type())
	}
	switch b := base.(type) {
	case *List:
		ln := int64(len(b.Elems))
		ii := int64(i)
		if ii < 0 {
			ii += ln
		}
		if ii < 0 || ii >= ln {
			return nil, rtErr(n, "list index %d out of range (len %d)", i, ln)
		}
		return b.Elems[ii], nil
	case Str:
		ln := int64(len(b))
		ii := int64(i)
		if ii < 0 {
			ii += ln
		}
		if ii < 0 || ii >= ln {
			return nil, rtErr(n, "string index %d out of range (len %d)", i, ln)
		}
		return Str(string(b)[ii : ii+1]), nil
	default:
		return nil, rtErr(n, "%s is not subscriptable", base.Type())
	}
}

func binaryOp(n Node, op string, l, r Value) (Value, error) {
	// String concatenation and list concatenation.
	if op == "+" {
		if ls, ok := l.(Str); ok {
			if rs, ok := r.(Str); ok {
				return Str(string(ls) + string(rs)), nil
			}
			return nil, rtErr(n, "cannot concatenate str and %s", r.Type())
		}
		if ll, ok := l.(*List); ok {
			if rl, ok := r.(*List); ok {
				out := &List{Elems: make([]Value, 0, len(ll.Elems)+len(rl.Elems))}
				out.Elems = append(out.Elems, ll.Elems...)
				out.Elems = append(out.Elems, rl.Elems...)
				return out, nil
			}
			return nil, rtErr(n, "cannot concatenate list and %s", r.Type())
		}
	}
	li, lIsInt := l.(Int)
	ri, rIsInt := r.(Int)
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, rtErr(n, "unsupported operands for %s: %s and %s", op, l.Type(), r.Type())
	}
	bothInt := lIsInt && rIsInt
	switch op {
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
	case "/":
		if rf == 0 {
			return nil, rtErr(n, "division by zero")
		}
		return Float(lf / rf), nil
	case "//":
		if rf == 0 {
			return nil, rtErr(n, "division by zero")
		}
		if bothInt {
			q := int64(math.Floor(float64(li) / float64(ri)))
			return Int(q), nil
		}
		return Float(math.Floor(lf / rf)), nil
	case "%":
		if !bothInt {
			return nil, rtErr(n, "%% requires integers")
		}
		if ri == 0 {
			return nil, rtErr(n, "modulo by zero")
		}
		m := li % ri
		if (m < 0 && ri > 0) || (m > 0 && ri < 0) {
			m += ri
		}
		return m, nil
	case "**":
		if bothInt && ri >= 0 {
			out := Int(1)
			for i := Int(0); i < ri; i++ {
				out *= li
			}
			return out, nil
		}
		return Float(math.Pow(lf, rf)), nil
	}
	return nil, rtErr(n, "unknown operator %q", op)
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case Int:
		return float64(x), true
	case Float:
		return float64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func valueEqual(a, b Value) (bool, error) {
	if af, aok := toFloat(a); aok {
		if bf, bok := toFloat(b); bok {
			return af == bf, nil
		}
	}
	switch x := a.(type) {
	case Str:
		y, ok := b.(Str)
		return ok && x == y, nil
	case None:
		_, ok := b.(None)
		return ok, nil
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false, nil
		}
		for i := range x.Elems {
			eq, err := valueEqual(x.Elems[i], y.Elems[i])
			if err != nil || !eq {
				return false, err
			}
		}
		return true, nil
	case *Object:
		return a == b, nil
	}
	return false, nil
}

func valueOrder(a, b Value) (int, error) {
	if af, aok := toFloat(a); aok {
		if bf, bok := toFloat(b); bok {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if as, ok := a.(Str); ok {
		if bs, ok := b.(Str); ok {
			return strings.Compare(string(as), string(bs)), nil
		}
	}
	return 0, fmt.Errorf("cannot order %s and %s", a.Type(), b.Type())
}

// installCore registers the language's built-in functions.
func (in *Interp) installCore() {
	in.RegisterBuiltin("print", func(c *CallCtx) (Value, error) {
		parts := make([]string, len(c.Args))
		for i, a := range c.Args {
			parts[i] = a.Repr()
		}
		c.Interp.stdout.WriteString(strings.Join(parts, " "))
		c.Interp.stdout.WriteByte('\n')
		return None{}, nil
	})
	in.RegisterBuiltin("len", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		switch x := v.(type) {
		case *List:
			return Int(len(x.Elems)), nil
		case Str:
			return Int(len(x)), nil
		default:
			return nil, fmt.Errorf("object of type %s has no len()", v.Type())
		}
	})
	in.RegisterBuiltin("range", func(c *CallCtx) (Value, error) {
		var lo, hi, step int64
		step = 1
		switch len(c.Args) {
		case 1:
			n, err := c.IntArg(0)
			if err != nil {
				return nil, err
			}
			hi = n
		case 2, 3:
			var err error
			if lo, err = c.IntArg(0); err != nil {
				return nil, err
			}
			if hi, err = c.IntArg(1); err != nil {
				return nil, err
			}
			if len(c.Args) == 3 {
				if step, err = c.IntArg(2); err != nil {
					return nil, err
				}
			}
		default:
			return nil, errors.New("range expects 1-3 arguments")
		}
		if step == 0 {
			return nil, errors.New("range step must not be zero")
		}
		const maxRange = 10_000_000
		lst := &List{}
		if step > 0 {
			for i := lo; i < hi; i += step {
				if int64(len(lst.Elems)) > maxRange {
					return nil, errors.New("range too large")
				}
				lst.Elems = append(lst.Elems, Int(i))
			}
		} else {
			for i := lo; i > hi; i += step {
				if int64(len(lst.Elems)) > maxRange {
					return nil, errors.New("range too large")
				}
				lst.Elems = append(lst.Elems, Int(i))
			}
		}
		return lst, nil
	})
	in.RegisterBuiltin("str", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		return Str(v.Repr()), nil
	})
	in.RegisterBuiltin("int", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		if f, ok := toFloat(v); ok {
			return Int(int64(f)), nil
		}
		if s, ok := v.(Str); ok {
			var out int64
			_, err := fmt.Sscanf(strings.TrimSpace(string(s)), "%d", &out)
			if err != nil {
				return nil, fmt.Errorf("invalid literal for int(): %q", string(s))
			}
			return Int(out), nil
		}
		return nil, fmt.Errorf("cannot convert %s to int", v.Type())
	})
	in.RegisterBuiltin("float", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		if f, ok := toFloat(v); ok {
			return Float(f), nil
		}
		return nil, fmt.Errorf("cannot convert %s to float", v.Type())
	})
	in.RegisterBuiltin("abs", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		switch x := v.(type) {
		case Int:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case Float:
			return Float(math.Abs(float64(x))), nil
		}
		return nil, fmt.Errorf("bad operand for abs(): %s", v.Type())
	})
	in.RegisterBuiltin("sum", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		lst, ok := v.(*List)
		if !ok {
			return nil, fmt.Errorf("sum() requires a list, got %s", v.Type())
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, e := range lst.Elems {
			f, ok := toFloat(e)
			if !ok {
				return nil, fmt.Errorf("sum() element %s is not numeric", e.Type())
			}
			fsum += f
			if i, ok := e.(Int); ok {
				isum += int64(i)
			} else {
				allInt = false
			}
		}
		if allInt {
			return Int(isum), nil
		}
		return Float(fsum), nil
	})
	in.RegisterBuiltin("min", builtinMinMax(-1))
	in.RegisterBuiltin("max", builtinMinMax(1))
	in.RegisterBuiltin("round", func(c *CallCtx) (Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		f, ok := toFloat(v)
		if !ok {
			return nil, fmt.Errorf("round() requires a number, got %s", v.Type())
		}
		digits, err := c.KwInt("ndigits", 0)
		if err != nil {
			return nil, err
		}
		if len(c.Args) > 1 {
			if digits, err = c.IntArg(1); err != nil {
				return nil, err
			}
		}
		if digits == 0 {
			return Int(int64(math.Round(f))), nil
		}
		scale := math.Pow(10, float64(digits))
		return Float(math.Round(f*scale) / scale), nil
	})
}

func builtinMinMax(sign int) func(*CallCtx) (Value, error) {
	return func(c *CallCtx) (Value, error) {
		vals := c.Args
		if len(vals) == 1 {
			if lst, ok := vals[0].(*List); ok {
				vals = lst.Elems
			}
		}
		if len(vals) == 0 {
			return nil, errors.New("min()/max() of empty sequence")
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp, err := valueOrder(v, best)
			if err != nil {
				return nil, err
			}
			if cmp*sign > 0 {
				best = v
			}
		}
		return best, nil
	}
}
