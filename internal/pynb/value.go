package pynb

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a runtime value in the pynb interpreter. Values know their size
// so the kernel's state-replication layer can decide which globals are
// "small" (replicated inline through the Raft log) and which are "large"
// (checkpointed to the distributed data store with a pointer in the log),
// per paper §3.2.4.
type Value interface {
	// Type returns the Python-style type name.
	Type() string
	// Repr renders the value the way print would.
	Repr() string
	// Truthy reports the value's boolean interpretation.
	Truthy() bool
	// SizeBytes estimates the value's in-memory size.
	SizeBytes() int64
}

// Int is an integer value.
type Int int64

// Type implements Value.
func (Int) Type() string { return "int" }

// Repr implements Value.
func (v Int) Repr() string { return strconv.FormatInt(int64(v), 10) }

// Truthy implements Value.
func (v Int) Truthy() bool { return v != 0 }

// SizeBytes implements Value.
func (Int) SizeBytes() int64 { return 8 }

// Float is a floating-point value.
type Float float64

// Type implements Value.
func (Float) Type() string { return "float" }

// Repr implements Value.
func (v Float) Repr() string {
	s := strconv.FormatFloat(float64(v), 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// Truthy implements Value.
func (v Float) Truthy() bool { return v != 0 }

// SizeBytes implements Value.
func (Float) SizeBytes() int64 { return 8 }

// Str is a string value.
type Str string

// Type implements Value.
func (Str) Type() string { return "str" }

// Repr implements Value.
func (v Str) Repr() string { return string(v) }

// Truthy implements Value.
func (v Str) Truthy() bool { return len(v) > 0 }

// SizeBytes implements Value.
func (v Str) SizeBytes() int64 { return int64(len(v)) + 16 }

// Bool is a boolean value.
type Bool bool

// Type implements Value.
func (Bool) Type() string { return "bool" }

// Repr implements Value.
func (v Bool) Repr() string {
	if v {
		return "True"
	}
	return "False"
}

// Truthy implements Value.
func (v Bool) Truthy() bool { return bool(v) }

// SizeBytes implements Value.
func (Bool) SizeBytes() int64 { return 1 }

// None is the unit value.
type None struct{}

// Type implements Value.
func (None) Type() string { return "NoneType" }

// Repr implements Value.
func (None) Repr() string { return "None" }

// Truthy implements Value.
func (None) Truthy() bool { return false }

// SizeBytes implements Value.
func (None) SizeBytes() int64 { return 0 }

// List is a mutable sequence.
type List struct {
	Elems []Value
}

// newList returns a list of the given elements.
func newList(elems ...Value) *List { return &List{Elems: elems} }

// Type implements Value.
func (*List) Type() string { return "list" }

// Repr implements Value.
func (v *List) Repr() string {
	parts := make([]string, len(v.Elems))
	for i, e := range v.Elems {
		if s, ok := e.(Str); ok {
			parts[i] = fmt.Sprintf("%q", string(s))
		} else {
			parts[i] = e.Repr()
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Truthy implements Value.
func (v *List) Truthy() bool { return len(v.Elems) > 0 }

// SizeBytes implements Value.
func (v *List) SizeBytes() int64 {
	var n int64 = 24
	for _, e := range v.Elems {
		n += 8 + e.SizeBytes()
	}
	return n
}

// Object is a structured value with named fields and an explicit payload
// size — models, datasets, and tensors in the notebook runtime. Class tags
// the object's kind ("Model", "Dataset", "Tensor", ...).
type Object struct {
	Class string
	// Fields holds the object's attributes.
	Fields map[string]Value
	// Payload is the object's bulk size in bytes (e.g. model parameters);
	// SizeBytes adds it to the fields' sizes. This is what makes models
	// and datasets "large objects" in the replication protocol.
	Payload int64
}

// NewObject returns an object of the given class.
func NewObject(class string, payload int64) *Object {
	return &Object{Class: class, Fields: map[string]Value{}, Payload: payload}
}

// Type implements Value.
func (o *Object) Type() string { return o.Class }

// Repr implements Value.
func (o *Object) Repr() string {
	name := ""
	if v, ok := o.Fields["name"]; ok {
		name = " " + v.Repr()
	}
	return fmt.Sprintf("<%s%s>", o.Class, name)
}

// Truthy implements Value.
func (o *Object) Truthy() bool { return true }

// SizeBytes implements Value.
func (o *Object) SizeBytes() int64 {
	n := o.Payload + 48
	for _, v := range o.Fields {
		n += v.SizeBytes()
	}
	return n
}

// Builtin is a callable provided by the runtime.
type Builtin struct {
	Name string
	Fn   func(call *CallCtx) (Value, error)
}

// Type implements Value.
func (*Builtin) Type() string { return "builtin_function_or_method" }

// Repr implements Value.
func (b *Builtin) Repr() string { return fmt.Sprintf("<built-in function %s>", b.Name) }

// Truthy implements Value.
func (*Builtin) Truthy() bool { return true }

// SizeBytes implements Value.
func (*Builtin) SizeBytes() int64 { return 8 }

// CallCtx carries the arguments of a builtin or method invocation.
type CallCtx struct {
	// Recv is the receiver for method calls, nil for free functions.
	Recv Value
	Args []Value
	Kw   map[string]Value
	// Interp exposes the interpreter (e.g. for print output).
	Interp *Interp
}

// Arg returns the i-th positional argument or an error.
func (c *CallCtx) Arg(i int) (Value, error) {
	if i >= len(c.Args) {
		return nil, fmt.Errorf("pynb: missing argument %d", i)
	}
	return c.Args[i], nil
}

// IntArg returns positional argument i as an int.
func (c *CallCtx) IntArg(i int) (int64, error) {
	v, err := c.Arg(i)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case Int:
		return int64(x), nil
	case Float:
		return int64(x), nil
	default:
		return 0, fmt.Errorf("pynb: argument %d must be a number, got %s", i, v.Type())
	}
}

// KwInt returns keyword argument name as an int, or def if absent.
func (c *CallCtx) KwInt(name string, def int64) (int64, error) {
	v, ok := c.Kw[name]
	if !ok {
		return def, nil
	}
	switch x := v.(type) {
	case Int:
		return int64(x), nil
	case Float:
		return int64(x), nil
	default:
		return 0, fmt.Errorf("pynb: keyword %q must be a number, got %s", name, v.Type())
	}
}

// KwFloat returns keyword argument name as a float, or def if absent.
func (c *CallCtx) KwFloat(name string, def float64) (float64, error) {
	v, ok := c.Kw[name]
	if !ok {
		return def, nil
	}
	switch x := v.(type) {
	case Int:
		return float64(x), nil
	case Float:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("pynb: keyword %q must be a number, got %s", name, v.Type())
	}
}
